"""Open-loop due times and lateness; paced and closed-loop send-to-reply timing."""

import asyncio

import pytest

from perfbench.loadgen import closed_loop, due_time, open_loop


class FakeClock:
    """A clock that only moves when the code under test sleeps or works."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_due_times_follow_the_rate():
    assert due_time(5.0, 0, 100.0) == 5.0
    assert due_time(5.0, 250, 100.0) == pytest.approx(7.5)


def test_a_stall_is_charged_to_every_request_queued_behind_it():
    clock = FakeClock()
    cost = {2: 0.5}  # request 2 stalls for half a second

    async def request(index: int) -> None:
        clock.now += cost.get(index, 0.01)

    samples = asyncio.run(
        open_loop(6, 10.0, 0.0, request, clock, sleep=clock.sleep)
    )
    # Due every 0.1 s.  Request 2 ends at 0.7; 3, 4 and 5 go out after
    # their due times, and their latency counts the wait from when each
    # was due.  The service held them up, not the generator: not late.
    assert samples.latency == pytest.approx([0.01, 0.01, 0.5, 0.41, 0.32, 0.23])
    assert samples.late == pytest.approx([0.0] * 6)


def test_a_generator_that_oversleeps_runs_late():
    clock = FakeClock()

    async def oversleep(seconds: float) -> None:
        clock.now += seconds + 0.03

    async def request(index: int) -> None:
        clock.now += 0.01

    samples = asyncio.run(open_loop(3, 10.0, 0.0, request, clock, sleep=oversleep))
    # Request 0 is due at once; 1 and 2 wake 30 ms past their due times.
    assert samples.late == pytest.approx([0.0, 0.03, 0.03])
    assert samples.latency == pytest.approx([0.01, 0.04, 0.04])


def test_an_on_time_generator_is_never_late():
    clock = FakeClock()

    async def request(index: int) -> None:
        clock.now += 0.002

    samples = asyncio.run(
        open_loop(100, 50.0, 1.0, request, clock, sleep=clock.sleep)
    )
    assert max(samples.late) == 0.0
    assert samples.latency == pytest.approx([0.002] * 100)


def test_closed_loop_times_from_the_send_and_stops_at_the_deadline():
    clock = FakeClock()

    async def request(index: int) -> None:
        clock.now += 0.25 if index == 1 else 0.1

    samples = asyncio.run(closed_loop(0.5, request, clock))
    assert samples.latency == pytest.approx([0.1, 0.25, 0.1, 0.1])
    assert samples.late == [0.0] * 4
    assert samples.done == pytest.approx([0.1, 0.35, 0.45, 0.55])


def test_closed_loop_runs_past_its_deadline_until_enough_samples():
    clock = FakeClock()

    async def request(index: int) -> None:
        clock.now += 0.1

    samples = asyncio.run(closed_loop(0.25, request, clock, min_count=5, cap=10.0))
    assert len(samples.latency) == 5
    # The cap stops it short of min_count when the service is too slow.
    clock.now = 0.0
    samples = asyncio.run(closed_loop(0.25, request, clock, min_count=50, cap=0.45))
    assert len(samples.latency) == 5


def test_a_paced_loop_keeps_the_schedule_but_times_from_the_send():
    clock = FakeClock()
    cost = {1: 0.25}  # request 1 stalls past the next two due times

    async def request(index: int) -> None:
        clock.now += cost.get(index, 0.01)

    samples = asyncio.run(
        open_loop(5, 10.0, 0.0, request, clock, sleep=clock.sleep, from_send=True)
    )
    # Due every 0.1 s; request 1 ends at 0.35, so 2 and 3 go out at once
    # behind it, and 4 waits for its due time.  Each is timed from its
    # own send: the stall is charged once.
    assert samples.latency == pytest.approx([0.01, 0.25, 0.01, 0.01, 0.01])
    assert samples.done == pytest.approx([0.01, 0.35, 0.36, 0.37, 0.41])
    assert samples.late == pytest.approx([0.0] * 5)
