"""Closed- and open-loop request scheduling with due-time accounting.

A closed loop sends the next request when the previous one completes
and times each from its send.  An open loop owns a fixed schedule —
request ``i`` is *due* at ``t0 + i / rate`` — and times each request
from when it was due, so a stall charges its wait to every request
queued behind it.  A *paced* loop keeps the same schedule but times
each request from its send: its offered rate is a constant, yet a
stall is charged once.  How late the generator itself started a request,
counted from when it was both due and free to go (its predecessor on
the connection had completed), is recorded separately as ``late``: it
shows when the generator, not the service, was the bottleneck.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable


@dataclass
class LoopSamples:
    """Per-request timings of one loop, in seconds.

    ``done`` holds each request's completion time on the loop's clock,
    so samples can be grouped into sub-windows of the run.
    """

    latency: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)

    def record(self, latency: float, late: float, done: float) -> None:
        self.latency.append(latency)
        self.late.append(late)
        self.done.append(done)


def due_time(t0: float, index: int, rate: float) -> float:
    """When request ``index`` of a ``rate``-per-second schedule is due."""
    return t0 + index / rate


async def open_loop(
    count: int,
    rate: float,
    t0: float,
    request: Callable[[int], Awaitable[None]],
    clock: Callable[[], float],
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    samples: LoopSamples | None = None,
    from_send: bool = False,
) -> LoopSamples:
    """Send ``count`` requests on a fixed schedule; one in flight.

    ``request(i)`` performs request ``i``; ``sleep(seconds)`` waits.
    Latency is measured from the due time, or from the send when
    ``from_send`` (a paced loop); lateness is the start's delay past
    the later of the due time and the previous completion.
    """
    samples = samples if samples is not None else LoopSamples()
    previous_end = t0
    for index in range(count):
        due = due_time(t0, index, rate)
        ahead = due - clock()
        if ahead > 0:
            await sleep(ahead)
        start = clock()
        await request(index)
        end = clock()
        samples.record(
            end - (start if from_send else due),
            max(0.0, start - max(due, previous_end)),
            end,
        )
        previous_end = end
    return samples


async def closed_loop(
    deadline: float,
    request: Callable[[int], Awaitable[None]],
    clock: Callable[[], float],
    samples: LoopSamples | None = None,
    min_count: int = 0,
    cap: float = float("inf"),
) -> LoopSamples:
    """Send requests one after another until ``deadline``.

    Each is timed from its send.  When fewer than ``min_count`` requests
    completed by ``deadline``, the loop goes on until they have, but
    sends nothing after ``cap``.
    """
    samples = samples if samples is not None else LoopSamples()
    index = 0
    while clock() < deadline or (index < min_count and clock() < cap):
        start = clock()
        await request(index)
        end = clock()
        samples.record(end - start, 0.0, end)
        index += 1
    return samples
