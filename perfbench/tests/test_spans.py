"""Span self time: duration minus the union of clipped child intervals."""

import asyncio

import pytest

from perfbench.layers import span_table
from perfbench.spans import SpanRecorder, self_times


def _spans(rows):
    """Export-shaped dict from ``(id, name, start, end, parent)`` rows."""
    return {
        "ids": [r[0] for r in rows],
        "names": [r[1] for r in rows],
        "starts": [r[2] for r in rows],
        "ends": [r[3] for r in rows],
        "parents": [r[4] for r in rows],
        "roots": [0] * len(rows),
        "counts": [0] * len(rows),
    }


def test_self_time_subtracts_the_union_of_children():
    spans = _spans([
        (0, "request", 0.0, 10.0, -1),
        (1, "a", 1.0, 3.0, 0),
        (2, "b", 2.0, 5.0, 0),      # overlaps a: union [1, 5]
        (3, "c", 8.0, 12.0, 0),     # runs past the parent: clipped to [8, 10]
        (4, "grandchild", 1.5, 2.5, 1),
    ])
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_leaf_self_time_is_its_duration():
    spans = _spans([(7, "leaf", 2.0, 2.5, -1)])
    assert self_times(spans) == pytest.approx([0.5])


def test_recorder_nests_sync_spans_and_counts_work():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap(lambda n: n * 2, "inner", count=lambda n: n)
    outer = recorder.wrap(lambda n: inner(n) + 1, "outer")
    assert outer(21) == 43
    spans = recorder.export()
    assert spans["names"] == ["outer", "inner"]
    assert spans["parents"] == [-1, 0]
    assert spans["roots"] == [0, 0]
    assert spans["counts"] == [0, 21]
    # outer: ticks 0..3, inner: ticks 1..2 -> self times 2 and 1.
    assert self_times(spans) == pytest.approx([2.0, 1.0])


def test_async_spans_of_concurrent_requests_keep_their_own_parents():
    recorder = SpanRecorder()

    async def leaf() -> None:
        await asyncio.sleep(0.001)

    traced_leaf = recorder.wrap(leaf, "leaf")

    async def handler() -> None:
        await traced_leaf()
        await traced_leaf()

    traced_handler = recorder.wrap(handler, "handler")

    async def main() -> None:
        await asyncio.gather(traced_handler(), traced_handler())

    asyncio.run(main())
    spans = recorder.export()
    handlers = [i for i, name in zip(spans["ids"], spans["names"]) if name == "handler"]
    for span_id, name, parent, root in zip(
        spans["ids"], spans["names"], spans["parents"], spans["roots"]
    ):
        if name == "leaf":
            assert parent in handlers and root == parent
    leaves_per_handler = [spans["parents"].count(h) for h in handlers]
    assert leaves_per_handler == [2, 2]


def test_only_under_records_inside_the_named_parent():
    recorder = SpanRecorder()
    read = recorder.wrap(lambda: None, "read", only_under=frozenset({"dispatch"}))
    dispatch = recorder.wrap(lambda: read(), "dispatch")
    read()
    dispatch()
    assert recorder.export()["names"] == ["dispatch", "read"]


def test_span_table_keeps_spans_begun_inside_the_window():
    spans = _spans([
        (0, "setup", 0.0, 1.0, -1),        # before the window
        (1, "request", 2.0, 6.0, -1),
        (2, "child", 5.0, 7.0, 1),          # begins inside, ends after
        (3, "verify", 9.0, 9.5, -1),        # after the window
    ])
    table = span_table(spans, (1.5, 8.0))
    assert sorted(table) == ["child", "request"]
    # The request's self time still loses the part its child covers.
    assert table["request"] == [pytest.approx((4.0, 3.0, 0))]
    assert table["child"] == [pytest.approx((2.0, 2.0, 0))]
