"""In-memory span recording around calls into the service's layers.

A span is ``(name, start, end, parent, root, count)``: ``parent`` is the
span that was open in the same task when this one began, and every span
of one request shares the ``root`` of the outermost span that request
opened.  Spans live in parallel lists until :meth:`SpanRecorder.export`
writes them out, and :func:`self_times` turns them into per-span self
time: duration minus the part of it that child spans cover.

Wrapping is from the outside — :meth:`SpanRecorder.patch` replaces an
attribute of a class or module with a recording wrapper — so the
program itself is unchanged.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import os
import time
from typing import Callable, Optional


class SpanRecorder:
    """Collects spans for one process; disabled in forked children.

    A child forked while patches are installed (a cluster worker)
    inherits the wrappers; it records nothing, because its spans could
    never be exported.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.counts: list[int] = []
        self.enabled = True
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def current_name(self) -> Optional[str]:
        """Name of the span open in this task, if any."""
        idx = self._current.get()
        return self.names[idx] if idx >= 0 else None

    def begin(self, name: str, count: int = 0):
        """Open a span; returns the token :meth:`end` needs."""
        idx = len(self.starts)
        parent = self._current.get()
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else idx)
        self.counts.append(count)
        self.ends.append(0.0)
        self.starts.append(self.clock())
        return idx, self._current.set(idx)

    def end(self, token) -> None:
        idx, ctx_token = token
        self.ends[idx] = self.clock()
        self._current.reset(ctx_token)

    def wrap(
        self,
        func: Callable,
        name: str,
        count: Optional[Callable[..., int]] = None,
        only_under: Optional[frozenset] = None,
    ) -> Callable:
        """A recording wrapper around ``func`` (sync or async).

        ``count(*args, **kwargs)`` sizes the work of one call (updates
        in a batch, say).  With ``only_under`` the call is recorded only
        when the open span's name is in that set.
        """
        recorder = self

        def should_record() -> bool:
            if not recorder.enabled:
                return False
            return only_under is None or recorder.current_name() in only_under

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                if not should_record():
                    return await func(*args, **kwargs)
                token = recorder.begin(name, count(*args, **kwargs) if count else 0)
                try:
                    return await func(*args, **kwargs)
                finally:
                    recorder.end(token)
            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not should_record():
                return func(*args, **kwargs)
            token = recorder.begin(name, count(*args, **kwargs) if count else 0)
            try:
                return func(*args, **kwargs)
            finally:
                recorder.end(token)
        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **options))

    def export(self) -> dict:
        """Columnar, JSON-ready copy of every finished span."""
        done = [i for i, end in enumerate(self.ends) if end > 0.0]
        return {
            "names": [self.names[i] for i in done],
            "starts": [self.starts[i] for i in done],
            "ends": [self.ends[i] for i in done],
            "parents": [self.parents[i] for i in done],
            "roots": [self.roots[i] for i in done],
            "counts": [self.counts[i] for i in done],
            "ids": done,
        }


def self_times(spans: dict) -> list[float]:
    """Self time of every exported span, in the order of ``spans``.

    Self time is the span's duration minus the length of the union of
    its children's intervals, each clipped to the parent's interval.
    """
    position = {span_id: pos for pos, span_id in enumerate(spans["ids"])}
    children: dict[int, list[tuple[float, float]]] = {}
    for pos, parent in enumerate(spans["parents"]):
        if parent in position:
            children.setdefault(position[parent], []).append(
                (spans["starts"][pos], spans["ends"][pos])
            )
    result = []
    for pos, (start, end) in enumerate(zip(spans["starts"], spans["ends"])):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(pos, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result
