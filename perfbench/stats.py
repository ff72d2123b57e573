"""Order statistics with the tail-sample rule the benchmark reports by.

A percentile is only reported when at least :data:`MIN_TAIL` samples lie
beyond it; otherwise the run is too short for that percentile and the
caller must say so instead of printing a number the data cannot carry.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation (NumPy's default)."""
    if not samples:
        raise TooFewSamples("no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def tail_count(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile.

    With linear interpolation the percentile sits at rank
    ``(n - 1) * q / 100``; every sample ranked above it is beyond it.
    """
    if n <= 0:
        return 0
    rank = (n - 1) * q / 100.0
    return n - 1 - math.floor(rank)


def min_samples_for(q: float) -> int:
    """The smallest sample size with :data:`MIN_TAIL` samples beyond ``q``."""
    n = 1
    while tail_count(n, q) < MIN_TAIL:
        n += 1
    return n


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """``percentile(samples, q)``, refusing when the tail is too thin."""
    beyond = tail_count(len(samples), q)
    if beyond < MIN_TAIL:
        raise TooFewSamples(
            f"p{q:g} of {len(samples)} samples has {beyond} beyond it; "
            f"need {MIN_TAIL} (at least {min_samples_for(q)} samples)"
        )
    return percentile(samples, q)


def calm_windows(
    steal: Sequence[float], limit: float, counts: Sequence[Sequence[int]], need: int,
) -> list[int]:
    """Indices of the sub-windows a run's timings are taken over.

    ``steal[i]`` is the share of CPU time the hypervisor took from the
    host during sub-window ``i``, and each of ``counts`` gives one sample
    pool's count per sub-window.  Every sub-window at or below ``limit``
    is kept.  While the kept ones hold fewer than ``need`` samples of
    any pool, the least-stolen sub-window left is added (the earlier of
    two equal ones first), so a burst of steal costs a run no more of its
    window than its p99s can spare.  The choice depends only on the host
    and on sample counts, never on the timings themselves, so a stall
    the program causes is kept with its window.
    """
    kept: list[int] = []
    for index in sorted(range(len(steal)), key=lambda i: (steal[i], i)):
        enough = all(sum(pool[i] for i in kept) >= need for pool in counts)
        if steal[index] > limit and enough:
            break
        kept.append(index)
    return sorted(kept)
