"""Correctness checks on what the service answered (Section 2.3.1).

Each function returns a list of violation messages (empty when the
answer is correct), so the caller can count a failed request per
answer and keep the first few messages for the run record.

* ``BOUNDS x`` must bracket the exact frequency: lower <= f <= upper,
  with the estimate inside the same bracket.
* A heavy-hitter row ``(x, est)`` carries the hybrid estimate
  ``c(x) + offset``, an upper bound: f <= est, and
  est - maximum_error <= f when the sketch's maximum error is known.
  No item with f >= phi * N may be missing (no false negatives).
* Mid-run a reader only knows which frames were *sent* before its
  reply arrived, an upper bound on what was applied: a lower bound must
  not exceed f(sent so far), and a tracked item (EST > 0, an HH row)
  must have appeared in the stream sent so far.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.streams.exact import ExactCounter


def bounds_violations(
    item: int, lower: float, estimate: float, upper: float, f: float
) -> list[str]:
    """Check one post-drain ``BOUNDS`` answer against the exact ``f``."""
    problems = []
    if not lower <= f <= upper:
        problems.append(f"BOUNDS {item}: f={f!r} outside [{lower!r}, {upper!r}]")
    if not lower <= estimate <= upper:
        problems.append(
            f"BOUNDS {item}: estimate {estimate!r} outside [{lower!r}, {upper!r}]"
        )
    return problems


def hh_violations(
    rows: Iterable[tuple[int, float]],
    oracle: ExactCounter,
    phi: float,
    maximum_error: Optional[float] = None,
) -> list[str]:
    """Check one post-drain heavy-hitter answer against the oracle."""
    problems = []
    reported = set()
    for item, estimate in rows:
        reported.add(item)
        f = oracle.frequency(item)
        if f > estimate:
            problems.append(f"HH {item}: f={f!r} above estimate {estimate!r}")
        if maximum_error is not None and estimate - maximum_error > f:
            problems.append(
                f"HH {item}: estimate {estimate!r} - max error "
                f"{maximum_error!r} above f={f!r}"
            )
    for item in oracle.heavy_hitters(phi):
        if item not in reported:
            problems.append(
                f"HH: true heavy hitter {item} (f={oracle.frequency(item)!r}) missing"
            )
    return problems


def midrun_lower_violations(item: int, lower: float, f_sent: float) -> list[str]:
    """A mid-run lower bound may not exceed what was sent so far."""
    if lower > f_sent:
        return [f"mid-run BOUNDS {item}: lower {lower!r} above f(sent)={f_sent!r}"]
    return []


def midrun_tracked_violations(items: Iterable[int], appeared) -> list[str]:
    """Tracked items (EST > 0 or an HH row) must have been sent already.

    ``appeared(item)`` answers whether ``item`` is in the prefix sent
    before the reply arrived.
    """
    return [
        f"mid-run: item {item} reported before it was ever sent"
        for item in items
        if not appeared(item)
    ]


def replica_violations(leader: dict, follower: dict) -> list[str]:
    """The follower's answers must equal the leader's, key by key."""
    problems = []
    for key in sorted(set(leader) | set(follower), key=str):
        if leader.get(key) != follower.get(key):
            problems.append(
                f"follower diverges on {key}: leader {leader.get(key)!r}, "
                f"follower {follower.get(key)!r}"
            )
    return problems
