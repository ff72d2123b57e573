"""Materialised workload inputs and the exact oracle over them.

Streams come from the repository's own generators — the Section 4.5
weighted Zipf stream (:func:`repro.bench.harness.zipf_weighted_batches`)
and :class:`repro.streams.caida.SyntheticPacketTrace` — re-cut into
fixed-size frames before any timing starts.  Every run cycles a fixed
pool of frames: a closed loop's length is unknown in advance, and an
open loop's schedule may offer more updates than are worth holding in
memory.

The oracle side answers "how much weight did item ``x`` of tenant ``t``
receive in the first ``m`` frames sent?" for the probe items the
readers ask about, and "had item ``x`` appeared in tenant ``t`` by frame
``m``?" for any item — enough to check every answer given mid-run, not
only after the stream drains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.harness import zipf_weighted_batches
from repro.streams.caida import SyntheticPacketTrace
from repro.streams.exact import ExactCounter

from perfbench.workloads import (
    PACKET_SOURCES,
    ZIPF_ALPHA,
    ZIPF_UNIVERSE,
    Workload,
)

#: Updates in a run's frame pool (cycled for as long as the run).
POOL_UPDATES = 1 << 21
#: Distinct probe items the readers and post-drain checks ask about.
PROBE_ITEMS = 256


def stream_arrays(workload: Workload, num_updates: int, seed: int):
    """``(items, weights)`` of the workload's stream, ``num_updates`` long."""
    if workload.stream == "zipf":
        batches = zipf_weighted_batches(num_updates, ZIPF_UNIVERSE, ZIPF_ALPHA, seed)
    elif workload.stream == "packet":
        trace = SyntheticPacketTrace(num_updates, unique_sources=PACKET_SOURCES, seed=seed)
        batches = list(trace.batches())
    else:
        raise ValueError(f"unknown stream {workload.stream!r}")
    items = np.concatenate([b[0] for b in batches]).astype(np.uint64, copy=False)
    weights = np.concatenate([b[1] for b in batches]).astype(np.float64, copy=False)
    return items, weights


def exact_counter(items: np.ndarray, weights: np.ndarray) -> ExactCounter:
    """An :class:`ExactCounter` over ``(items, weights)``.

    The stream is aggregated per item in NumPy first; feeding the
    per-item totals gives the counter the same frequencies and total
    weight as feeding every update (weights are integers far below
    2**53, so float sums are exact in any order).
    """
    unique, inverse = np.unique(items, return_inverse=True)
    totals = np.bincount(inverse, weights=weights, minlength=unique.shape[0])
    counter = ExactCounter()
    counter.update_all(zip(unique.tolist(), totals.tolist()))
    return counter


@dataclass
class Frames:
    """Frames of one run plus the per-tenant oracle over them.

    ``tenant_of[i]`` is the tenant index frame ``i`` is sent to (always
    0 without tenants).  A run may send more frames than exist: frame
    ``i`` of the run is ``frames[i % len(frames)]``.  ``offered`` is how
    many frames an open loop's schedule sends (0 for a closed loop).
    """

    items: np.ndarray
    weights: np.ndarray
    frame_updates: int
    tenant_of: np.ndarray
    num_tenants: int
    probes: np.ndarray
    read_plan: list
    offered: int = 0

    def __len__(self) -> int:
        return self.tenant_of.shape[0]

    def frame(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        lo = (index % len(self)) * self.frame_updates
        hi = lo + self.frame_updates
        return self.items[lo:hi], self.weights[lo:hi]

    def sent_arrays(self, frames_sent: int, tenant: int = 0):
        """``(items, weights)`` of every update in the first
        ``frames_sent`` frames of the run that went to ``tenant``."""
        full, rest = divmod(frames_sent, len(self))
        by_frame_items = self.items.reshape(len(self), self.frame_updates)
        by_frame_weights = self.weights.reshape(len(self), self.frame_updates)
        parts_items, parts_weights = [], []
        for count, reps in ((len(self), full), (rest, 1)):
            if reps == 0 or count == 0:
                continue
            own = np.flatnonzero(self.tenant_of[:count] == tenant)
            parts_items.append(by_frame_items[own].ravel())
            parts_weights.append(by_frame_weights[own].ravel() * reps)
        if not parts_items:
            return np.zeros(0, np.uint64), np.zeros(0, np.float64)
        return np.concatenate(parts_items), np.concatenate(parts_weights)

    def oracle(self, frames_sent: int, tenant: int = 0) -> ExactCounter:
        """The exact counter of what the first ``frames_sent`` frames
        delivered to ``tenant``."""
        return exact_counter(*self.sent_arrays(frames_sent, tenant))


class PrefixOracle:
    """Exact per-tenant frequencies of any prefix of a run.

    For the probe items it keeps cumulative weight per tenant frame, so
    ``weight(t, x, m)`` is one ``searchsorted`` and one lookup; for any
    item it keeps the frame of first appearance per tenant.  A prefix
    longer than the frame pool counts every completed pass.
    """

    def __init__(self, frames: Frames) -> None:
        self._frames = frames
        probes = frames.probes
        self._probe_index = {int(x): i for i, x in enumerate(probes.tolist())}
        fu = frames.frame_updates
        by_frame_items = frames.items.reshape(len(frames), fu)
        by_frame_weights = frames.weights.reshape(len(frames), fu)
        self._tenant_frames = []
        self._cumulative = []
        self._first_items = []
        self._first_frame = []
        order = np.argsort(probes)
        sorted_probes = probes[order]
        for tenant in range(frames.num_tenants):
            own = np.flatnonzero(frames.tenant_of == tenant)
            self._tenant_frames.append(own)
            items = by_frame_items[own].ravel()
            weights = by_frame_weights[own].ravel()
            # The tenant's updates arrive frame by frame, fu at a time.
            local_frame = np.repeat(np.arange(own.shape[0]), fu)
            pos = np.searchsorted(sorted_probes, items)
            pos[pos >= sorted_probes.shape[0]] = 0
            hit = sorted_probes[pos] == items
            table = np.zeros((own.shape[0] + 1, probes.shape[0]))
            np.add.at(table, (local_frame[hit] + 1, order[pos[hit]]), weights[hit])
            self._cumulative.append(np.cumsum(table, axis=0))
            unique, first = np.unique(items, return_index=True)
            self._first_items.append(unique)
            self._first_frame.append(local_frame[first])

    def _tenant_prefix(self, tenant: int, frames_sent: int) -> tuple[int, int]:
        """``(passes, frames)``: completed passes over the pool, and how
        many of ``tenant``'s frames the partial pass holds."""
        passes, rest = divmod(frames_sent, len(self._frames))
        return passes, int(np.searchsorted(self._tenant_frames[tenant], rest))

    def weight(self, tenant: int, item: int, frames_sent: int) -> float:
        """Exact weight of probe ``item`` in ``tenant``'s share of the prefix."""
        column = self._probe_index[item]
        cumulative = self._cumulative[tenant]
        passes, own = self._tenant_prefix(tenant, frames_sent)
        return float(passes * cumulative[-1, column] + cumulative[own, column])

    def appeared(self, tenant: int, item: int, frames_sent: int) -> bool:
        """Whether ``item`` reached ``tenant`` within the first ``frames_sent`` frames."""
        unique = self._first_items[tenant]
        pos = int(np.searchsorted(unique, np.uint64(item)))
        if pos >= unique.shape[0] or int(unique[pos]) != item:
            return False
        passes, own = self._tenant_prefix(tenant, frames_sent)
        return passes > 0 or int(self._first_frame[tenant][pos]) < own


def build_frames(workload: Workload, seed: int, seconds: float) -> Frames:
    """Materialise every frame and the read plan of one run."""
    fu = workload.frame_updates
    offered = int(np.ceil(workload.write_rate * seconds / fu)) if workload.scheduled else 0
    num_frames = min(offered, POOL_UPDATES // fu) if offered else POOL_UPDATES // fu
    items, weights = stream_arrays(workload, num_frames * fu, seed)
    rng = np.random.default_rng([seed, 0xBE7C4])
    num_tenants = max(1, workload.tenants)
    if workload.tenants:
        ranks = np.arange(1, num_tenants + 1, dtype=np.float64)
        popularity = ranks ** -workload.tenant_alpha
        tenant_of = rng.choice(num_tenants, size=num_frames, p=popularity / popularity.sum())
        # Every tenant gets at least one frame, so every tenant is checked.
        tenant_of[:num_tenants] = np.arange(num_tenants)
    else:
        popularity = np.ones(1)
        tenant_of = np.zeros(num_frames, dtype=np.int64)
    # Probe items are drawn by position, so popular items dominate, as
    # they would in real lookups; duplicates collapse.
    positions = rng.integers(0, items.shape[0], size=4 * PROBE_ITEMS)
    probes = np.unique(items[positions])[:PROBE_ITEMS]
    probes = rng.permutation(probes)
    read_plan = plan_reads(workload, seconds, probes, popularity, rng)
    return Frames(items, weights, fu, tenant_of, num_tenants, probes, read_plan, offered)


def plan_reads(workload, seconds, probes, popularity, rng) -> list:
    """``(kind, tenant, item)`` for every query of the run, in order:
    ``read_rate * seconds`` of them, sent on schedule."""
    mix = workload.read_mix
    count = int(round(workload.read_rate * seconds))
    # Exact shares, shuffled: every run of a workload has the same number
    # of queries of each kind, so per-kind sample counts never vary.
    per_kind = [int(round(share * count)) for _kind, share in mix]
    per_kind[0] += count - sum(per_kind)
    kinds = rng.permutation(np.repeat(np.arange(len(mix)), per_kind))
    tenants = rng.choice(
        popularity.shape[0], size=count, p=popularity / popularity.sum()
    )
    picks = rng.integers(0, probes.shape[0], size=count)
    return [
        (mix[kind][0], int(tenant), int(probes[pick]))
        for kind, tenant, pick in zip(kinds.tolist(), tenants.tolist(), picks.tolist())
    ]

