"""The benchmark's workloads: topology, load shape and why each exists.

Every rate, frame size and mix below is a constant of the workload.
Nothing here is derived from a measurement taken at run time, so the
offered load is the same on every commit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Zipf skew and universe of the Section 4.5 weighted stream.
ZIPF_ALPHA = 1.05
ZIPF_UNIVERSE = 100_000
#: Distinct sources of the packet-trace stream.
PACKET_SOURCES = 100_000
#: Heavy-hitter fraction used by HH / THH queries and their checks.
HH_PHI = 0.01
#: The single-node read mix of ``read-mix``.
POINT_READ_MIX = (("EST", 0.7), ("BOUNDS", 0.2), ("HH", 0.1))
#: Its point queries alone, in the same proportion: ``small-frames``'
#: reader (heavy hitters are checked after the stream drains).
CLOSED_READ_MIX = (("EST", 0.7 / 0.9), ("BOUNDS", 0.2 / 0.9))
#: Updates/s of ``bulk-replicated``'s paced writer: 48.8 frames of 8192
#: a second, about a third of what the leader and its replica apply
#: flat out on two CPUs, so the host keeps headroom for steal and for
#: the generator, and 1953 acknowledgements fall in a 40 s window.
BULK_WRITE_RATE = 400_000.0
#: ``bulk-replicated``'s reads: point queries in the same 7:2 proportion
#: plus one ``HH`` a second, so the engine's heavy-hitter query is traced.
BULK_READ_MIX = (("EST", 0.77), ("BOUNDS", 0.22), ("HH", 0.01))
#: Queries/s of the paced reader of the closed and paced loops: the
#: lowest round rate at which a window of 20 s or more holds 2000 reads,
#: so that half of its sub-windows still carry a p99 (902 samples put
#: ten beyond it).
PACED_READ_RATE = 100.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server topology.

    ``topology`` is ``replicated`` (a durable leader plus one
    ``--follow`` replica), ``single`` (one node, no data dir),
    ``durable`` (one node with ``--data-dir``) or ``cluster``
    (``--workers 2``, no data dir).  A closed loop sends the next frame
    when the previous one is acknowledged; an open loop sends frames
    on a fixed schedule of ``write_rate`` updates/s and times each from
    when it was due; a paced loop keeps the same schedule with one frame
    in flight and times each from its send.  Every workload also reads
    ``read_mix`` during the timed window, on a fixed schedule of
    ``read_rate`` queries/s with one query in flight.  An open loop
    times each query from when it was due; the other loops' readers are
    paced, so a stall behind a long apply or a checkpoint is charged
    once, not to every request queued behind it.
    """

    name: str
    why: str
    topology: str
    loop: str
    stream: str
    frame_updates: int
    client: str
    write_rate: float = 0.0
    read_rate: float = 0.0
    read_mix: tuple[tuple[str, float], ...] = ()
    tenants: int = 0
    tenant_alpha: float = 0.0
    dominant_prediction: tuple[str, ...] = ()

    @property
    def scheduled(self) -> bool:
        """Whether the writer follows a fixed schedule (open or paced)."""
        return self.loop in ("open", "paced")

    @property
    def from_send(self) -> bool:
        """Whether requests are timed from their send, not their due time."""
        return self.loop != "open"


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="bulk-replicated",
            why=(
                "8192-update BINS frames at 400k/s to a durable leader with "
                "one replica: kernel, WAL and replication do most of the work"
            ),
            topology="replicated",
            loop="paced",
            stream="zipf",
            frame_updates=8192,
            client="reconnecting",
            write_rate=BULK_WRITE_RATE,
            read_rate=PACED_READ_RATE,
            read_mix=BULK_READ_MIX,
            dominant_prediction=("engine", "snapshot", "replication"),
        ),
        # Not gated by BENCHMARK.json: between two sets of ten runs of
        # identical code its medians moved by more than the bounds, twice,
        # as the host's speed drifted.  It stays runnable for its traced
        # per-frame breakdown.
        Workload(
            name="small-frames",
            why=(
                "64-update BIN frames to one node: per-frame decode, "
                "dispatch and pipeline queueing dominate"
            ),
            topology="single",
            loop="closed",
            stream="zipf",
            frame_updates=64,
            client="plain",
            read_rate=PACED_READ_RATE,
            read_mix=CLOSED_READ_MIX,
            dominant_prediction=("server", "protocol", "pipeline"),
        ),
        Workload(
            name="read-mix",
            why=(
                "packet-trace writes at 300k/s plus 400 reads/s on a "
                "durable node: reads wait behind micro-batch applies"
            ),
            topology="durable",
            loop="open",
            stream="packet",
            frame_updates=1024,
            client="plain",
            write_rate=300_000.0,
            read_rate=400.0,
            read_mix=POINT_READ_MIX,
        ),
        Workload(
            name="tenant-cluster",
            why=(
                "TBIN writes at 150k/s to 8 Zipf-popular tenants on 2 "
                "workers: the only path through routing, rings, workers"
            ),
            topology="cluster",
            loop="open",
            stream="zipf",
            frame_updates=1024,
            client="cluster",
            # Half the single-node rate: two polling workers, the
            # acceptor and the generator share the host's two CPUs, and
            # at 300k/s host steal pushed the point-read tail past 60 ms.
            write_rate=150_000.0,
            # Point reads at 108/s give a p99 on each half of a 20 s
            # window; heavy hitters stay at the 5/s of a 50/s 90:10 mix,
            # since each THH merge holds the acceptor's event loop.
            read_rate=113.0,
            read_mix=(("TEST", 108 / 113), ("THH", 5 / 113)),
            tenants=8,
            tenant_alpha=1.3,
        ),
    )
}


def tenant_names(workload: Workload) -> list[str]:
    """The tenants a cluster workload creates, in popularity order."""
    return [f"tenant{index}" for index in range(workload.tenants)]
