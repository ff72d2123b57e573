"""One measured phase: drive a running topology, then check its answers.

The generator is one asyncio loop in this process using the public
clients: ``ReconnectingServiceClient`` (BINS), ``ServiceClient`` (BIN)
or ``ClusterClient`` (TBIN).  The timed window runs with the cyclic GC
off.  After the window the stream drains, and every answer — the
reader's mid-run answers and the final verification queries — is
checked against the exact oracle (:mod:`perfbench.check`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.bench.harness import gc_isolated
from repro.errors import ReproError
from repro.service import protocol
from repro.service.client import (
    ClusterClient,
    ReconnectingServiceClient,
    ServiceClient,
    ServiceError,
)

from perfbench import check, procs
from perfbench.inputs import Frames, PrefixOracle
from perfbench.loadgen import LoopSamples, closed_loop, open_loop
from perfbench.spans import SpanRecorder
from perfbench.stats import min_samples_for
from perfbench.topology import HOST, Topology
from perfbench.workloads import HH_PHI, Workload, tenant_names

#: Queries that return a heavy-hitter list.  They run on a connection
#: of their own: a 15-25 ms ``THH`` merge holding the point reads queued
#: behind it would make the point-read p99 follow its tail.
HEAVY_READS = frozenset({"HH", "THH"})
#: Equal sub-windows the timed window is marked into.
WINDOWS = 20
#: A closed loop short of samples for its p99 writes on past the window,
#: up to this many times the window's length.
CLOSED_CAP = 3
#: A request still unanswered after this long counts as failed.
REQUEST_TIMEOUT = 10.0
#: Probe items per tenant in the cluster's final verification.
CLUSTER_PROBES = 64
#: Violation messages kept for the run record (all are counted).
KEEP_MESSAGES = 20
_TRANSPORT_ERRORS = (
    ConnectionError, OSError, asyncio.IncompleteReadError, TimeoutError, EOFError,
)


@dataclass
class Tally:
    """Requests attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            if len(self.messages) < KEEP_MESSAGES:
                self.messages.append(problem)

    def judge(self, problems: list[str]) -> None:
        """Count one checked answer, failed if it has any problem."""
        if problems:
            self.fail(problems)


class Connection:
    """One client connection whose requests are counted and bounded.

    A transport error or timeout fails the request and reopens the
    connection, so one broken socket cannot stall the rest of the run.
    """

    def __init__(self, kind: str, port: int, tally: Tally) -> None:
        self.kind = kind
        self.port = port
        self.tally = tally
        self.client = None

    async def open(self) -> "Connection":
        if self.kind == "reconnecting":
            self.client = ReconnectingServiceClient(HOST, self.port)
        elif self.kind == "cluster":
            self.client = await ClusterClient.connect(HOST, self.port)
        else:
            self.client = await ServiceClient.connect(HOST, self.port)
        return self

    async def close(self) -> None:
        if self.client is not None:
            try:
                await self.client.close()
            except (*_TRANSPORT_ERRORS, ReproError, ServiceError):
                pass
            self.client = None

    async def call(self, method: str, *args):
        """``client.method(*args)``; ``None`` when the request failed."""
        self.tally.attempted += 1
        try:
            async with asyncio.timeout(REQUEST_TIMEOUT):
                if self.client is None:  # an earlier reopen failed
                    await self.open()
                return await getattr(self.client, method)(*args)
        except (ServiceError, ReproError, ValueError) as exc:
            self.tally.fail([f"{method}: {type(exc).__name__}: {exc}"])
        except _TRANSPORT_ERRORS as exc:
            self.tally.fail([f"{method}: {type(exc).__name__}: {exc}"])
            await self.close()
            try:
                await self.open()
            except _TRANSPORT_ERRORS:
                pass
        return None


class Mark(NamedTuple):
    """Counters read at one sub-window boundary of the timed window.

    ``server_cpu_s`` covers every process of every server;
    ``primary_cpu_s`` the primary server's own process only.
    """

    time: float
    server_cpu_s: float
    updates: int
    steal: int
    jiffies: int
    primary_cpu_s: float


@dataclass
class PhaseResult:
    """Everything one phase measured."""

    ingest_ups: float
    window_s: float
    updates: int
    frames: int
    ack: LoopSamples
    reads: LoopSamples
    heavy: LoopSamples
    marks: list[Mark]
    server_cpu_s: float
    follower_cpu_s: float
    rss_mib: float
    loadgen_cpu_frac: float
    steal_frac: float
    tally: Tally
    stats: dict
    idle_worker_cpu_frac: Optional[float] = None


def _worker_pids(topology: Topology) -> list[int]:
    acceptor = topology.primary.pid
    return [
        pid for pid in topology.primary.members()
        if pid != acceptor and "resource_tracker" not in procs.cmdline(pid)
    ]


class Phase:
    """Drive one workload against one running topology."""

    def __init__(
        self, workload: Workload, frames: Frames, topology: Topology,
        seconds: float, *, measure_idle: bool = False,
    ) -> None:
        self.workload = workload
        self.frames = frames
        self.topology = topology
        self.seconds = seconds
        self.measure_idle = measure_idle
        self.tally = Tally()
        self.tenants = tenant_names(workload)
        self.frames_started = 0
        self.frames_acked = 0
        self.updates_acked = 0
        self.midrun: list[tuple] = []

    # -- ingest -----------------------------------------------------------------

    async def _send(self, conn: Connection, index: int) -> None:
        items, weights = self.frames.frame(index)
        self.frames_started = index + 1
        if self.workload.client == "cluster":
            tenant = self.tenants[int(self.frames.tenant_of[index % len(self.frames)])]
            acked = await conn.call("tsend_batch", tenant, items, weights)
        else:
            acked = await conn.call("send_batch", items, weights)
        if acked is not None:
            self.frames_acked += 1
            self.updates_acked += acked

    async def _applied_updates(self, ctl: Connection) -> int:
        """Updates applied on the primary (frames x size on a cluster)."""
        stats = await ctl.call("stats")
        if stats is None:
            return 0
        if self.workload.topology == "cluster":
            frames = sum(w["applied_seq"] for w in stats["workers"])
            return frames * self.frames.frame_updates
        return int(stats["applied_items"])

    async def _drain(self, ctl: Connection, follower: Optional[Connection]) -> None:
        """Until every acknowledged update is applied on every replica."""
        if self.workload.topology == "cluster":
            total = await ctl.call("drain")
            self.tally.judge(
                [] if total == self.frames_acked
                else [f"DRAIN watermark {total} != {self.frames_acked} frames acked"]
            )
            return
        deadline = time.monotonic() + REQUEST_TIMEOUT
        while time.monotonic() < deadline:
            leader = await ctl.call("stats")
            done = leader is not None and leader["applied_items"] >= self.updates_acked
            if done and follower is not None:
                mirror = await follower.call("stats")
                done = mirror is not None and mirror["applied_seq"] == leader["applied_seq"]
            if done:
                return
            await asyncio.sleep(0.001)
        self.tally.fail(["stream did not drain on every replica in time"])

    # -- reads ------------------------------------------------------------------

    async def _read(self, conn: Connection, plan_entry) -> tuple:
        kind, tenant, item = plan_entry
        name = self.tenants[tenant] if self.tenants else None
        if kind == "EST":
            answer = await conn.call("estimate", item)
        elif kind == "BOUNDS":
            answer = await conn.call("bounds", item)
        elif kind == "HH":
            answer = await conn.call("heavy_hitters", HH_PHI)
        elif kind == "TEST":
            answer = await conn.call("testimate", name, item)
        elif kind == "THH":
            answer = await conn.call("thh", name, HH_PHI)
        else:
            raise ValueError(f"unknown read kind {kind!r}")
        return kind, tenant, item, answer

    def _check_midrun(self, prefix: PrefixOracle) -> None:
        for kind, tenant, item, answer, sent in self.midrun:
            if answer is None:
                continue  # already counted as failed
            appeared = lambda x: prefix.appeared(tenant, x, sent)  # noqa: E731
            if kind in ("EST", "TEST"):
                problems = check.midrun_tracked_violations([item] if answer > 0 else [], appeared)
            elif kind == "BOUNDS":
                problems = check.midrun_lower_violations(
                    item, answer[0], prefix.weight(tenant, item, sent)
                )
            else:
                rows = answer[1] if kind == "THH" else answer
                problems = check.midrun_tracked_violations([x for x, _e in rows], appeared)
            self.tally.judge(problems)

    # -- the phase --------------------------------------------------------------

    async def run(self) -> PhaseResult:
        topology = self.topology
        kind = self.workload.client
        ctl_kind = "cluster" if kind == "cluster" else "plain"
        ctl = await Connection(ctl_kind, topology.primary.port, self.tally).open()
        follower = None
        if topology.follower is not None:
            follower = await Connection("plain", topology.follower.port, self.tally).open()
        writer = await Connection(kind, topology.primary.port, self.tally).open()
        reader = await Connection(ctl_kind, topology.primary.port, self.tally).open()
        heavy_reader = None
        if any(entry[0] in HEAVY_READS for entry in self.frames.read_plan):
            heavy_reader = await Connection(ctl_kind, topology.primary.port, self.tally).open()
        try:
            idle = await self._idle_worker_cpu() if self.measure_idle else None
            window = await self._window(ctl, follower, writer, reader, heavy_reader)
            await self._drain(ctl, follower)
            self._check_midrun(PrefixOracle(self.frames))
            stats = await self._verify(ctl, follower)
            rss = procs.peak_rss_mib(topology.pids())
        finally:
            for conn in (writer, reader, heavy_reader, ctl, follower):
                if conn is not None:
                    await conn.close()
        return PhaseResult(
            rss_mib=rss, tally=self.tally, stats=stats,
            idle_worker_cpu_frac=idle, **window,
        )

    async def _idle_worker_cpu(self, seconds: float = 1.0) -> float:
        """Mean CPU share of one cluster worker while nothing is sent."""
        workers = _worker_pids(self.topology)
        before = procs.cpu_seconds(workers)
        await asyncio.sleep(seconds)
        return (procs.cpu_seconds(workers) - before) / seconds / max(1, len(workers))

    async def _mark(self, ctl: Connection) -> Mark:
        """Clock, server CPU, updates done and host jiffies, now.

        Updates done are those acknowledged in a closed loop, whose last
        mark waits until every one is applied, and those applied, by
        ``STATS``, in an open or paced loop, whose window closes on
        schedule.
        """
        done = (
            await self._applied_updates(ctl) if self.workload.scheduled
            else self.updates_acked
        )
        return Mark(
            time.perf_counter(), procs.cpu_seconds(self.topology.pids()), done,
            *procs.host_cpu_times(), procs.cpu_seconds([self.topology.primary.pid]),
        )

    def _follower_cpu(self) -> float:
        follower = self.topology.follower
        return procs.cpu_seconds(follower.members()) if follower else 0.0

    async def _window(self, ctl, follower, writer, reader, heavy_reader) -> dict:
        """The timed window, marked at :data:`WINDOWS` equal sub-windows.

        A closed loop writes until the window's end — longer if its
        acknowledgements are still too few for a p99 — and the window
        closes when every replica has applied the last update; an open
        or paced loop's window closes on schedule and its backlog drains
        afterwards.  Reads follow their schedule in all of them.
        """
        wl = self.workload
        ack, reads, heavy = LoopSamples(), LoopSamples(), LoopSamples()
        clock = time.perf_counter
        plan = self.frames.read_plan
        point_plan = [entry for entry in plan if entry[0] not in HEAVY_READS]
        heavy_plan = [entry for entry in plan if entry[0] in HEAVY_READS]

        def reads_of(conn: Connection, entries: list):
            async def read(index: int) -> None:
                kind, tenant, item, answer = await self._read(conn, entries[index % len(entries)])
                self.midrun.append((kind, tenant, item, answer, self.frames_started))
            return read

        def send(index: int):
            return self._send(writer, index)

        period = self.seconds / WINDOWS
        with gc_isolated():
            gen0 = time.process_time()
            fcpu0 = self._follower_cpu()
            marks = [await self._mark(ctl)]
            t0 = marks[0].time
            if wl.scheduled:
                writer_loop = open_loop(
                    self.frames.offered, wl.write_rate / wl.frame_updates, t0,
                    send, clock, samples=ack, from_send=wl.from_send,
                )
            else:
                writer_loop = closed_loop(
                    t0 + self.seconds, send, clock, ack,
                    min_count=min_samples_for(99), cap=t0 + CLOSED_CAP * self.seconds,
                )
            loops = [writer_loop] + [
                open_loop(
                    len(entries), wl.read_rate * len(entries) / len(plan), t0,
                    reads_of(conn, entries), clock, samples=samples,
                    from_send=wl.from_send,
                )
                for conn, entries, samples in (
                    (reader, point_plan, reads), (heavy_reader, heavy_plan, heavy)
                )
                if entries
            ]
            tasks = [asyncio.ensure_future(loop) for loop in loops]
            inner_marks = WINDOWS if wl.scheduled else WINDOWS - 1
            for index in range(1, inner_marks + 1):
                await asyncio.sleep(max(0.0, t0 + index * period - clock()))
                marks.append(await self._mark(ctl))
            if not wl.scheduled:
                await asyncio.gather(*tasks)
                await self._drain(ctl, follower)
                marks.append(await self._mark(ctl))
            fcpu1 = self._follower_cpu()
            gen1 = time.process_time()
            await asyncio.gather(*tasks)
        first, last = marks[0], marks[-1]
        window = last.time - first.time
        return dict(
            ingest_ups=(last.updates - first.updates) / window, window_s=window,
            updates=last.updates - first.updates, frames=self.frames_acked,
            ack=ack, reads=reads, heavy=heavy, marks=marks,
            server_cpu_s=last.server_cpu_s - first.server_cpu_s,
            follower_cpu_s=fcpu1 - fcpu0,
            loadgen_cpu_frac=(gen1 - gen0) / window,
            steal_frac=(last.steal - first.steal) / max(1, last.jiffies - first.jiffies),
        )

    async def _verify(self, ctl: Connection, follower: Optional[Connection]) -> dict:
        """Final answers of every replica against the exact oracle."""
        if self.workload.topology == "cluster":
            return await self._verify_cluster(ctl)
        oracle = self.frames.oracle(self.frames_acked)
        answers = await self._final_answers(ctl)
        stats = answers.pop("stats")
        if stats is None:
            return {}
        problems = []
        if stats["stream_weight"] != oracle.total_weight:
            problems.append(
                f"STATS stream_weight {stats['stream_weight']!r} != "
                f"oracle {oracle.total_weight!r}"
            )
        self.tally.judge(problems)
        for item in self.frames.probes.tolist():
            answer = answers.get(("BOUNDS", item))
            if answer is not None:
                self.tally.judge(
                    check.bounds_violations(item, *answer, oracle.frequency(item))
                )
        if answers.get("HH") is not None:
            self.tally.judge(
                check.hh_violations(answers["HH"], oracle, HH_PHI, stats["maximum_error"])
            )
        if follower is not None:
            mirror = await self._final_answers(follower)
            mirror_stats = mirror.pop("stats") or {}
            answers["state"] = {k: stats[k] for k in ("stream_weight", "maximum_error", "applied_seq")}
            mirror["state"] = {k: mirror_stats.get(k) for k in answers["state"]}
            self.tally.judge(check.replica_violations(answers, mirror))
        return stats

    async def _final_answers(self, conn: Connection) -> dict:
        answers: dict = {"stats": await conn.call("stats")}
        for item in self.frames.probes.tolist():
            answers[("BOUNDS", item)] = await conn.call("bounds", item)
        answers["HH"] = await conn.call("heavy_hitters", HH_PHI)
        return answers

    async def _verify_cluster(self, ctl: Connection) -> dict:
        probes = self.frames.probes.tolist()[:CLUSTER_PROBES]
        for index, name in enumerate(self.tenants):
            oracle = self.frames.oracle(self.frames_acked, index)
            for item in probes:
                answer = await ctl.call("tbounds", name, item)
                if answer is not None:
                    self.tally.judge(
                        check.bounds_violations(item, *answer, oracle.frequency(item))
                    )
            answer = await ctl.call("thh", name, HH_PHI)
            if answer is not None:
                self.tally.judge(check.hh_violations(answer[1], oracle, HH_PHI))
        stats = await ctl.call("stats")
        return stats or {}


def trace_client_encoding(recorder: SpanRecorder):
    """Record the client's frame encoding; returns an undo callable."""
    names = ("encode_bin_frame", "encode_bins_frame", "encode_tbin_frame")
    originals = {name: getattr(protocol, name) for name in names}
    for name in names:
        recorder.patch(protocol, name, "client.encode")

    def undo() -> None:
        for name, original in originals.items():
            setattr(protocol, name, original)

    return undo
