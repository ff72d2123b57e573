"""Run one workload: set-ups, the measured phase, checks, the run record.

An untraced run (``--trace 0``) reports the end-to-end metrics.  A
traced run (``--trace 1``) runs the same workload twice in one
invocation — untraced, then through the traced launcher — and reports
the per-layer metrics, with ``trace.overhead_frac`` comparing the two.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import resource
import signal
import statistics
import time

from repro import native

from perfbench import procs, provenance, topology
from perfbench.phase import Phase, PhaseResult, trace_client_encoding
from perfbench.inputs import build_frames
from perfbench.layers import LAYERS, per_layer_metrics
from perfbench.spans import SpanRecorder
from perfbench.stats import calm_windows, min_samples_for, percentile, tail_percentile
from perfbench.workloads import WORKLOADS, Workload

#: Topologies started and stopped before the measured phase, and again
#: after it; ``setup_s`` is the median of their set-ups and the
#: measured phase's own, so it samples the host across the whole run.
#: A traced run, which reports no ``setup_s``, starts none of them.
SETUPS_AROUND = 3
#: Host steal share of a sub-window above which its timings are left
#: out of the end-to-end metrics, as long as the sub-windows kept still
#: hold enough samples for both p99s.
STEAL_LIMIT = 0.01
#: Generator CPU share above which the generator, not the service, may
#: have set the pace.
BOTTLENECK_CPU_FRAC = 0.9
#: Open-loop p99 lateness above which the schedule was not kept.
LATE_FLAG_MS = 2.0
#: Seconds to wait for a traced server to write its spans.
DUMP_TIMEOUT = 30.0

END_TO_END = (
    ("setup_s", "s"),
    ("ingest_ups", "1/s"),
    ("ack_ms_p50", "ms"),
    ("ack_ms_p99", "ms"),
    ("read_ms_p50", "ms"),
    ("read_ms_p99", "ms"),
    ("cpu_us_per_update", "us"),
    ("rss_mb", "MiB"),
    ("ok_frac", "ratio"),
)


def _in_windows(samples, edges: list[float], windows: list[int]) -> list[float]:
    """Latencies of the requests that completed in the given sub-windows."""
    chosen = set(windows)
    return [
        latency for latency, done in zip(samples.latency, samples.done)
        if bisect.bisect_right(edges, done) - 1 in chosen
    ]


def window_metrics(result: PhaseResult, windows: list[int]) -> dict:
    """Rates and timings over the given sub-windows of the timed window.

    A request counts in the sub-window it completed in.
    """
    marks = result.marks
    edges = [mark.time for mark in marks]

    def delta(field: str) -> float:
        return sum(getattr(marks[i + 1], field) - getattr(marks[i], field) for i in windows)

    ack = _in_windows(result.ack, edges, windows)
    reads = _in_windows(result.reads, edges, windows)
    return {
        "ingest_ups": delta("updates") / delta("time"),
        "ack_ms_p50": percentile(ack, 50) * 1e3,
        "ack_ms_p99": tail_percentile(ack, 99) * 1e3,
        "read_ms_p50": percentile(reads, 50) * 1e3,
        "read_ms_p99": tail_percentile(reads, 99) * 1e3,
        "cpu_us_per_update": delta("server_cpu_s") / delta("updates") * 1e6,
    }


def choose_windows(result: PhaseResult, steal: list[float]) -> tuple[str, list[int]]:
    """The one set of sub-windows every timing of a run is taken over.

    That is :func:`perfbench.stats.calm_windows`, kept large enough that
    its acknowledgements and its point reads each carry a p99.  Every
    metric of the run uses it alike, so one run never mixes populations;
    it is labelled ``whole`` when it is every sub-window.
    """
    edges = [mark.time for mark in result.marks]
    counts = []
    for samples in (result.ack, result.reads):
        pool = [0] * len(steal)
        for done in samples.done:
            index = bisect.bisect_right(edges, done) - 1
            if 0 <= index < len(steal):
                pool[index] += 1
        counts.append(pool)
    chosen = calm_windows(steal, STEAL_LIMIT, counts, min_samples_for(99))
    return ("whole" if len(chosen) == len(steal) else "calm"), chosen


def end_to_end_metrics(result: PhaseResult, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and which sub-windows their timings used.

    Rates, latencies and CPU per update are taken over the sub-windows
    :func:`choose_windows` picks; the record keeps the whole window's
    figures beside them.
    """
    steal = [
        (b.steal - a.steal) / max(1, b.jiffies - a.jiffies)
        for a, b in zip(result.marks, result.marks[1:])
    ]
    label, chosen = choose_windows(result, steal)
    edges = [mark.time for mark in result.marks]
    tally = result.tally
    metrics = {
        "setup_s": statistics.median(setup_times),
        **window_metrics(result, chosen),
        "rss_mb": result.rss_mib,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    metrics = {name: metrics[name] for name, _unit in END_TO_END}
    windows = {
        "steal": steal,
        "set": label,
        "chosen": chosen,
        "ack_samples": len(_in_windows(result.ack, edges, chosen)),
        "read_samples": len(_in_windows(result.reads, edges, chosen)),
        "whole_window": window_metrics(result, list(range(len(steal)))),
    }
    return metrics, windows


def layer_shares(metrics: dict, workload: Workload) -> dict:
    """The dominant layer by busy self time, against the prediction.

    The prediction holds when the predicted layers together hold more
    than half of the primary server's busy self time.
    """
    shares = {layer: metrics[f"layer.{layer}.self_frac"] for layer in LAYERS}
    predicted = workload.dominant_prediction
    doc = {"dominant": max(shares, key=shares.get), "shares": shares}
    if predicted:
        held = sum(shares[layer] for layer in predicted)
        doc.update(predicted=list(predicted), predicted_share=held, prediction_holds=held > 0.5)
    return doc


def phase_record(result: PhaseResult) -> dict:
    late = result.ack.late + result.reads.late + result.heavy.late
    late_p99_ms = percentile(late, 99) * 1e3 if late else 0.0
    return {
        "window_s": result.window_s,
        "updates": result.updates,
        "frames": result.frames,
        "ack_samples": len(result.ack.latency),
        "read_samples": len(result.reads.latency),
        "heavy_read_samples": len(result.heavy.latency),
        "heavy_read_ms_p50": percentile(result.heavy.latency, 50) * 1e3 if result.heavy.latency else None,
        "heavy_read_ms_max": max(result.heavy.latency) * 1e3 if result.heavy.latency else None,
        "server_cpu_s": result.server_cpu_s,
        "follower_cpu_s": result.follower_cpu_s,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "failures": result.tally.messages,
        "loadgen": {
            "cpu_frac": result.loadgen_cpu_frac,
            "late_ms_p99": late_p99_ms,
            "bottleneck": result.loadgen_cpu_frac > BOTTLENECK_CPU_FRAC,
            "late": late_p99_ms > LATE_FLAG_MS,
        },
        "steal_frac": result.steal_frac,
        "server_stats": result.stats,
    }


async def _collect_dumps(topo: topology.Topology) -> list[dict]:
    """Ask each traced server for its spans; wait until all are written."""
    for path in topo.spans_paths:
        if os.path.exists(path):
            os.remove(path)
    for server in topo.servers:
        os.kill(server.pid, signal.SIGUSR1)
    deadline = time.monotonic() + DUMP_TIMEOUT
    while not all(os.path.exists(p) for p in topo.spans_paths):
        if time.monotonic() > deadline:
            raise RuntimeError("traced servers did not write their spans")
        await asyncio.sleep(0.01)
    dumps = []
    for path in topo.spans_paths:
        with open(path) as fh:
            dumps.append(json.load(fh))
        os.remove(path)
    return dumps


async def _run(workload: Workload, seed: int, seconds: float, trace: bool,
               root: str, run_dir: str) -> dict:
    frames = build_frames(workload, seed, seconds)
    record: dict = {"teardowns": [], "phases": {}}
    setup_times = []
    loadavg = os.getloadavg()

    async def set_up_and_stop(label: str) -> None:
        for index in range(0 if trace else SETUPS_AROUND):
            topo = await topology.start(workload, root, run_dir, f"{label}{index}")
            setup_times.append(topo.setup_s)
            record["teardowns"] += [t.as_dict() for t in topo.stop()]

    await set_up_and_stop("before")
    topo = await topology.start(workload, root, run_dir, "run")
    setup_times.append(topo.setup_s)
    record["affinity"] = {
        "generator": procs.affinity(os.getpid()),
        **{server.name: procs.affinity(server.pid) for server in topo.servers},
    }
    try:
        result = await Phase(workload, frames, topo, seconds).run()
    finally:
        record["teardowns"] += [t.as_dict() for t in topo.stop()]
    await set_up_and_stop("after")
    results = [result]
    record["phases"]["untraced"] = phase_record(result)
    record["setup_times_s"] = setup_times
    record["loadavg_start"] = loadavg
    metrics, record["windows"] = end_to_end_metrics(result, setup_times)
    record["end_to_end"] = metrics
    if trace:
        topo = await topology.start(workload, root, run_dir, "traced", traced=True)
        recorder = SpanRecorder()
        undo = trace_client_encoding(recorder)
        try:
            traced = await Phase(
                workload, frames, topo, seconds,
                measure_idle=workload.topology == "cluster",
            ).run()
            dumps = await _collect_dumps(topo)
        finally:
            undo()
            record["teardowns"] += [t.as_dict() for t in topo.stop()]
        results.append(traced)
        record["phases"]["traced"] = phase_record(traced)
        metrics = per_layer_metrics(dumps[0], result, traced, recorder.export())
        record["per_layer"] = metrics
        record["layer_shares"] = layer_shares(metrics, workload)
    record["teardown.survivors"] = sum(t["survivors"] for t in record["teardowns"])
    record["attempted"] = sum(r.tally.attempted for r in results)
    record["failed"] = sum(r.tally.failed for r in results)
    record["metrics"] = metrics
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Measure one workload; returns the full run record."""
    workload = WORKLOADS[name]
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_dir = os.path.join(
        root, provenance.BUILD_DIR, "perfbench", f"{name}-s{seed}-{stamp}-{os.getpid()}"
    )
    os.makedirs(run_dir)
    procs.become_subreaper()
    started = time.perf_counter()
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_utc": stamp,
        "git": provenance.git_state(root),
        "source_sha256": provenance.source_digest(root),
        "host": provenance.host_fingerprint(),
        "native": native.runtime_metadata(),
    }
    record.update(asyncio.run(_run(workload, seed, seconds, trace, root, run_dir)))
    record["elapsed_s"] = time.perf_counter() - started
    record["loadgen_peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    record["record_path"] = os.path.join(run_dir, "record.json")
    return record
