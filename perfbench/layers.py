"""Per-layer metrics from a traced phase.

Layers are named after the ``repro`` modules whose entry points the
launcher wraps.  Busy self time is summed per layer from the spans of
the primary server (the leader, the single node, or the cluster
acceptor) that began inside the phase's timed window, so set-up and
the post-drain verification queries are left out.  Two spans are
*waits*, not work, and are left out of the busy shares:
``pipeline.submit`` (queueing for room or for the apply) and
``server.read_payload`` (the socket read of a BIN payload).
``cluster.query`` is mostly waiting for a worker's reply and is
reported as a latency only.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.spans import self_times
from perfbench.stats import percentile

#: Span name -> layer whose busy time it is.
BUSY_LAYER = {
    "engine.update_batch": "engine",
    "engine.est": "engine",
    "engine.hh": "engine",
    "protocol.decode": "protocol",
    "server.dispatch": "server",
    "pipeline.apply": "pipeline",
    "snapshot.wal_append": "snapshot",
    "snapshot.checkpoint": "snapshot",
    "replication.publish": "replication",
    "cluster.submit": "cluster",
}
LAYERS = ("engine", "protocol", "server", "pipeline", "snapshot", "replication", "cluster")

#: Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("engine.ingest_us_per_update", "us"),
    ("engine.decrements_per_mupdate", "count"),
    ("engine.counters_scanned_per_update", "count"),
    ("engine.est_us", "us"),
    ("engine.hh_us", "us"),
    ("protocol.decode_us_per_frame", "us"),
    ("client.encode_us_per_frame", "us"),
    ("server.dispatch_self_us", "us"),
    ("pipeline.frames_per_microbatch", "count"),
    ("pipeline.time_flush_frac", "ratio"),
    ("pipeline.backpressure_waits", "count"),
    ("pipeline.apply_ms_p50", "ms"),
    ("pipeline.apply_ms_p99", "ms"),
    ("snapshot.wal_append_us_per_record", "us"),
    ("snapshot.wal_bytes_per_update", "B"),
    ("snapshot.checkpoint_ms", "ms"),
    ("replication.publish_us_per_frame", "us"),
    ("replication.lag_seq_p99", "count"),
    ("replication.follower_cpu_us_per_update", "us"),
    ("cluster.submit_us_per_frame", "us"),
    ("cluster.query_ms_p50", "ms"),
    ("cluster.worker_idle_cpu_frac", "ratio"),
    ("cluster.worker_update_skew", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.cpu_frac", "ratio"),
    ("host.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.cpu_overhead_frac", "ratio"),
    *((f"layer.{layer}.self_frac", "ratio") for layer in LAYERS),
    ("layer.untraced.cpu_frac", "ratio"),
)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _pct(values, q: float) -> float:
    values = list(values)
    return percentile(values, q) if values else 0.0


def span_table(spans: dict, window: tuple[float, float]) -> dict:
    """``{name: [(duration_s, self_s, count), ...]}`` of one export.

    Only spans that began inside ``window`` (``(first, last)`` on the
    monotonic clock every process shares) are kept; self time is
    computed before that cut, so a kept span's children count wherever
    they began.
    """
    first, last = window
    table: dict = defaultdict(list)
    selfs = self_times(spans)
    for name, start, end, own, count in zip(
        spans["names"], spans["starts"], spans["ends"], selfs, spans["counts"]
    ):
        if first <= start <= last:
            table[name].append((end - start, own, count))
    return table


def busy_shares(table: dict) -> dict:
    """Share of busy self time per layer (the shares sum to 1)."""
    busy = dict.fromkeys(LAYERS, 0.0)
    for name, rows in table.items():
        layer = BUSY_LAYER.get(name)
        if layer is not None:
            busy[layer] += sum(own for _d, own, _c in rows)
    total = sum(busy.values())
    return {layer: (value / total if total else 0.0) for layer, value in busy.items()}


def per_layer_metrics(
    primary: dict, untraced, traced, client_spans: dict,
) -> dict:
    """Every :data:`PER_LAYER` metric, 0.0 where a layer is off the path.

    ``primary`` is the primary server's dump; ``untraced``/``traced``
    are the two phases' :class:`~perfbench.phase.PhaseResult`.  Spans,
    of the server and of the client, count when they began inside the
    traced phase's timed window.
    """
    first, last = traced.marks[0], traced.marks[-1]
    window = (first.time, last.time)
    table = span_table(primary["spans"], window)
    client = span_table(client_spans, window).get("client.encode", ())

    def durations(name):
        return [d for d, _own, _c in table.get(name, ())]

    ingest = table.get("engine.update_batch", ())
    ingest_updates = sum(c for _d, _own, c in ingest)
    op = primary.get("op_stats") or {}
    updates = op.get("updates") or 0
    pipe = primary.get("pipeline_stats") or _summed(primary.get("tenant_stats"))
    applied_batches = pipe.get("applied_batches") or 0
    metrics = {
        "engine.ingest_us_per_update": (
            sum(own for _d, own, _c in ingest) / ingest_updates * 1e6
            if ingest_updates else 0.0
        ),
        "engine.decrements_per_mupdate": (
            op.get("decrements", 0) / updates * 1e6 if updates else 0.0
        ),
        "engine.counters_scanned_per_update": (
            op.get("counters_scanned", 0) / updates if updates else 0.0
        ),
        "engine.est_us": _mean(durations("engine.est")) * 1e6,
        "engine.hh_us": _mean(durations("engine.hh")) * 1e6,
        "protocol.decode_us_per_frame": _mean(durations("protocol.decode")) * 1e6,
        "client.encode_us_per_frame": _mean(d for d, _own, _c in client) * 1e6,
        "server.dispatch_self_us": _mean(
            own for _d, own, _c in table.get("server.dispatch", ())
        ) * 1e6,
        "pipeline.frames_per_microbatch": (
            pipe.get("submitted_batches", 0) / applied_batches if applied_batches else 0.0
        ),
        "pipeline.time_flush_frac": (
            pipe.get("time_flushes", 0) / applied_batches if applied_batches else 0.0
        ),
        "pipeline.backpressure_waits": float(pipe.get("backpressure_waits", 0)),
        "pipeline.apply_ms_p50": _pct(durations("pipeline.apply"), 50) * 1e3,
        "pipeline.apply_ms_p99": _pct(durations("pipeline.apply"), 99) * 1e3,
        "snapshot.wal_append_us_per_record": _mean(durations("snapshot.wal_append")) * 1e6,
        "snapshot.wal_bytes_per_update": (
            pipe.get("wal_bytes", 0) / pipe["applied_items"]
            if pipe.get("applied_items") else 0.0
        ),
        "snapshot.checkpoint_ms": _mean(durations("snapshot.checkpoint")) * 1e3,
        "replication.publish_us_per_frame": _mean(durations("replication.publish")) * 1e6,
        "replication.lag_seq_p99": _pct(primary.get("lag_samples", ()), 99),
        "replication.follower_cpu_us_per_update": (
            traced.follower_cpu_s / traced.updates * 1e6 if traced.updates else 0.0
        ),
        "cluster.submit_us_per_frame": _mean(durations("cluster.submit")) * 1e6,
        "cluster.query_ms_p50": _pct(durations("cluster.query"), 50) * 1e3,
        "cluster.worker_idle_cpu_frac": traced.idle_worker_cpu_frac or 0.0,
        "cluster.worker_update_skew": _worker_skew(primary.get("pool_stats")),
        "loadgen.late_ms_p99": _pct(
            untraced.ack.late + untraced.reads.late + untraced.heavy.late, 99
        ) * 1e3,
        "loadgen.cpu_frac": untraced.loadgen_cpu_frac,
        "host.steal_frac": untraced.steal_frac,
        "trace.overhead_frac": 1.0 - traced.ingest_ups / untraced.ingest_ups,
        "trace.cpu_overhead_frac": (
            (traced.server_cpu_s / traced.updates)
            / (untraced.server_cpu_s / untraced.updates) - 1.0
        ),
    }
    for layer, share in busy_shares(table).items():
        metrics[f"layer.{layer}.self_frac"] = share
    cpu = last.primary_cpu_s - first.primary_cpu_s
    busy = sum(
        own for name, rows in table.items() if name in BUSY_LAYER
        for _d, own, _c in rows
    )
    metrics["layer.untraced.cpu_frac"] = 1.0 - busy / cpu if cpu > 0 else 0.0
    return metrics


def _worker_skew(pool_stats) -> float:
    """Most-loaded worker's applied frames over the mean (1.0 = even)."""
    if not pool_stats:
        return 0.0
    applied = [w["applied_seq"] for w in pool_stats["workers"]]
    mean = statistics.fmean(applied) if applied else 0.0
    return max(applied) / mean if mean else 0.0


def _summed(tenant_stats) -> dict:
    """Worker pipelines' counters summed over every tenant substream."""
    total: dict = defaultdict(float)
    for substreams in (tenant_stats or {}).values():
        for stats in substreams.values():
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    total[key] += value
    return dict(total)
