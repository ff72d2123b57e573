"""Traced server: the service stack with span recorders on each layer.

Run as ``python perfbench/launcher.py --spans-out FILE -- <service
flags>``.  Flags are parsed by the service's own parser, so defaults are
the shipped ones, and the stack is composed from the same public
constructors ``python -m repro.service`` uses: ``FrequentItemsSketch``,
``SnapshotManager``, ``ReplicationManager``, ``IngestPipeline``,
``StreamServer``, ``FollowerService`` and ``WorkerPool``.  Before any
of them is built, each layer's entry points are wrapped with span
recorders (see :func:`instrument`).

On ``SIGUSR1`` the process writes its spans and its layers' counters to
``FILE`` (atomically); ``SIGTERM`` keeps the service's default
behaviour, so the traced process stops exactly like the untraced one.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import signal
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.frequent_items import FrequentItemsSketch  # noqa: E402
from repro.engine.query import QueryEngine  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.service.__main__ import build_parser, check_args  # noqa: E402
from repro.service.cluster import ClusterConfig, ClusterServer, WorkerPool  # noqa: E402
from repro.service.pipeline import IngestPipeline, PipelineConfig  # noqa: E402
from repro.service.replication import FollowerService, ReplicationManager  # noqa: E402
from repro.service.server import StreamServer  # noqa: E402
from repro.service.snapshot import SnapshotManager  # noqa: E402

from perfbench.spans import SpanRecorder  # noqa: E402

#: Spans a payload read is attributed to (socket wait inside dispatch).
_DISPATCH = frozenset({"server.dispatch"})


def instrument(recorder: SpanRecorder, lag_samples: list[int]) -> None:
    """Wrap every layer entry point the per-layer metrics are built from."""
    patch = recorder.patch
    patch(FrequentItemsSketch, "update_batch", "engine.update_batch",
          count=lambda self, items, *a, **k: len(items))
    for method in ("estimate", "lower_bound", "upper_bound"):
        patch(QueryEngine, method, "engine.est")
    patch(QueryEngine, "heavy_hitters", "engine.hh")
    patch(protocol, "decode_bin_payload", "protocol.decode",
          count=lambda payload, count: count)
    patch(StreamServer, "_dispatch", "server.dispatch")
    patch(ClusterServer, "_dispatch", "server.dispatch")
    patch(asyncio.StreamReader, "readexactly", "server.read_payload",
          only_under=_DISPATCH)
    patch(IngestPipeline, "submit", "pipeline.submit")
    patch(IngestPipeline, "_apply", "pipeline.apply",
          count=lambda self, parts, total, size_flush: total)
    patch(IngestPipeline, "apply_replica_frame", "pipeline.apply",
          count=lambda self, seq, items, *a, **k: len(items))
    patch(SnapshotManager, "append_wal", "snapshot.wal_append",
          count=lambda self, seq, items, weights: len(items))
    patch(SnapshotManager, "write_snapshot", "snapshot.checkpoint")
    patch(WorkerPool, "submit", "cluster.submit",
          count=lambda self, tenant, items, *a, **k: len(items))
    for method in ("estimate", "bounds", "heavy_hitters"):
        patch(WorkerPool, method, "cluster.query")

    publish = recorder.wrap(ReplicationManager.publish, "replication.publish",
                            count=lambda self, seq, items, *a, **k: len(items))

    def publish_and_sample_lag(self, seq, *args, **kwargs):
        publish(self, seq, *args, **kwargs)
        acked = self.min_acked_seq()
        if acked is not None:
            lag_samples.append(seq - acked)

    ReplicationManager.publish = publish_and_sample_lag


class _State:
    """What the dump needs to reach: the composed stack's objects."""

    pipeline = None
    pool = None


async def _dump(path: str, recorder: SpanRecorder, lag: list[int], state: _State) -> None:
    doc = {
        "pid": os.getpid(),
        "spans": recorder.export(),
        "lag_samples": lag,
    }
    if state.pipeline is not None:
        pipeline = state.pipeline
        doc["pipeline_stats"] = pipeline.stats.as_dict()
        doc["op_stats"] = dataclasses.asdict(pipeline.sketch.stats)
        if pipeline.replication is not None:
            doc["replication"] = pipeline.replication.status()
    if state.pool is not None:
        pool = state.pool
        doc["pool_stats"] = pool.stats()
        doc["tenant_stats"] = {
            spec.name: await pool.tenant_stats(spec.name)
            for spec in pool.list_tenants()
        }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


async def serve(args, spans_out: str) -> None:
    recorder = SpanRecorder()
    lag: list[int] = []
    instrument(recorder, lag)
    state = _State()
    loop = asyncio.get_running_loop()
    dumps: set = set()

    def on_usr1() -> None:
        task = loop.create_task(_dump(spans_out, recorder, lag, state))
        dumps.add(task)
        task.add_done_callback(dumps.discard)

    loop.add_signal_handler(signal.SIGUSR1, on_usr1)
    if args.workers is not None:
        config = ClusterConfig(
            num_workers=args.workers,
            data_dir=args.data_dir,
            frame_transport=args.frame_transport,
            snapshot_every_batches=args.snapshot_every,
            default_k=args.k,
            default_backend=args.backend,
            default_seed=args.seed,
            default_shards=args.shards,
        )
        async with WorkerPool(config) as pool:
            async with ClusterServer(pool, host=args.host, port=args.port) as server:
                state.pool = pool
                await _serve_forever(f"traced tenant cluster on {args.host}:{server.port}")
        return
    config = PipelineConfig(
        max_batch_items=args.max_batch,
        flush_interval=args.flush_interval,
        snapshot_every_batches=args.snapshot_every,
    )
    snapshots = SnapshotManager(args.data_dir) if args.data_dir is not None else None
    sketch = FrequentItemsSketch(args.k, backend=args.backend, seed=args.seed)
    pipeline = IngestPipeline(
        sketch, config=config, snapshots=snapshots,
        replication=ReplicationManager(), replica=args.follow is not None,
    )
    follower = None
    if args.follow is not None:
        follower = FollowerService(pipeline, *args.follow)
    async with pipeline:
        async with StreamServer(
            pipeline, host=args.host, port=args.port, follower=follower
        ) as server:
            if follower is not None:
                await follower.start()
            state.pipeline = pipeline
            try:
                await _serve_forever(f"traced {pipeline.role} on {args.host}:{server.port}")
            finally:
                if follower is not None:
                    await follower.stop()


async def _serve_forever(banner: str) -> None:
    print(f"serving {banner}", flush=True)
    with contextlib.suppress(asyncio.CancelledError):
        await asyncio.Event().wait()


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print("usage: launcher.py --spans-out FILE -- <service flags>", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv[3:])
    check_args(args)
    if args.peers is not None or args.shards or args.promote:
        print("launcher: --peers/--shards/--promote are not traced", file=sys.stderr)
        return 2
    asyncio.run(serve(args, argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
