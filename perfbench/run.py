"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, untraced

Run from the root of a checkout.  Prints every metric by name with its
unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The full run
record, with provenance and teardown survivors, is written under
``.bench_build/perfbench/``.  Exits 1 when any answer was wrong or any
request failed, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _interrupt(signum, frame):
    # Unwinds like Ctrl-C, so every started server is stopped and reaped.
    raise KeyboardInterrupt


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _interrupt)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "service", "__main__.py")):
        print(f"error: no service source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import provenance
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    # Build before anything imports repro, so every process of the run
    # loads the freshly built kernels.
    build = provenance.build_native(ROOT)
    from perfbench.bench import END_TO_END, run_workload
    from perfbench.layers import PER_LAYER

    units = dict(PER_LAYER if args.trace else END_TO_END)
    correct = True
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), ROOT)
        record_ok = record["failed"] == 0
        correct = correct and record_ok
        attempted += record["attempted"]
        failed += record["failed"]
        print(f"== {name} (seed {args.seed}, {args.seconds:g}s, trace {args.trace}): "
              f"{'correct' if record_ok else 'INCORRECT'}, "
              f"{record['failed']}/{record['attempted']} failed, "
              f"teardown survivors {record['teardown.survivors']}, "
              f"native build {build.get('reason', build.get('built'))}")
        for phase in record["phases"].values():
            for message in phase["failures"]:
                print(f"   failure: {message}")
        windows = record["windows"]
        print(f"   host steal over the window: {record['phases']['untraced']['steal_frac']:.1%}; "
              f"timings over the {windows['set']} window: {len(windows['chosen'])} of "
              f"{len(windows['steal'])} sub-windows, {windows['ack_samples']} acks, "
              f"{windows['read_samples']} reads")
        if "layer_shares" in record:
            shares = record["layer_shares"]
            print(f"   dominant layer by busy self time: {shares['dominant']}", end="")
            if "predicted" in shares:
                print(f"; predicted {'+'.join(shares['predicted'])} hold "
                      f"{shares['predicted_share']:.0%}", end="")
            print()
        for metric, value in record["metrics"].items():
            print(f"   {metric:40s} {value:14.6g} {units[metric]}")
        print(f"   record: {record['record_path']}")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in record["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
