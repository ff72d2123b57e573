"""Out-of-process benchmark of the streaming frequent-items service.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
builds the native kernels in place, starts ``python -m repro.service``
with its shipped defaults as separate processes, drives them from one
asyncio load generator, checks every answer against an exact oracle,
and prints one JSON result line.  See ``perfbench/README.md``.
"""
