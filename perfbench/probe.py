"""Set-up probe, run in a fresh interpreter by run.py.

Prints the seconds from before the workload's program modules are imported
to the end of its first (warm-up) op: imports, import-time tables and any
lazy one-off work the first op triggers.

    python3 perfbench/probe.py <workload>
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (benchmark code only; program modules load below)

workload = workloads.WORKLOADS[sys.argv[1]]()
start = perf_counter()
workload.load()
workload.warmup()
print(perf_counter() - start)
