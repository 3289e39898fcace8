"""Cold start of an in-process workload, for the set-up time.

    python3 bench/cold_start.py WORKLOAD SEED

Imports ghzsim from the checkout's ``src/``, makes the round of inputs and
runs its first op.  Prints the seconds spent making inputs, which are
benchmark work and which the parent subtracts from the wall time it
measures around this process.
"""

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import ghzsim  # noqa: E402,F401  (imported first: the import is part of set-up)

t0 = time.perf_counter()
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
first = workload.make_round(int(sys.argv[2]))[0]
generation = time.perf_counter() - t0
workload.op(first)
print(generation)
