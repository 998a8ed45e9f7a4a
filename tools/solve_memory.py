"""Traced memory peak and pinned per-iteration time of `solve`, per gauge
and grid size, for one or more checkouts.

    python3 tools/solve_memory.py [--tree PARENT] --tree CHANGE \\
        [--output rows.json]

The input is the binary unit disk on [-1.5, 1.5]^2 (grid.raster_disk) at
lambda 4, under the 1-norm and the hexagon, at 256^2, 384^2 and 512^2.
Each case, per tree, runs in fresh interpreters with the src/ of that tree
on the path, pinned to the lowest CPU this process may use.  The first
process of a tree reports the tracemalloc peak of a warm solve of
2 * MONITOR_EVERY iterations, in planes of H * W doubles.  Every process
times one warm solve of ITERATIONS iterations at gap tolerance 0 and
reports its milliseconds per iteration, monitor checks included.
PROCESSES processes run per tree and case, alternating between the trees,
the first tree going first in even rounds.  A row per tree and case gives
the peak, the median, minimum and maximum over the processes, and the
iteration count each solve ran (the stalled fallback could end one early).
Rows are printed and, with --output, written as JSON.  Default tree: this
checkout."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAUGES = {
    "l1": {"kind": "p-norm", "p": 1},
    "hexagon": {"kind": "polyhedral", "wulff_vertices":
                [[2, 0], [1, 2], [-1, 1], [-2, -1], [0, -2], [1.5, -1]]},
}
LAMBDA = 4.0
SIZES = (256, 384, 512)
PROCESSES = 5
ITERATIONS = 200

CASE = """\
import json, os, sys, time, tracemalloc
os.sched_setaffinity(0, {int(sys.argv[1])})
from wulff_tvl1 import solver
from wulff_tvl1.gauge import Gauge
from wulff_tvl1.grid import raster_disk
n, iterations, traced = int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
g = Gauge.from_json(json.loads(sys.argv[5]))
f = raster_disk(n, n, 3.0 / n, binary=True)
short = solver.SolverConfig(max_iterations=2 * solver.MONITOR_EVERY,
                            gap_tolerance=0.0)
solver.solve(f, %(lam)r, g, short)  # one-time allocations and warm caches
row = {}
if traced:
    tracemalloc.start()
    solver.solve(f, %(lam)r, g, short)
    row["peak_planes"] = tracemalloc.get_traced_memory()[1] / (8 * n * n)
    tracemalloc.stop()
cfg = solver.SolverConfig(max_iterations=iterations, gap_tolerance=0.0)
start = time.perf_counter()
res = solver.solve(f, %(lam)r, g, cfg)
row["ms_per_iter"] = (time.perf_counter() - start) * 1e3 / res.iterations
row["iterations"] = res.iterations
print(json.dumps(row))
""" % {"lam": LAMBDA}


def run_case(tree: Path, cpu: int, n: int, traced: bool, gauge: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CASE, str(cpu), str(n), str(ITERATIONS),
         "1" if traced else "0", json.dumps(GAUGES[gauge])],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(tree.resolve() / "src")})
    return json.loads(out.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--tree", type=Path, action="append", default=None)
    p.add_argument("--output", type=Path, default=None)
    args = p.parse_args(argv)
    trees = args.tree or [ROOT]
    cpu = min(os.sched_getaffinity(0))
    cases = [(gauge, n) for gauge in GAUGES for n in SIZES]
    samples = {(t, case): [] for t in range(len(trees)) for case in cases}
    for rnd in range(PROCESSES):
        order = list(range(len(trees)))[::1 if rnd % 2 == 0 else -1]
        for case in cases:
            for t in order:
                samples[t, case].append(run_case(
                    trees[t], cpu, case[1], rnd == 0, case[0]))
    rows = []
    for (t, (gauge, n)), runs in samples.items():
        ms = [r["ms_per_iter"] for r in runs]
        row = {"tree": str(trees[t]), "gauge": gauge, "size": n,
               "peak_planes": runs[0]["peak_planes"],
               "ms_per_iter": {"median": statistics.median(ms),
                               "min": min(ms), "max": max(ms)},
               "iterations": sorted({r["iterations"] for r in runs}),
               "processes": len(runs)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    if args.output:
        args.output.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
