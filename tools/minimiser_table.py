"""Which image certify_minimizer certifies, and whether it passes, for every
gauge kind on the binary unit disk, for one or more checkouts.

    python3 tools/minimiser_table.py [--tree PARENT] --tree CHANGE \\
        [--output rows.json]

The input is the binary unit disk on [-1.5, 1.5]^2 (grid.raster_disk,
supersample 4) at lambda 4, at 128^2 and 256^2, under each of the eleven
gauges of tests/conftest.py's GAUGE_ZOO.  Each case, per tree, runs
certify_minimizer at ITERATIONS iterations (default gap tolerance) in a
fresh interpreter with the src/ of that tree on the path.  The image it
hands to check_certificate is recorded through a wrapper around that
function, so a row describes the certified image whichever rule the tree
uses to pick it: its two-stencil energy (solver.energy), whether it is
binary, and the report's pairing gap (iii) with the tolerance (iii) is
compared against, tol * max(1, TV).  A row also gives the solve's stop
reason, iterations and energy_forward, the conditions that failed and the
verdict.  Rows are printed and, with --output, written as JSON.  Default
tree: this checkout."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAUGES = {  # tests/conftest.py's GAUGE_ZOO, as gauge JSON
    "l1": {"kind": "p-norm", "p": 1},
    "l2": {"kind": "p-norm", "p": 2},
    "linf": {"kind": "p-norm", "p": "inf"},
    "p3": {"kind": "p-norm", "p": 3},
    "weighted-l2": {"kind": "weighted", "p": 2, "weights": [1.0, 2.0]},
    "weighted-l1": {"kind": "weighted", "p": 1, "weights": [0.5, 3.0]},
    "weighted-linf": {"kind": "weighted", "p": "inf", "weights": [2.0, 0.7]},
    "square": {"kind": "polyhedral",
               "wulff_vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
    "hexagon": {"kind": "polyhedral", "wulff_vertices":
                [[2, 0], [1, 2], [-1, 1], [-2, -1], [0, -2], [1.5, -1]]},
    "asymmetric": {"kind": "asymmetric", "a": [0.5, 0.0]},
    "asymmetric-skew": {"kind": "asymmetric", "a": [0.3, -0.4]},
}
LAMBDA = 4.0
SIZES = (128, 256)
ITERATIONS = 3000

CASE = """\
import json, sys
import numpy as np
from wulff_tvl1 import certificate, solver
from wulff_tvl1.gauge import Gauge
from wulff_tvl1.grid import raster_disk
n, g = int(sys.argv[1]), Gauge.from_json(json.loads(sys.argv[2]))
f = raster_disk(n, n, 3.0 / n, radius=1.0, supersample=4, binary=True)
certified = []
check = certificate.check_certificate
def recorded(u0, *args, **kwargs):
    certified.append(u0)
    return check(u0, *args, **kwargs)
certificate.check_certificate = recorded
res, rep = certificate.certify_minimizer(
    f, %(lam)r, g, solver.SolverConfig(max_iterations=%(its)d))
u0, = certified
values = u0.values
print(json.dumps({
    "stop_reason": res.stop_reason, "iterations": res.iterations,
    "energy_forward": res.energy_forward,
    "certified_is_u": bool(np.array_equal(values, res.u.values)),
    "certified_binary": bool(np.all((values == 0.0) | (values == 1.0))),
    "energy": solver.energy(u0, f, %(lam)r, g),
    "iii_gap": rep.tv_pairing_gap,
    "iii_tolerance": rep.tolerance * max(1.0, rep.tv_value),
    "failed": sorted(k for k, ok in rep.conditions.items() if not ok),
    "passed": rep.passed}))
""" % {"lam": LAMBDA, "its": ITERATIONS}


def run_case(tree: Path, n: int, gauge: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CASE, str(n), json.dumps(GAUGES[gauge])],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(tree.resolve() / "src")})
    return json.loads(out.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--tree", type=Path, action="append", default=None)
    p.add_argument("--output", type=Path, default=None)
    args = p.parse_args(argv)
    rows = []
    for tree in args.tree or [ROOT]:
        for n in SIZES:
            for gauge in GAUGES:
                row = {"tree": str(tree), "gauge": gauge, "size": n,
                       **run_case(tree, n, gauge)}
                print(json.dumps(row), flush=True)
                rows.append(row)
    if args.output:
        args.output.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
