"""Peak memory of standalone `wulff-tvl1 certify` calls as the grid grows.

    python3 tools/certify_rss.py --work DIR --size 768 --size 1536 \\
        --size 3072 [--seed 0] [--tree CHECKOUT] [--output rows.json]

Writes certify-sweep's seeded inputs (perfbench/workloads.py make_inputs:
the unit-disk certificate, one passing and one failing lambda) at each size
into DIR, then runs every case as one `certify` call in a fresh interpreter
with the src/ of --tree (default: this checkout) on the path.  Each call
reports its ru_maxrss after importing the program and after the call, in
MB, with its exit code and its seconds; the rows are printed and, with
--output, written as JSON.  Linux carries a process's ru_maxrss into the
children it forks, so the inputs are written by a child too, and this
process imports neither numpy nor the program.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INPUTS = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
import workloads
manifest = workloads.make_inputs("certify-sweep", int(sys.argv[3]), sys.argv[4],
                                 sizes=tuple(map(int, sys.argv[5:])))
print(json.dumps(manifest))
"""

CALL = """\
import contextlib, io, json, resource, sys, time
from wulff_tvl1.cli import main
def rss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
imported, start = rss(), time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"exit": code, "import_mb": imported, "peak_mb": rss(),
                  "s": time.perf_counter() - start}))
"""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--size", type=int, action="append", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tree", type=Path, default=ROOT)
    p.add_argument("--output", type=Path, default=None)
    args = p.parse_args(argv)
    made = subprocess.run(
        [sys.executable, "-c", INPUTS, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(args.seed), str(args.work), *map(str, args.size)],
        capture_output=True, text=True, check=True)
    manifest = json.loads(made.stdout)
    rows = []
    for case in manifest["cases"]:
        cmd = [sys.executable, "-c", CALL, "certify",
               "--u0", str(args.work / case["u0"]),
               "--f", str(args.work / case["f"]),
               "--v", str(args.work / case["v"]),
               "--lambda", repr(case["lambda"])]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             env={**os.environ,
                                  "PYTHONPATH": str(args.tree.resolve() / "src")})
        row = {"size": case["size"], "verdict": case["verdict"],
               **json.loads(out.stdout)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    if args.output:
        args.output.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
