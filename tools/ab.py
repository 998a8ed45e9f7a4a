"""A/B runs of the benchmark: perfbench/run.py from a parent and a change
checkout, in alternating pairs, summarised into one BENCH_<n>.json.

    python3 tools/ab.py --parent DIR --change DIR --workload disk-l1 \\
        [--workload aniso-capped ...] --seed 3000 \\
        --claim disk-l1:wall_s --output BENCH_16.json

Each checkout runs its own, unchanged perfbench/run.py with --trace 0 and
the run length BENCHMARK.json declares (run_seconds), so the harness of
both sides is whatever each tree holds.  Every workload gets ten pairs,
the number the gain rule is stated for.  Pair i runs seed seed + i on both
sides; the parent goes first in even pairs and the change in odd ones.  A
workload's pairs all run before the next workload's.

The output has BENCH_15.json's shape: every run (end-to-end metrics,
operation counts and the set-up samples), and per workload and metric each
side's median, inclusive quartiles, IQR and range, the pairs the change won
(ties count for neither side), the median over pairs of change minus
parent, and the no-regression verdict against the metric's bound in
BENCHMARK.json, read in the metric's own unit: worse_by is the change
median minus the parent's, signed so that positive is worse; "worse" when
it exceeds the bound, else "unresolved" when the parent's IQR is wider
than the bound and not every change run beats every parent run, else
"within".  --claim adds whether that metric meets the gain rule: ten
pairs, the change better in at least nine of them, and the medians further
apart than the parent's IQR.  Lines of src/**/*.py are counted in both trees,
per module, a module that one tree lacks counting 0 there: all lines
(src_py_lines), and the lines that hold code (src_code_lines), which are
not blank, not comment-only and not inside a module, class or function
docstring.  Each tree's commit is recorded when it is a git checkout, and
the sha256 of its src/**/*.py (src_sha256) always, so a record names the
code each side ran even from checkouts without .git.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

RUN_TIMEOUT = 900  # seconds for one perfbench/run.py process
PAIRS = 10         # per workload: the gain rule's ten pairs
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "ops_ok_frac")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    p.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    p.add_argument("--about", default="")
    p.add_argument("--output", required=True, type=Path)
    return p.parse_args(argv)


def git_commit(tree: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def src_lines(tree: Path) -> dict:
    return {str(p.relative_to(tree / "src")): len(p.read_bytes().splitlines())
            for p in sorted((tree / "src").rglob("*.py"))}


def code_lines(source: str) -> int:
    """Lines of a module that hold code: lines that a token other than a
    comment touches, less the lines of module, class and function
    docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skip:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def src_code_lines(tree: Path) -> dict:
    return {str(p.relative_to(tree / "src")): code_lines(p.read_text())
            for p in sorted((tree / "src").rglob("*.py"))}


def src_sha256(tree: Path) -> str:
    """sha256 over src/**/*.py in path order: each module's path relative
    to src/, its size and its bytes."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(tree / 'src')}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def by_module(parent: dict, change: dict) -> dict:
    """[parent, change] line counts of each module whose count differs,
    0 on the side that lacks it: a module the change deletes is listed too."""
    counts = {name: [parent.get(name, 0), change.get(name, 0)]
              for name in sorted(parent.keys() | change.keys())}
    return {name: pair for name, pair in counts.items() if pair[0] != pair[1]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py process: its result line, plus the set-up
    samples from its text lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    setup = re.search(r"setup_s .*fresh interpreters \[([^\]]*)\]", out.stdout)
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {name: result["metrics"][name]["value"] for name in METRICS},
        "setup_s_samples": [float(v) for v in setup.group(1).split()] if setup else [],
    }


def side_stats(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "min": min(values), "max": max(values),
            "n": len(values)}


def regression(parent: dict, change: dict, sign: float, bound: float) -> dict:
    """The no-regression verdict from both sides' statistics; sign is 1 for
    a lower-is-better metric and -1 otherwise."""
    worse_by = sign * (change["median"] - parent["median"])
    # every change run beats every parent run
    separated = (change["max"] < parent["min"] if sign > 0
                 else change["min"] > parent["max"])
    if worse_by > bound:
        verdict = "worse"
    elif parent["iqr"] > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"verdict": verdict, "worse_by": worse_by, "bound": bound}


def summarize(runs: list, metrics: dict) -> dict:
    """Per workload and metric: both sides' statistics, the pair counts and
    the no-regression verdict.  `metrics` maps a metric to its
    BENCHMARK.json entry: "better" ("lower" or "higher") and "bound"."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        summary[workload] = {}
        for metric, spec in metrics.items():
            sign = 1.0 if spec["better"] == "lower" else -1.0
            deltas = [p["change"][metric] - p["parent"][metric] for p in pairs]
            parent = side_stats([p["parent"][metric] for p in pairs])
            change = side_stats([p["change"][metric] for p in pairs])
            summary[workload][metric] = {
                "parent": parent,
                "change": change,
                "change_better_pairs": sum(sign * d < 0 for d in deltas),
                "ties": sum(d == 0 for d in deltas),
                "pairs": len(pairs),
                "median_delta": statistics.median(deltas),
                "regression": regression(parent, change, sign, spec["bound"]),
            }
    return summary


def claim_result(summary: dict, workload: str, metric: str) -> dict:
    s = summary[workload][metric]
    parent, change = s["parent"], s["change"]
    gap = abs(change["median"] - parent["median"])
    met = (s["pairs"] >= PAIRS
           and s["change_better_pairs"] >= 0.9 * s["pairs"]
           and gap > parent["iqr"])
    return {
        "workload": workload,
        "metric": metric,
        "met": met,
        "result": (f"change better in {s['change_better_pairs']} of {s['pairs']} "
                   f"pairs; medians {parent['median']:.4g} -> {change['median']:.4g} "
                   f"differ by {gap:.4g}, {'more' if gap > parent['iqr'] else 'not more'} "
                   f"than the parent's IQR {parent['iqr']:.4g}"),
    }


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "numpy": numpy.__version__,
            "python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            raise SystemExit(f"{tree}: no perfbench/run.py")
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"] if m["name"] in METRICS}
    seconds = declared["run_seconds"]
    runs = []
    for workload in args.workload:
        for i in range(PAIRS):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, seed, seconds)
                runs.append({"workload": workload, "side": side, "seed": seed, **run})
                print(f"{workload} pair {i} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                      flush=True)
    summary = summarize(runs, metrics)
    lines = {side: src_lines(tree) for side, tree in trees.items()}
    code = {side: src_code_lines(tree) for side, tree in trees.items()}
    record = {
        "about": args.about,
        "machine": machine(),
        "parent_commit": git_commit(trees["parent"]),
        "change_commit": git_commit(trees["change"]),
        "src_sha256": {side: src_sha256(tree) for side, tree in trees.items()},
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds:g} --trace 0"),
        "seeds": {w: f"{args.seed}-{args.seed + PAIRS - 1}" for w in args.workload},
        "src_py_lines": {
            "parent": sum(lines["parent"].values()),
            "change": sum(lines["change"].values()),
            "by_module": by_module(lines["parent"], lines["change"]),
        },
        "src_code_lines": {
            "parent": sum(code["parent"].values()),
            "change": sum(code["change"].values()),
            "by_module": by_module(code["parent"], code["change"]),
        },
        "runs": runs,
        "summary": summary,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = claim_result(summary, workload, metric)
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    if args.claim:
        print(record["claim"]["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
