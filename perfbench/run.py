"""wulff-tvl1 benchmark: one closed-loop client, operations back to back.

    python3 perfbench/run.py --workload {disk-l1,aniso-capped,certify-sweep,all}
                             --seed N --seconds S --trace {0,1}

Run from any directory; the repository root is the parent of this file's
directory and the program is imported from its src/.  Each run writes its
inputs, outputs, spans and run record under .perfbench_work/<workload>/.

--trace 0 reports the end-to-end metrics: wall_s (median seconds per
operation), setup_s (median over fresh interpreters), peak_rss_mb and
ops_ok_frac (1 - ops_failed_frac).  --trace 1 runs every round twice,
untraced then traced with spans around the calls into each module, and
reports the per-layer metrics, the tracing overhead and the kernel sweep.
The last line of standard output is the result as one JSON object.
"""

import os

# Before numpy is imported anywhere: the single-threaded BLAS baseline.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("disk-l1", "aniso-capped", "certify-sweep")
SETUP_REPEATS = 9
TAIL_BEYOND = 10        # samples a reported tail percentile must leave above it
CHILD_TIMEOUT = 170     # seconds, for every subprocess this script starts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args) -> str:
    return subprocess.run([sys.executable] + [str(a) for a in args],
                          cwd=ROOT, env=child_env(), check=True, text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT).stdout


def measure_setup(specs, repeats) -> list:
    """Seconds of set-up in each of `repeats` fresh interpreters."""
    return [float(run_child([HERE / "setup_probe.py", json.dumps(specs)]).split()[-1])
            for _ in range(repeats)]


def run_record() -> dict:
    """Where and on what the run was made; information, not a metric."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(" ")
            if "CACHE_SIZE" in key and value.strip():
                caches[key] = int(value)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "caches_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_py_lines": src_lines,
    }


def run_operation(cli, workloads, op, tracer=None):
    """Times one operation, then checks its outputs; an exception is one
    failed operation, never raised."""
    outcome = workloads.Outcome(op.name, 0.0)
    codes = []
    sink = io.StringIO()
    recording = tracer.recording() if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with recording, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for call in op.calls:
                codes.append(cli.main(call.argv))
    except Exception as exc:  # a crash in the program fails this op only
        outcome.seconds = time.perf_counter() - t0
        outcome.wrong.append(f"raised {type(exc).__name__}: {exc}")
        return outcome
    outcome.seconds = time.perf_counter() - t0
    for call, code in zip(op.calls, codes):
        workloads.check_call(code, call.expect, outcome)
    return outcome


def measure(cli, workloads, manifest, work, seconds, tracer=None):
    """Whole rounds back to back.  Another round starts only while the
    expected end stays within half a round of `seconds`.  With a tracer,
    each round runs untraced and then traced on the same inputs."""
    untraced, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        ops = workloads.round_operations(manifest, work, rounds)
        untraced += [run_operation(cli, workloads, op) for op in ops]
        if tracer is not None:
            with tracer.patched():
                traced += [run_operation(cli, workloads, op, tracer) for op in ops]
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            return untraced, traced


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples above it,
    as (percentile, value), or None when there are too few samples."""
    if len(samples) <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end_metrics(outcomes, setup_samples) -> dict:
    failed = sum(o.failed for o in outcomes)
    return {
        "wall_s": (statistics.median(o.seconds for o in outcomes), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "ops_ok_frac": (1.0 - failed / len(outcomes), "frac"),
    }


def layer_metrics(tracer, untraced, traced) -> dict:
    """Per-layer metrics from the spans of the traced operations; times,
    calls and bytes are per operation."""
    summary = tracing.summarize(tracer.spans)
    names, layers = summary["names"], summary["layers"]
    n_ops = len(traced)

    def per_op(name, key):
        return names.get(name, {}).get(key, 0) / n_ops

    iterations = [it for o in traced for it in o.iterations]
    stops = [s for o in untraced + traced for s in o.stops]
    solve_s = names.get("solver.solve", {}).get("s", 0.0)
    m = {
        "solver.iterations": (statistics.mean(iterations) if iterations else 0, "count"),
        "solver.ms_per_iter": (1e3 * solve_s / sum(iterations) if iterations else 0, "ms"),
        "solver.self_s": (layers.get("solver", 0.0) / n_ops, "s"),
    }
    for stop in ("gap", "stalled", "cap"):
        m[f"solver.stop.{stop}"] = (stops.count(stop) / len(stops) if stops else 0, "frac")
    for name in ("gauge.project", "gauge.eval", "gauge.dual",
                 "grid.grad_forward", "grid.grad_backward", "grid.div",
                 "certificate.check"):
        m[f"{name}.calls"] = (per_op(name, "calls"), "count")
        m[f"{name}.s"] = (per_op(name, "s"), "s")
    calls = names.get("gauge.project", {}).get("calls", 0)
    m["gauge.project.ms_per_call"] = (
        1e3 * names["gauge.project"]["s"] / calls if calls else 0, "ms")
    for name in ("grid.divergence", "grid.forward_divergence", "grid.tv_phi",
                 "grid.dual_pairing", "grid.forward_gradient"):
        m[f"{name}.s"] = (per_op(name, "s"), "s")
    m["certificate.self_s"] = (layers.get("certificate", 0.0) / n_ops, "s")
    for name in ("fileio.read", "fileio.write"):
        m[f"{name}.s"] = (per_op(name, "s"), "s")
        m[f"{name}.bytes"] = (tracer.bytes[name] / n_ops, "B")
    m["cli.self_s"] = (layers.get("cli", 0.0) / n_ops, "s")
    m["cli.report_bytes"] = (statistics.mean(o.report_bytes for o in traced), "B")
    base = statistics.median(o.seconds for o in untraced)
    overhead = statistics.median(o.seconds for o in traced) - base
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (overhead / base, "frac")
    m["trace.spans_per_op"] = (len(tracer.spans) / n_ops, "count")
    return m


def print_lines(workload, metrics, outcomes, setup_samples, record):
    def line(name, value, unit, note=""):
        print(f"{workload:14s} {name:30s} {value:>14.6g} {unit:6s} {note}".rstrip())

    for name, (value, unit) in metrics.items():
        note = ""
        if name == "wall_s":
            t = tail([o.seconds for o in outcomes])
            samples = " ".join(f"{o.seconds:.3f}" for o in outcomes)
            note = (f"median of {len(outcomes)} ops [{samples}]; "
                    + (f"p{t[0]:.1f} {t[1]:.6g} s" if t else
                       f"tail percentile dropped: {len(outcomes)} samples, "
                       f"needs more than {TAIL_BEYOND}"))
        elif name == "setup_s":
            samples = " ".join(f"{v:.3f}" for v in setup_samples)
            note = f"median of {len(setup_samples)} fresh interpreters [{samples}]"
        line(name, value, unit, note)
    failed = [o for o in outcomes if o.failed]
    line("ops_failed_frac", len(failed) / len(outcomes), "frac",
         f"{len(failed)} of {len(outcomes)} ops")
    for o in failed:
        print(f"{workload:14s} failed op {o.name}: {'; '.join(o.wrong + o.unmet)}")
    print(f"{workload:14s} run record {json.dumps(record, sort_keys=True)}")


def pin_to_one_cpu() -> int:
    """Runs this process and every child on the lowest CPU it may use.  On
    the 2-vCPU reference machine, set-up took about 0.075 s on one vCPU and
    0.11 s on the other, so unpinned runs were bimodal."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args) -> dict:
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    run_child([HERE / "workloads.py", args.workload, args.seed, work])
    manifest = json.loads((work / "manifest.json").read_text())

    # set-up is sampled before and after the timed loop, because the
    # machine's speed drifts over tens of seconds
    specs = workloads.gauge_specs(args.workload)
    setup_samples = measure_setup(specs, SETUP_REPEATS // 2 + 1)

    import numpy as np
    from wulff_tvl1 import cli
    from wulff_tvl1.gauge import Gauge

    x = np.full((4, 4, 2), 0.75)
    for spec in specs:
        g = Gauge.from_json(spec)
        g(x)
        g.project_minus_wulff(x)

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = measure(cli, workloads, manifest, work, args.seconds, tracer)
    setup_samples += measure_setup(specs, SETUP_REPEATS // 2)
    outcomes = untraced + traced
    if tracer is None:
        metrics = end_to_end_metrics(untraced, setup_samples)
    else:
        import kernels

        metrics = layer_metrics(tracer, untraced, traced)
        metrics.update(kernels.sweep())
        tracer.write(work / "trace.jsonl")

    record = run_record()
    record["pinned_cpu"] = cpu
    (work / "run_record.json").write_text(json.dumps(record, indent=2) + "\n")
    print_lines(args.workload, metrics, outcomes, setup_samples, record)
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], text=True, capture_output=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wulff_tvl1" / "__init__.py").is_file():
        print(f"error: no wulff_tvl1 package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
