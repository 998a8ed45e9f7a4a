"""Tests of the benchmark itself: its checkers, failure counting, span
arithmetic, input determinism and agreement with BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import kernels  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wulff_tvl1.fileio import write_field, write_pgm  # noqa: E402
from wulff_tvl1.gauge import Gauge  # noqa: E402
from wulff_tvl1.grid import DualField, GridImage  # noqa: E402

L1 = {"kind": "p-norm", "p": 1}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def test_self_times_on_hand_built_tree():
    spans = [
        ["cli.main", 0, 100, -1],
        ["solver.solve", 10, 30, 0],
        ["gauge.eval", 12, 20, 1],      # grandchild: only its parent loses it
        ["fileio.write", 25, 50, 0],    # overlaps the solve by 5
        ["fileio.write", 90, 120, 0],   # runs past its parent's end
    ]
    assert tracing.self_times(spans) == [50, 12, 8, 25, 30]
    summary = tracing.summarize(spans)
    assert summary["names"]["fileio.write"]["calls"] == 2
    assert summary["names"]["fileio.write"]["s"] == pytest.approx(55e-9)
    assert summary["layers"] == pytest.approx(
        {"cli": 50e-9, "solver": 12e-9, "gauge": 8e-9, "fileio": 55e-9})


def test_tracer_records_parents_only_while_recording():
    tracer = tracing.Tracer()
    inner = tracer.wrap("grid.div", lambda x: x + 1)
    outer = tracer.wrap("solver.solve", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    with tracer.recording():
        assert outer(1) == 4
    (n0, s0, e0, p0), (n1, s1, e1, p1) = tracer.spans
    assert (n0, p0, n1, p1) == ("solver.solve", -1, "grid.div", 0)
    assert s0 <= s1 <= e1 <= e0


def test_patched_restores_module_attributes():
    from wulff_tvl1 import cli, solver

    before = (cli.main, solver._grad_forward_raw, Gauge.__call__)
    with tracing.Tracer().patched():
        assert cli.main is not before[0]
    assert (cli.main, solver._grad_forward_raw, Gauge.__call__) == before


# ----------------------------------------------------------------------
# failure counting
# ----------------------------------------------------------------------

class _RaisingCli:
    @staticmethod
    def main(argv):
        raise FloatingPointError("boom")


def test_exception_counts_as_one_failed_op():
    op = workloads.Operation("sweep", [workloads.Call(["certify"], {"kind": "certify"})] * 4)
    outcome = run.run_operation(_RaisingCli, workloads, op)
    assert outcome.failed and len(outcome.wrong) == 1
    assert "FloatingPointError" in outcome.wrong[0]
    ok = workloads.Outcome("ok", 1.0)
    metrics = run.end_to_end_metrics([outcome, ok], [0.5, 0.7, 0.6])
    assert metrics["ops_ok_frac"] == (0.5, "frac")
    assert metrics["setup_s"] == (0.6, "s")


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(40))) == (75.0, 29)


# ----------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------

def _write_denoise_outputs(prefix, report, dual):
    Path(f"{prefix}_report.json").write_text(json.dumps(report))
    write_field(f"{prefix}_dual.raw", DualField(dual, 1.0))


def _denoise_report(**changes):
    report = {"converged": False, "final_gap_normalized": 1e-2, "iterations": 10}
    report.update(changes)
    return report


def _check(code, expect):
    outcome = workloads.Outcome("op", 0.0)
    workloads.check_call(code, expect, outcome)
    return outcome


@pytest.mark.parametrize("code, report, dual_value, wrong, unmet", [
    (2, _denoise_report(), 0.5, 0, 0),                                   # capped, fine
    (0, _denoise_report(), 0.5, 1, 0),                                   # exit vs report
    (2, _denoise_report(), 1.5, 1, 0),                                   # leaves -W
    (2, _denoise_report(iterations=7), 0.5, 1, 0),                       # cap != budget
    (0, _denoise_report(converged=True, final_gap_normalized=2.5e-4), 0.5, 0, 1),  # stalled
    (1, _denoise_report(), 0.5, 1, 0),                                   # config error
])
def test_denoise_checker(tmp_path, code, report, dual_value, wrong, unmet):
    prefix = tmp_path / "out"
    _write_denoise_outputs(prefix, report, np.full((4, 4, 2), dual_value))
    outcome = _check(code, {"kind": "denoise", "prefix": str(prefix),
                            "gauge": L1, "cap_allowed": True, "budget": 10})
    assert (len(outcome.wrong), len(outcome.unmet)) == (wrong, unmet)
    assert outcome.failed == bool(wrong or unmet)


def test_stalled_solve_is_classified_and_failed(tmp_path):
    prefix = tmp_path / "out"
    _write_denoise_outputs(prefix, _denoise_report(
        converged=True, final_gap_normalized=2.47e-4, iterations=1337),
        np.zeros((4, 4, 2)))
    outcome = _check(0, {"kind": "denoise", "prefix": str(prefix), "gauge": L1,
                         "cap_allowed": False})
    assert outcome.stops == ["stalled"] and outcome.failed and not outcome.wrong


def test_capped_solve_fails_where_a_gap_is_required(tmp_path):
    prefix = tmp_path / "out"
    _write_denoise_outputs(prefix, _denoise_report(), np.zeros((4, 4, 2)))
    outcome = _check(2, {"kind": "denoise", "prefix": str(prefix), "gauge": L1,
                         "cap_allowed": False})
    assert outcome.stops == ["cap"] and outcome.unmet


def test_missing_outputs_are_a_failure(tmp_path):
    outcome = _check(0, {"kind": "denoise", "prefix": str(tmp_path / "none"),
                         "gauge": L1, "cap_allowed": False})
    assert outcome.wrong and "unreadable" in outcome.wrong[0]


def _disk_case(tmp_path, u, certified=True):
    n = workloads.DISK_SIZE
    center = (2 * 3.0 / n, -1 * 3.0 / n)
    f = workloads.disk_raster(n, center)
    write_pgm(tmp_path / "f.pgm", f, maxval=255)
    prefix = tmp_path / "out"
    write_pgm(f"{prefix}.pgm", GridImage(u(f, center), f.spacing), maxval=255)
    _write_denoise_outputs(prefix, _denoise_report(
        converged=True, final_gap_normalized=1e-7,
        certificate={"passed": certified}), np.zeros((n, n, 2)))
    return _check(0, {"kind": "disk", "prefix": str(prefix), "gauge": L1,
                      "input": str(tmp_path / "f.pgm"), "center": list(center),
                      "cap_allowed": False})


def _closed_form(f, center):
    return workloads.clipped_disk_raster(f.width, workloads.DISK_LAMBDA, center).values


def test_disk_checker_accepts_the_closed_form(tmp_path):
    outcome = _disk_case(tmp_path, _closed_form)
    assert not outcome.failed, outcome.wrong
    assert outcome.stops == ["gap"]


@pytest.mark.parametrize("u, certified, expected", [
    (lambda f, c: np.zeros_like(f.values), True, ["energy", "symmetric"]),
    (lambda f, c: np.roll(_closed_form(f, c), 3, axis=1), True,
     ["energy", "symmetric"]),
    (_closed_form, False, ["certificate"]),
])
def test_disk_checker_flags_wrong_output(tmp_path, u, certified, expected):
    outcome = _disk_case(tmp_path, u, certified)
    assert len(outcome.wrong) == len(expected)
    for reason, word in zip(outcome.wrong, expected):
        assert word in reason


def _certify_case(tmp_path, code, verdict, **report):
    full = {"passed": code == 0, "wulff_violation": 0.0,
            "div_inf_norm": 2.0 * math.sqrt(2.0)}
    full.update(report)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(full))
    return _check(code, {"kind": "certify", "report": str(path), "verdict": verdict})


@pytest.mark.parametrize("code, verdict, report, wrong", [
    (0, "pass", {}, 0),
    (3, "fail", {}, 0),
    (3, "pass", {}, 1),                          # expected to pass
    (0, "fail", {}, 1),                          # expected to fail
    (3, "fail", {"div_inf_norm": 2.1}, 1),       # not 2 sqrt(2)
    (0, "pass", {"passed": False}, 2),           # exit vs report, verdict
    (0, "pass", {"wulff_violation": 1e-3}, 1),   # leaves -W
])
def test_certify_checker(tmp_path, code, verdict, report, wrong):
    assert len(_certify_case(tmp_path, code, verdict, **report).wrong) == wrong


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload, sizes", [
    ("disk-l1", {}), ("aniso-capped", {}), ("certify-sweep", {"sizes": (64,)}),
])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload, sizes):
    a = workloads.make_inputs(workload, 7, tmp_path / "a", **sizes)
    b = workloads.make_inputs(workload, 7, tmp_path / "b", **sizes)
    c = workloads.make_inputs(workload, 8, tmp_path / "c", **sizes)
    assert a == b and _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert a["seed"] == 7 and c["seed"] == 8


def test_round_operations_cycle_translated_inputs(tmp_path):
    manifest = workloads.make_inputs("disk-l1", 3, tmp_path)
    first = workloads.round_operations(manifest, tmp_path, 0)
    second = workloads.round_operations(manifest, tmp_path, 1)
    assert [op.name for op in first] == ["disk-p0", "disk-p1"]
    assert first[0].calls[0].argv != second[0].calls[0].argv


def test_kernel_zoo_matches_test_suite():
    spec = importlib.util.spec_from_file_location(
        "suite_conftest", ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    assert sorted(kernels.GAUGE_ZOO) == sorted(suite.GAUGE_ZOO)
    for kind, gauge_spec in kernels.GAUGE_ZOO.items():
        assert Gauge.from_json(gauge_spec).to_json() == suite.GAUGE_ZOO[kind].to_json()


# ----------------------------------------------------------------------
# contract
# ----------------------------------------------------------------------

def test_metric_names_match_benchmark_json(monkeypatch):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)

    ops = [workloads.Outcome("op", 1.0)]
    e2e = run.end_to_end_metrics(ops, [0.1])
    assert [m["name"] for m in declared["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in declared["end_to_end"])

    monkeypatch.setattr(kernels, "time_call", lambda fn, *args: 1.0)
    layer = run.layer_metrics(tracing.Tracer(), ops, ops)
    layer.update(kernels.sweep())
    assert [m["name"] for m in declared["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in declared["per_layer"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "disk-l1", "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
