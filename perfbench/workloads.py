"""Workloads of the wulff-tvl1 benchmark: seeded input synthesis, the
operations of one round, and the checks each operation's outputs must pass.

Every operation is one in-process ``wulff_tvl1.cli.main(argv)`` call (a
``denoise`` or ``certify`` invocation), except on certify-sweep, where one
operation is a sweep of four ``certify`` calls.  The program sees only the
files written here.

Run as a script to write one run's inputs:

    python3 perfbench/workloads.py <workload> <seed> <directory>
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wulff_tvl1.certificate import build_circle_certificate
from wulff_tvl1.fileio import write_field, write_pgm
from wulff_tvl1.gauge import Gauge
from wulff_tvl1.grid import GridImage, rasterize
from wulff_tvl1.shapes import circle_example

WORKLOADS = ("disk-l1", "aniso-capped", "certify-sweep")

EXTENT = 3.0            # physical window edge, as in the acceptance suite
SUPERSAMPLE = 4
GAP_TOLERANCE = 1e-6    # the CLI default, which every denoise op runs with
FEASIBILITY_TOL = 1e-9

L1 = {"kind": "p-norm", "p": 1}

# disk-l1: criterion 1 (256^2 unit disk, 1-norm, lambda = 4).  The sub-cell
# phase of the disk centre decides which plateau the iteration count lands
# on (measured at 256^2: about 1057, 1336, 2600 or 3278 iterations, with
# the 1336 and 2600 plateaus stopped by the relative-change fallback above
# the gap tolerance), so a run of a few solves cannot sample phases
# steadily.  The phases are therefore a fixed panel: the centred disk,
# which meets the gap, and one phase on the stalled plateau.  The seed
# draws a whole-cell translation for every solve; whole-cell translations
# leave the iteration count and the gap unchanged.
DISK_SIZE = 256
DISK_LAMBDA = 4.0
DISK_PHASES = ((0.0, 0.0), (0.3125, 0.4375))  # in cells
DISK_SLOTS = 4          # distinct translated inputs per phase, used in turn
DISK_MAX_SHIFT = 16     # cells; keeps the disk 40 cells from the frame

# aniso-capped: one solve per -W geometry at a fixed iteration budget,
# sized to take about 4-5 s each on a 2-core Xeon, so that a 25 s run is
# one round whatever the machine's drift.
ANISO_SIZE = 128
ANISO_LAMBDA = 3.0
ANISO_NOISE = 0.05
ANISO_GAUGES = (
    ("hexagon", {"kind": "polyhedral", "wulff_vertices":
                 [[2, 0], [1, 2], [-1, 1], [-2, -1], [0, -2], [1.5, -1]]}, 375),
    ("asymmetric", {"kind": "asymmetric", "a": [0.5, 0.0]}, 1875),
    ("linf", {"kind": "p-norm", "p": "inf"}, 900),
    ("weighted-l2", {"kind": "weighted", "p": 2, "weights": [1.0, 2.0]}, 50),
    ("p3", {"kind": "p-norm", "p": 3}, 5),
)

# certify-sweep: the explicit unit-disk certificate at two resolutions; the
# pass case has lambda in [3, 4] and the fail case lambda in [1.5, 2.5],
# where the shallow branch of the field gives |div v| = 2 sqrt(2) > lambda.
CERTIFY_SIZES = (768, 1536)
CERTIFY_PASS_RANGE = (3.0, 4.0)
CERTIFY_FAIL_RANGE = (1.5, 2.5)
FAIL_DIV_INF = 2.0 * math.sqrt(2.0)
FAIL_DIV_INF_TOL = 0.05


@dataclass
class Call:
    """One CLI invocation and what its outputs must satisfy."""

    argv: list
    expect: dict


@dataclass
class Operation:
    name: str
    calls: list


@dataclass
class Outcome:
    """Result of one operation.  `wrong` holds failed oracle checks (the
    program's answer is incorrect or the operation crashed); `unmet` holds
    goals the program did not reach with a correct answer, such as a solve
    that stopped above its gap tolerance.  Either makes the op failed."""

    name: str
    seconds: float
    wrong: list = field(default_factory=list)
    unmet: list = field(default_factory=list)
    stops: list = field(default_factory=list)      # per solve: gap/stalled/cap
    iterations: list = field(default_factory=list)  # per solve
    report_bytes: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.wrong or self.unmet)


# ----------------------------------------------------------------------
# input synthesis
# ----------------------------------------------------------------------

def _spacing(n: int) -> float:
    return EXTENT / n


def _write_image(path: Path, image: GridImage) -> None:
    """Binary PGM plus the spacing sidecar the CLI reads."""
    write_pgm(path, image, maxval=255)
    sidecar = {"width": image.width, "height": image.height,
               "spacing": image.spacing}
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def disk_raster(n: int, center=(0.0, 0.0)) -> GridImage:
    cx, cy = center
    return rasterize(lambda X, Y: (X - cx) ** 2 + (Y - cy) ** 2 <= 1.0,
                     n, n, _spacing(n), SUPERSAMPLE, binary=True)


def clipped_disk_raster(n: int, lam: float, center=(0.0, 0.0)) -> GridImage:
    """B cap [-h, h]^2 with h = sqrt(1 - 1/lam^2), the closed-form optimum
    of the 1-norm unit-disk example, rastered about `center`."""
    h = circle_example(lam).h
    cx, cy = center

    def inside(X, Y):
        dx, dy = X - cx, Y - cy
        return (dx * dx + dy * dy <= 1.0) & (np.abs(dx) <= h) & (np.abs(dy) <= h)

    return rasterize(inside, n, n, _spacing(n), SUPERSAMPLE, binary=True)


def _disk_inputs(rng, out: Path) -> dict:
    h = _spacing(DISK_SIZE)
    inputs = []
    for phase_index, (px, py) in enumerate(DISK_PHASES):
        for slot in range(DISK_SLOTS):
            sx, sy = rng.integers(-DISK_MAX_SHIFT, DISK_MAX_SHIFT + 1, size=2)
            center = ((int(sx) + px) * h, (int(sy) + py) * h)
            path = out / f"disk-p{phase_index}-s{slot}.pgm"
            _write_image(path, disk_raster(DISK_SIZE, center))
            inputs.append({"phase": phase_index, "slot": slot,
                           "path": path.name, "center": list(center)})
    return {"inputs": inputs}


def _aniso_inputs(rng, out: Path) -> dict:
    disk = disk_raster(ANISO_SIZE)
    flip = rng.random(disk.values.shape) < ANISO_NOISE
    noisy = GridImage(np.where(flip, 1.0 - disk.values, disk.values),
                      disk.spacing)
    _write_image(out / "noisy-disk.pgm", noisy)
    return {"input": "noisy-disk.pgm"}


def _certify_inputs(rng, out: Path, sizes=CERTIFY_SIZES) -> dict:
    lambdas = {"pass": float(rng.uniform(*CERTIFY_PASS_RANGE)),
               "fail": float(rng.uniform(*CERTIFY_FAIL_RANGE))}
    cases = []
    for n in sizes:
        f_path = f"f-{n}.pgm"
        _write_image(out / f_path, disk_raster(n))
        for verdict, lam in lambdas.items():
            u0_path = f"u0-{n}-{verdict}.pgm"
            v_path = f"v-{n}-{verdict}.raw"
            _write_image(out / u0_path, clipped_disk_raster(n, lam))
            write_field(out / v_path,
                        build_circle_certificate(lam, n, n, _spacing(n)))
            cases.append({"size": n, "verdict": verdict, "lambda": lam,
                          "u0": u0_path, "f": f_path, "v": v_path})
    return {"lambdas": lambdas, "cases": cases}


def make_inputs(workload: str, seed: int, out: Path, **sizes) -> dict:
    """Writes the run's input files into `out` and returns the manifest
    (also written as manifest.json).  The same seed gives byte-identical
    files."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "disk-l1":
        manifest = _disk_inputs(rng, out)
    elif workload == "aniso-capped":
        manifest = _aniso_inputs(rng, out)
    elif workload == "certify-sweep":
        manifest = _certify_inputs(rng, out, **sizes)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest.update(workload=workload, seed=seed)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return manifest


# ----------------------------------------------------------------------
# operations of one round
# ----------------------------------------------------------------------

def gauge_specs(workload: str) -> list:
    """The gauges a workload's operations parse, for set-up and warm-up."""
    if workload == "aniso-capped":
        return [spec for _, spec, _ in ANISO_GAUGES]
    return [L1]


def round_operations(manifest: dict, work: Path, round_index: int) -> list:
    """The operations of round `round_index`, in order."""
    work = Path(work)
    workload = manifest["workload"]
    if workload == "disk-l1":
        ops = []
        for entry in manifest["inputs"]:
            if entry["slot"] != round_index % DISK_SLOTS:
                continue
            prefix = work / f"out-disk-p{entry['phase']}"
            argv = ["denoise", "--input", str(work / entry["path"]),
                    "--gauge", json.dumps(L1), "--lambda", repr(DISK_LAMBDA),
                    "--output-prefix", str(prefix), "--certify", "--threshold"]
            expect = {"kind": "disk", "prefix": str(prefix), "gauge": L1,
                      "input": str(work / entry["path"]),
                      "center": entry["center"], "cap_allowed": False}
            ops.append(Operation(f"disk-p{entry['phase']}", [Call(argv, expect)]))
        return ops
    if workload == "aniso-capped":
        ops = []
        for name, spec, budget in ANISO_GAUGES:
            prefix = work / f"out-{name}"
            argv = ["denoise", "--input", str(work / manifest["input"]),
                    "--gauge", json.dumps(spec), "--lambda", repr(ANISO_LAMBDA),
                    "--max-iterations", str(budget),
                    "--output-prefix", str(prefix)]
            expect = {"kind": "denoise", "prefix": str(prefix), "gauge": spec,
                      "cap_allowed": True, "budget": budget}
            ops.append(Operation(name, [Call(argv, expect)]))
        return ops
    calls = []
    for case in manifest["cases"]:
        report = work / f"cert-{case['size']}-{case['verdict']}.json"
        argv = ["certify", "--u0", str(work / case["u0"]),
                "--f", str(work / case["f"]), "--v", str(work / case["v"]),
                "--lambda", repr(case["lambda"]), "--gauge", json.dumps(L1),
                "--output", str(report)]
        calls.append(Call(argv, {"kind": "certify", "report": str(report),
                                 "verdict": case["verdict"]}))
    return [Operation("sweep", calls)]


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def read_pgm_values(path) -> np.ndarray:
    """Values in [0, 1] of a P5 PGM as written by wulff_tvl1 (no comments)."""
    raw = Path(path).read_bytes()
    magic, dims, maxval, payload = raw.split(b"\n", 3)
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    width, height = (int(t) for t in dims.split())
    dtype = np.uint8 if int(maxval) <= 255 else ">u2"
    data = np.frombuffer(payload, dtype=dtype, count=width * height)
    return data.reshape(height, width).astype(float) / int(maxval)


def read_dual_field(path) -> np.ndarray:
    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    data = np.frombuffer(path.read_bytes(), dtype="<f8")
    return data.reshape(meta["height"], meta["width"], meta["components"])


def l1_energy(u: np.ndarray, f: np.ndarray, lam: float, spacing: float) -> float:
    """TV_1(u) + lam |u - f|_L1 on the grid; the forward and backward
    stencils agree for the 1-norm, so one sum of absolute differences
    suffices."""
    tv = (np.abs(np.diff(u, axis=0)).sum() + np.abs(np.diff(u, axis=1)).sum())
    return float(tv * spacing + lam * np.abs(u - f).sum() * spacing**2)


def classify_stop(report: dict, tolerance: float = GAP_TOLERANCE) -> str:
    """gap: converged at the tolerance; stalled: reported converged with
    the gap above the tolerance (the relative-change fallback); cap: not
    converged."""
    if not report["converged"]:
        return "cap"
    return "gap" if report["final_gap_normalized"] <= tolerance else "stalled"


def check_denoise(code: int, expect: dict, outcome: Outcome) -> None:
    """Checks shared by every denoise op, plus the disk-l1 oracles."""
    prefix = expect["prefix"]
    report_path = Path(f"{prefix}_report.json")
    if code not in (0, 2):
        outcome.wrong.append(f"exit code {code}, expected 0 or 2")
        return
    report = json.loads(report_path.read_text())
    outcome.report_bytes += report_path.stat().st_size
    if (code == 0) != bool(report["converged"]):
        outcome.wrong.append(
            f"exit code {code} disagrees with converged={report['converged']}")
    stop = classify_stop(report)
    outcome.stops.append(stop)
    outcome.iterations.append(int(report["iterations"]))
    if stop == "stalled":
        outcome.unmet.append(
            f"reported converged at normalized gap "
            f"{report['final_gap_normalized']:.3e} > {GAP_TOLERANCE:g}")
    elif stop == "cap":
        if not expect["cap_allowed"]:
            outcome.unmet.append(
                f"hit the iteration cap at gap {report['final_gap_normalized']:.3e}")
        elif report["iterations"] != expect["budget"]:
            outcome.wrong.append(f"capped after {report['iterations']} "
                                 f"iterations, budget {expect['budget']}")

    p = read_dual_field(f"{prefix}_dual.raw")
    worst = float(np.max(Gauge.from_json(expect["gauge"]).dual(p)))
    if not worst <= 1.0 + FEASIBILITY_TOL:
        outcome.wrong.append(f"dual field leaves -W: max dual gauge {worst:.12g}")

    if expect["kind"] == "disk":
        _check_disk(expect, report, outcome)


def _check_disk(expect: dict, report: dict, outcome: Outcome) -> None:
    oracle = circle_example(DISK_LAMBDA)
    u = read_pgm_values(f"{expect['prefix']}.pgm")
    f = read_pgm_values(expect["input"])
    spacing = _spacing(u.shape[0])
    e = l1_energy(u, f, DISK_LAMBDA, spacing)
    if abs(e - oracle.energy) > 0.01 * oracle.energy:
        outcome.wrong.append(f"thresholded energy {e:.6f} is more than 1% "
                             f"from the closed form {oracle.energy:.6f}")
    target = clipped_disk_raster(u.shape[0], DISK_LAMBDA, expect["center"])
    sym = float(np.abs(u - target.values).sum()) * spacing**2 / oracle.area
    if sym > 0.02:
        outcome.wrong.append(f"symmetric difference {sym:.2%} from the "
                             f"clipped disk exceeds 2%")
    cert = report.get("certificate")
    if not (cert and cert["passed"]):
        outcome.wrong.append("certificate did not pass")


def check_certify(code: int, expect: dict, outcome: Outcome) -> None:
    report_path = Path(expect["report"])
    if code not in (0, 3):
        outcome.wrong.append(f"exit code {code}, expected 0 or 3")
        return
    report = json.loads(report_path.read_text())
    outcome.report_bytes += report_path.stat().st_size
    if (code == 0) != bool(report["passed"]):
        outcome.wrong.append(
            f"exit code {code} disagrees with passed={report['passed']}")
    if report["wulff_violation"] > FEASIBILITY_TOL:
        outcome.wrong.append(
            f"certificate field leaves -W by {report['wulff_violation']:.3e}")
    if expect["verdict"] == "pass":
        if not report["passed"]:
            outcome.wrong.append("expected the certificate to pass")
    else:
        if report["passed"]:
            outcome.wrong.append("expected the certificate to fail")
        if abs(report["div_inf_norm"] - FAIL_DIV_INF) > FAIL_DIV_INF_TOL:
            outcome.wrong.append(f"div_inf_norm {report['div_inf_norm']:.6f} "
                                 f"is not 2 sqrt(2)")


def check_call(code: int, expect: dict, outcome: Outcome) -> None:
    """Appends every failed check of one call to `outcome`; a check that
    cannot even read the outputs is itself a failure."""
    try:
        if expect["kind"] == "certify":
            check_certify(code, expect, outcome)
        else:
            check_denoise(code, expect, outcome)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        outcome.wrong.append(f"outputs unreadable: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED DIRECTORY")
    make_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
