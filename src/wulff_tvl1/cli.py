"""Command-line entry point: denoising runs, synthetic inputs, closed-form
oracles and certificate checks, all with machine-readable JSON outputs and
a manifest written alongside every artifact.

Exit codes: 0 success, 1 I/O or configuration error (failed output writes
included), 2 solver did not converge (outputs are still written), 3
certificate check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .certificate import build_circle_certificate, check_certificate
# read_field: unused here, kept for tracers that patch it by name
from .fileio import (FieldReader, PgmReader, read_field, read_pgm,
                     write_field, write_pgm)
from .gauge import Gauge
from .grid import GridImage, raster_convex_polygon, raster_disk
from .shapes import (circle_example, circle_optimality_threshold,
                     trivial_threshold, wulff_tv_and_area)
from .solver import SolverConfig, canonical_minimiser, energy, solve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CERTIFICATE_FAILED = 3


@dataclass
class RunManifest:
    command: str
    outputs: list
    gauge: dict | None = None
    lam: float | None = None
    grid: dict | None = None
    seed: int | None = None
    inputs: list = field(default_factory=list)
    version: str = __version__

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), sort_keys=True) + "\n")


def _thread_cap() -> int | None:
    """WULFF_TVL1_THREADS caps internal parallelism; all kernels here are
    single-threaded vectorised numpy, so any positive cap is honoured."""
    raw = os.environ.get("WULFF_TVL1_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"WULFF_TVL1_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError("WULFF_TVL1_THREADS must be >= 1")
    return cap


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _emit(text: str, output, **manifest) -> None:
    """Prints text and, given an output path, writes it there with the
    run's manifest next to it."""
    print(text)
    if output:
        Path(output).write_text(text + "\n")
        RunManifest(outputs=[str(output)], **manifest).write(f"{output}.manifest.json")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_denoise(args) -> int:
    gauge = Gauge.from_json(args.gauge)
    f = read_pgm(args.input, args.spacing)
    # --config overrides the flags for the keys it names; others raise
    cfg = SolverConfig(**{"max_iterations": args.max_iterations,
                          "gap_tolerance": args.gap_tolerance,
                          **json.loads(args.config or "{}")})

    result = solve(f, args.lam, gauge, cfg)
    u0 = canonical_minimiser(result, f)
    thresholded = bool(args.threshold and u0 is not result.u)
    u_out = u0 if thresholded else result.u

    prefix = Path(args.output_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    u_path = f"{prefix}.pgm"
    dual_path = f"{prefix}_dual.raw"
    report_path = f"{prefix}_report.json"
    write_pgm(u_path, u_out, maxval=255 if thresholded else 65535)
    write_field(dual_path, result.p)

    report = {
        "lambda": args.lam,
        "gauge": gauge.to_json(),
        "energy": energy(result.u, f, args.lam, gauge),
        "energy_forward": result.energy_forward,
        "lower_bound": result.lower_bound,
        "energy_trace": result.energy_trace.tolist(),
        "final_gap": result.final_gap,
        "final_gap_normalized": result.final_gap_normalized,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "thresholded_output": thresholded,
    }
    if args.certify:
        report["certificate"] = check_certificate(
            u0, f, result.p, args.lam, gauge).to_json()
    _write_json(report_path, report)

    RunManifest(
        command="denoise", gauge=gauge.to_json(), lam=args.lam,
        grid={"width": f.width, "height": f.height, "spacing": f.spacing},
        inputs=[str(args.input)], outputs=[u_path, dual_path, report_path],
    ).write(f"{prefix}.manifest.json")

    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _spacing(args) -> float:
    """--extent / --size, the spacing of a synthetic grid."""
    if args.size < 2:
        raise ValueError(f"--size must be >= 2, got {args.size}")
    return args.extent / args.size


def cmd_synth(args) -> int:
    spacing = _spacing(args)
    if args.blocks < 1:
        raise ValueError(f"--blocks must be >= 1, got {args.blocks}")
    if not 0 <= args.noise <= 1:
        raise ValueError(f"--noise must be in [0, 1], got {args.noise}")
    for flag, value in (("--radius", args.radius), ("--scale", args.scale)):
        if not 0 < value < np.inf:
            raise ValueError(f"{flag} must be positive and finite, got {value}")
    rng = np.random.default_rng(args.seed)
    if args.shape == "disk":
        image = raster_disk(args.size, args.size, spacing,
                            radius=args.radius, supersample=4, binary=True)
    elif args.shape == "wulff":
        gauge = Gauge.from_json(args.gauge)
        verts = gauge.wulff().vertices * args.scale
        image = raster_convex_polygon(verts, args.size, args.size, spacing,
                                      supersample=4, binary=True)
    else:  # barcode; argparse choices admit no other shape
        blocks = rng.integers(0, 2, size=(args.blocks, args.blocks)).astype(float)
        idx = (np.arange(args.size) * args.blocks) // args.size
        image = GridImage(blocks[np.ix_(idx, idx)], spacing)
    if args.noise > 0:
        flip = rng.random(image.values.shape) < args.noise
        image = GridImage(np.where(flip, 1.0 - image.values, image.values),
                          spacing)

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(out, image, maxval=255)
    RunManifest(
        command="synth", outputs=[str(out)], seed=args.seed,
        grid={"width": image.width, "height": image.height, "spacing": spacing},
    ).write(f"{out}.manifest.json")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.oracle == "circle":
        r = circle_example(args.lam)
        payload = {"lambda": r.lam, "s": r.s, "h": r.h, "tv": r.tv,
                   "area": r.area, "energy": r.energy, "valid": r.valid}
    elif args.oracle == "threshold":
        payload = {"R": args.R, "n": args.n,
                   "lambda0": trivial_threshold(args.R, args.n)}
    elif args.oracle == "wulff":
        gauge = Gauge.from_json(args.gauge)
        tv, area = wulff_tv_and_area(gauge)
        payload = {"gauge": gauge.to_json(), "tv": tv, "area": area}
    else:  # critical-lambda; argparse choices admit no other oracle
        payload = {"critical_lambda": circle_optimality_threshold()}
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.output,
          command="oracle", gauge=payload.get("gauge"), lam=payload.get("lambda"))
    return EXIT_OK


def cmd_certify(args) -> int:
    gauge = Gauge.from_json(args.gauge)
    if args.example_circle is not None:
        lam = args.example_circle
        ex = circle_example(lam)
        spacing = _spacing(args)
        f = raster_disk(args.size, args.size, spacing, radius=1.0,
                        supersample=4, binary=True)
        square = Gauge.p_norm(1).wulff().vertices * ex.h  # [-h, h]^2
        clip = raster_convex_polygon(square, args.size, args.size, spacing,
                                     supersample=4, binary=True)
        u0 = GridImage(f.values * clip.values, spacing)
        v = build_circle_certificate(lam, args.size, args.size, spacing)
    else:
        if None in (args.u0, args.f, args.v, args.lam):
            raise ValueError("need --u0, --f, --v and --lambda "
                             "(or --example-circle)")
        lam = args.lam
        # streamed: the check reads the files by row blocks
        u0 = PgmReader(args.u0, args.spacing)
        f = PgmReader(args.f, args.spacing)
        v = FieldReader(args.v)
    report = check_certificate(u0, f, v, lam, gauge, tol=args.tol)

    _emit(report.to_json_str(), args.output, command="certify",
          gauge=gauge.to_json(), lam=lam,
          grid={"width": u0.width, "height": u0.height, "spacing": u0.spacing},
          inputs=[p for p in (args.u0, args.f, args.v) if p])
    return EXIT_OK if report.passed else EXIT_CERTIFICATE_FAILED


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wulff-tvl1",
        description="Anisotropic TV-L1 denoising, oracles and certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("denoise", help="minimise TV_phi(u) + lambda |u - f|_1")
    d.add_argument("--input", required=True)
    d.add_argument("--gauge", default='{"kind":"p-norm","p":1}')
    d.add_argument("--lambda", dest="lam", type=float, required=True)
    d.add_argument("--spacing", type=float, default=None,
                   help="grid spacing; defaults to the input sidecar or 1")
    d.add_argument("--output-prefix", default="denoised")
    d.add_argument("--max-iterations", type=int, default=20000)
    d.add_argument("--config", default=None,
                   help="solver config as JSON; its keys override the flags")
    d.add_argument("--gap-tolerance", type=float, default=1e-6)
    d.add_argument("--certify", action="store_true")
    d.add_argument("--threshold", action="store_true",
                   help="write the binary thresholded minimiser for binary input")
    d.set_defaults(func=cmd_denoise)

    s = sub.add_parser("synth", help="deterministic synthetic test inputs")
    s.add_argument("shape", choices=["disk", "wulff", "barcode"])
    s.add_argument("--size", type=int, default=256)
    s.add_argument("--extent", type=float, default=3.0,
                   help="physical window edge length (centred at the origin)")
    s.add_argument("--radius", type=float, default=1.0)
    s.add_argument("--scale", type=float, default=1.0)
    s.add_argument("--gauge", default='{"kind":"p-norm","p":1}')
    s.add_argument("--blocks", type=int, default=8)
    s.add_argument("--noise", type=float, default=0.0,
                   help="salt-and-pepper flip rate")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output", required=True)
    s.set_defaults(func=cmd_synth)

    o = sub.add_parser("oracle", help="closed-form reference values as JSON")
    o.add_argument("oracle", choices=["circle", "threshold", "wulff",
                                      "critical-lambda"])
    o.add_argument("--lambda", dest="lam", type=float, default=4.0)
    o.add_argument("--R", type=float, default=1.0)
    o.add_argument("--n", type=int, default=2)
    o.add_argument("--gauge", default='{"kind":"p-norm","p":1}')
    o.add_argument("--output", default=None)
    o.set_defaults(func=cmd_oracle)

    c = sub.add_parser("certify", help="check a (u0, v) certificate pair")
    c.add_argument("--example-circle", type=float, default=None,
                   help="build the unit-disk example at this lambda")
    c.add_argument("--size", type=int, default=256)
    c.add_argument("--extent", type=float, default=3.0)
    c.add_argument("--u0", default=None)
    c.add_argument("--f", default=None)
    c.add_argument("--v", default=None)
    c.add_argument("--lambda", dest="lam", type=float, default=None)
    c.add_argument("--spacing", type=float, default=None)
    c.add_argument("--gauge", default='{"kind":"p-norm","p":1}')
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--output", default=None)
    c.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are configuration errors here
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        _thread_cap()
        return args.func(args)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
