"""Anisotropic TV-L1 denoising with Wulff-shape gauges.

Library layout: gauges and duals (`gauge`), projections onto -W
(`projection`), grid operators (`grid`), image/field files (`fileio`),
exact polygon oracles (`shapes`), the primal-dual solver (`solver`), the
optimality certificate checker (`certificate`) and the CLI (`cli`).
"""

__version__ = "0.1.0"

from .gauge import (Gauge, WulffShape, dual_extremal, eval_dual, eval_gauge,
                    project_minus_wulff, wulff_shape)
from .grid import (DualField, GridImage, coarea_check, divergence,
                   energy_decompose, forward_gradient, level_set, reflect,
                   tv_phi, tv_phi_dual_gap)
from .shapes import (CircleExampleResult, ConvexPolygon, circle_example,
                     circle_optimality_threshold, isoperimetric_constant,
                     opening_by_wulff, polygon_tv_phi, shape_energy_ratio,
                     trivial_threshold, wulff_tv_and_area)
from .solver import (SolveResult, SolverConfig, check_contrast_invariance,
                     energy, solve, threshold_binary)
from .certificate import (CertificateReport, build_circle_certificate,
                          certify_minimizer, check_certificate)

__all__ = [
    "__version__",
    "Gauge", "WulffShape", "eval_gauge", "eval_dual", "dual_extremal",
    "wulff_shape", "project_minus_wulff",
    "GridImage", "DualField", "forward_gradient", "divergence",
    "tv_phi", "tv_phi_dual_gap", "level_set", "coarea_check",
    "energy_decompose", "reflect",
    "ConvexPolygon", "CircleExampleResult", "trivial_threshold",
    "polygon_tv_phi", "wulff_tv_and_area", "isoperimetric_constant",
    "circle_example", "circle_optimality_threshold", "opening_by_wulff",
    "shape_energy_ratio",
    "SolverConfig", "SolveResult", "energy", "solve", "threshold_binary",
    "check_contrast_invariance",
    "CertificateReport", "check_certificate", "build_circle_certificate",
    "certify_minimizer",
]
