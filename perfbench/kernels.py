"""Kernel sweep of the traced run: milliseconds per call of the projection
onto -W and the gauge evaluation for every gauge kind, and of the solver's
gradient and divergence kernels, at a fixed seeded input.

Bytes moved are computed, not measured: one float64 read of every input
element and one float64 write of every output element per call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from wulff_tvl1.gauge import Gauge
from wulff_tvl1.grid import _div_adjoint_raw, _grad_forward_raw

# The gauge kinds of GAUGE_ZOO in tests/conftest.py, as JSON specs.
GAUGE_ZOO = {
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

GAUGE_SIZE = 256
GRID_SIZES = (256, 1536)
SEED = 20240811
MIN_SECONDS = 0.3   # keep calling until this much time is spent ...
MAX_CALLS = 9       # ... or this many calls are made
FLOAT = 8


def time_call(fn, *args) -> float:
    """Median milliseconds per call over at least one call."""
    samples = []
    while not samples or (sum(samples) < MIN_SECONDS * 1e3
                          and len(samples) < MAX_CALLS):
        t0 = time.perf_counter()
        fn(*args)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def sweep() -> dict:
    rng = np.random.default_rng(SEED)
    metrics = {}
    n = GAUGE_SIZE
    x = rng.normal(scale=1.5, size=(n, n, 2))
    small = x[:4, :4]
    for kind, spec in GAUGE_ZOO.items():
        g = Gauge.from_json(spec)
        g.project_minus_wulff(small)  # builds cached geometry
        metrics[f"gauge.project_ms.{kind}"] = (time_call(g.project_minus_wulff, x), "ms")
        metrics[f"gauge.eval_ms.{kind}"] = (time_call(g, x), "ms")
    metrics["gauge.project_bytes_computed"] = (FLOAT * (2 * n * n + 2 * n * n), "B")
    metrics["gauge.eval_bytes_computed"] = (FLOAT * (2 * n * n + n * n), "B")

    for n in GRID_SIZES:
        spacing = 3.0 / n
        v = rng.random((n, n))
        p = rng.normal(size=(n, n, 2))
        grad_out = np.empty((n, n, 2))
        div_out = np.empty((n, n))
        metrics[f"grid.grad_ms.{n}"] = (
            time_call(_grad_forward_raw, v, spacing, grad_out), "ms")
        metrics[f"grid.div_ms.{n}"] = (
            time_call(_div_adjoint_raw, p, spacing, div_out), "ms")
        metrics[f"grid.grad_bytes_computed.{n}"] = (FLOAT * (n * n + 2 * n * n), "B")
        metrics[f"grid.div_bytes_computed.{n}"] = (FLOAT * (2 * n * n + n * n), "B")
    return metrics
