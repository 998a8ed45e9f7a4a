"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: dual gauges
are brute-forced over dense boundary samples, TV-L1 optima are found by
exhaustive enumeration or, for separable gauges, by one max flow, and
anisotropic perimeters by quadrature over the boundary normal.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from wulff_tvl1.gauge import Gauge, _convex_hull_ccw
from wulff_tvl1.grid import DualField, GridImage, raster_convex_polygon, raster_disk
from wulff_tvl1.solver import energy


def brute_force_dual(g: Gauge, x, samples: int = 400000) -> float:
    """max x.y over a dense sample of the boundary of {phi <= 1}."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = d / g(d)[:, None]
    return float(np.max(pts @ np.asarray(x, dtype=float)))


def brute_force_binary_optimum(f: GridImage, lam: float, g: Gauge) -> float:
    """Exhaustive minimum of the energy over all binary candidates; for
    binary f the coarea decomposition guarantees a binary optimum exists."""
    h, w = f.values.shape
    best = math.inf
    for bits in itertools.product((0.0, 1.0), repeat=h * w):
        u = GridImage(np.array(bits).reshape(h, w), f.spacing)
        best = min(best, energy(u, f, lam, g))
    return best


def max_flow_pair(f: GridImage, lam: float, g: Gauge):
    """Exact minimiser, certificate field and minimum of the forward-stencil
    energy for binary f and a separable gauge phi(y) = c_0 |y_0| + c_1 |y_1|,
    from one s-t maximum flow (Chambolle & Darbon, IJCV 2009).  Each pair of
    horizontal neighbours gets two arcs of capacity h c_0, each vertical
    pair two of h c_1; a cell with f = 1 gets an arc from the source and a
    cell with f = 0 one to the sink, of capacity lam h^2.  The capacities
    are scaled to integers exactly, so the value is exact up to its final
    rounding to float.

    * u* is the source side of the residual graph, a minimum cut: {u* = 1}.
      By the coarea formula a binary u is optimal among all u.
    * p* is the net flow F along each neighbour arc over its capacity,
      negated: p*_x = -c_0 F(cell -> right neighbour) / cap_x, p*_y likewise
      with the neighbour below (Strang, Math. Prog. 1983).  It lies in -W,
      and by flow conservation h^2 div p* at a cell is its sink outflow less
      its source inflow, so |div p*| <= lam.
    * The optimum is the flow value, the dual value of p*."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    c0, c1 = (float(c) for c in g(np.eye(2)))
    h = Fraction(f.spacing)
    caps = [h * Fraction(c0), h * Fraction(c1), Fraction(lam) * h * h]
    scale = math.lcm(*(c.denominator for c in caps))
    cx, cy, cell = (int(c * scale) for c in caps)
    ids = np.arange(f.values.size).reshape(f.values.shape)
    source, sink = f.values.size, f.values.size + 1
    ones = np.flatnonzero(f.values == 1.0)
    zeros = np.flatnonzero(f.values == 0.0)
    if ones.size + zeros.size != f.values.size:
        raise ValueError("the max-flow oracle needs a binary f")
    right, down = (ids[:, :-1], ids[:, 1:]), (ids[:-1], ids[1:])
    arcs = [  # (tails, heads, capacity)
        (*right, cx), (right[1], right[0], cx), (*down, cy), (down[1], down[0], cy),
        (np.full(ones.size, source), ones, cell), (zeros, np.full(zeros.size, sink), cell),
    ]
    tails = np.concatenate([t.ravel() for t, _, _ in arcs])
    heads = np.concatenate([hd.ravel() for _, hd, _ in arcs])
    if max(cx, cy, ones.size * cell) >= 2**31:  # the flow is at most the latter
        raise ValueError("capacities beyond the int32 range of maximum_flow")
    capacity = np.concatenate([np.full(t.size, c, dtype=np.int32) for t, _, c in arcs])
    graph = coo_matrix((capacity, (tails, heads)), shape=(sink + 1,) * 2).tocsr()
    result = maximum_flow(graph, source, sink, method="dinic")
    residual = graph - result.flow
    residual.data = (residual.data > 0).astype(np.int8)
    residual.eliminate_zeros()
    side = breadth_first_order(residual, source, return_predecessors=False)
    u = np.zeros(f.values.size + 2)
    u[side] = 1.0
    p = np.zeros(f.values.shape + (2,))
    for component, (tail, head), c, cap in ((0, right, c0, cx), (1, down, c1, cy)):
        flow = np.asarray(result.flow[tail.ravel(), head.ravel()]).reshape(tail.shape)
        p[:tail.shape[0], :tail.shape[1], component] = -c * flow / cap
    return (GridImage(u[:-2].reshape(f.values.shape), f.spacing),
            DualField(p, f.spacing), float(Fraction(int(result.flow_value), scale)))


def max_flow_optimum(f: GridImage, lam: float, g: Gauge) -> float:
    """The exact minimum of the forward-stencil energy: max_flow_pair's
    flow value."""
    return max_flow_pair(f, lam, g)[2]


def boundary_integral_oracle(g: Gauge, radius: float = 1.0,
                             samples: int = 200000) -> float:
    """Quadrature of the anisotropic perimeter integral of a circle: the
    integral over the boundary of the gauge at the inward normal."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    nu = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return float(np.sum(g(-nu)) * (2.0 * math.pi * radius / samples))


def random_convex_polygon(rng: np.random.Generator, n_points: int = 12,
                          scale: float = 1.0) -> np.ndarray:
    """CCW hull of random points; regenerates until it has >= 3 vertices."""
    while True:
        pts = rng.normal(size=(n_points, 2)) * scale
        try:
            return _convex_hull_ccw(pts)
        except ValueError:
            continue


def gaussian_blur(values: np.ndarray, sigma_cells: float) -> np.ndarray:
    """Separable Gaussian mollifier (reflect-free, 'same' convolution);
    used to build smooth approximants of characteristic functions."""
    r = int(math.ceil(3.0 * sigma_cells))
    x = np.arange(-r, r + 1)
    k = np.exp(-0.5 * (x / sigma_cells) ** 2)
    k /= k.sum()
    out = np.apply_along_axis(lambda m: np.convolve(m, k, mode="same"), 0, values)
    return np.apply_along_axis(lambda m: np.convolve(m, k, mode="same"), 1, out)


def clipped_disk_raster(lam: float, size: int, extent: float = 3.0,
                        supersample: int = 4) -> GridImage:
    """Binary raster of B cap [-h, h]^2, the closed-form optimal shape."""
    h = math.sqrt(1.0 - 1.0 / lam**2)
    spacing = extent / size
    disk = raster_disk(size, size, spacing, radius=1.0, supersample=supersample)
    square = raster_convex_polygon(
        [[h, -h], [h, h], [-h, h], [-h, -h]], size, size, spacing,
        supersample=supersample)
    return GridImage(((disk.values * square.values) > 0.5).astype(float), spacing)


def symmetric_difference_area(a: GridImage, b: GridImage) -> float:
    return float(np.abs(a.values - b.values).sum()) * a.spacing**2


GAUGE_ZOO = {
    "l1": Gauge.p_norm(1),
    "l2": Gauge.p_norm(2),
    "linf": Gauge.p_norm(math.inf),
    "p3": Gauge.p_norm(3),
    "weighted-l2": Gauge.weighted(2, [1.0, 2.0]),
    "weighted-l1": Gauge.weighted(1, [0.5, 3.0]),
    "weighted-linf": Gauge.weighted(math.inf, [2.0, 0.7]),
    "square": Gauge.polyhedral([[1, 1], [-1, 1], [-1, -1], [1, -1]]),
    "hexagon": Gauge.polyhedral(
        [[2, 0], [1, 2], [-1, 1], [-2, -1], [0, -2], [1.5, -1]]),
    "asymmetric": Gauge.asymmetric([0.5, 0.0]),
    "asymmetric-skew": Gauge.asymmetric([0.3, -0.4]),
}


# Gauge specs that JSON admits (NaN and Infinity included) and the
# constructors refuse, each with the field its error names.  They were all
# accepted, but for flat vertices and dim Infinity, which raised IndexError
# and OverflowError out of the CLI.  Only p may be a string, "inf".
REFUSED_GAUGE_SPECS = {
    "weights-nan": ('{"kind": "weighted", "p": 2, "weights": [NaN, 1]}', "weights"),
    "weights-inf": ('{"kind": "weighted", "p": 2, "weights": [1, Infinity]}', "weights"),
    "weights-empty": ('{"kind": "weighted", "p": 2, "weights": []}', "weights"),
    "shift-nan": ('{"kind": "asymmetric", "a": [NaN, 0.2]}', "shift a"),
    "vertex-inf": ('{"kind": "polyhedral", "wulff_vertices": '
                   '[[Infinity, 1], [-1, 1], [-1, -1], [1, -1]]}', "wulff_vertices"),
    "vertex-nan": ('{"kind": "polyhedral", "wulff_vertices": '
                   '[[NaN, 1], [-1, 1], [-1, -1], [1, -1]]}', "wulff_vertices"),
    "vertices-flat": ('{"kind": "polyhedral", "wulff_vertices": [1, 2, 3]}',
                      "wulff_vertices"),
    "dim-0": ('{"kind": "p-norm", "p": 2, "dim": 0}', "dim"),
    "dim-inf": ('{"kind": "p-norm", "p": 2, "dim": Infinity}', "dim"),
    # bools and strings were read as numbers: true as 1, "2" as 2, and
    # "dim": true built a 1-D gauge
    "p-bool": ('{"kind": "p-norm", "p": true}', '"p"'),
    "p-string": ('{"kind": "p-norm", "p": "2"}', '"p"'),
    "weights-bool": ('{"kind": "weighted", "p": 2, "weights": [true, 2]}', '"weights"'),
    "shift-bool": ('{"kind": "asymmetric", "a": [0.5, false]}', '"a"'),
    "dim-bool": ('{"kind": "p-norm", "p": 2, "dim": true}', '"dim"'),
    "vertex-string": ('{"kind": "polyhedral", "wulff_vertices": '
                      '[["1", 1], [-1, 1], [-1, -1], [1, -1]]}', '"wulff_vertices"'),
    # keys that the kind does not read were dropped: the first built the
    # plain 2-norm, and the last a weighted gauge of dimension 2
    "p-norm-weights": ('{"kind": "p-norm", "p": 2, "weights": [1, 4]}', '"weights"'),
    "misspelt-weight": ('{"kind": "weighted", "p": 2, "weights": [1, 4], '
                        '"weight": [1, 4]}', '"weight"'),
    "weighted-dim": ('{"kind": "weighted", "p": 2, "weights": [1, 4], "dim": 3}',
                     '"dim"'),
}


@pytest.fixture(params=sorted(GAUGE_ZOO), ids=sorted(GAUGE_ZOO))
def any_gauge(request) -> Gauge:
    return GAUGE_ZOO[request.param]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
