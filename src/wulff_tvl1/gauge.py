"""Gauges (possibly non-even anisotropies), their duals and Wulff shapes.

A gauge is a convex, positively 1-homogeneous function phi with phi(y) = 0
only for y = 0.  Because phi need not be even, the Wulff shape carries a
minus sign,

    W = { x | -x.y <= phi(y) for all y },

and the dual gauge  phi_dual(x) = max { x.y : phi(y) <= 1 }  is the
Minkowski functional of -W.  All evaluators below are vectorised over
trailing component axes so they can run cellwise on grid fields; the 2-D
kernels work on the two component planes x[..., 0] and x[..., 1].

The Euclidean projection onto -W, the solver's dual step, is exact for
every kind: a clip onto the box (p = 1), and otherwise the routine of the
`projection` module for the geometry of -W.

Supported kinds:

* ``p-norm``      phi(y) = |y|_p, p in [1, inf] (inf stored exactly);
* ``weighted``    phi(y) = |diag(w) y|_p with positive weights w;
* ``polyhedral``  phi is the support function of -W for a stored convex
                  polygon W (2D) with 0 strictly inside;
* ``asymmetric``  phi(y) = |y|_2 + a.y with |a|_2 < 1 (non-even); its
                  Wulff shape is the unit disk centred at -a.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .projection import (PolygonEdges, _planes, _pnorm, _polygon_edges,
                         _project_convex_polygon, _project_disk,
                         _project_l1_ball, _project_q_ball)

__all__ = [
    "Gauge",
    "WulffShape",
    "eval_gauge",
    "eval_dual",
    "dual_extremal",
    "wulff_shape",
    "project_minus_wulff",
]

_SMOOTH_WULFF_VERTICES = 720
# the keys each kind's spec reads; from_json refuses any other
_SPEC_KEYS = {"p-norm": {"kind", "p", "dim"}, "weighted": {"kind", "p", "weights"},
              "polyhedral": {"kind", "wulff_vertices"}, "asymmetric": {"kind", "a"}}


def _conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _norm_ball_vertices(p: float, dim: int) -> np.ndarray:
    """Vertices of the unit ball of |.|_p for p = 1 or inf; in 2-D the
    diamond from (1, 0) and the box from (1, 1), counterclockwise."""
    if p == 1.0:
        eye = np.eye(dim)
        return np.concatenate([eye, -eye])
    if dim == 2:
        return np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    grids = np.meshgrid(*([[1.0, -1.0]] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in CCW order starting
    at the lexicographically smallest point."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if not np.isfinite(pts).all():
        raise ValueError("polyhedral wulff_vertices must be finite")
    if len(pts) < 3:
        raise ValueError("polyhedral gauge needs at least 3 distinct vertices")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise ValueError("polyhedral gauge vertices are collinear")
    return hull


@dataclass
class WulffShape:
    """Polygonal representation of W (CCW vertices); exact for crystalline
    gauges, inscribed sampling for smooth ones."""

    vertices: np.ndarray
    bounding_radius: float
    exact: bool

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)


@dataclass
class Gauge:
    """Immutable description of an anisotropy; use the classmethod
    constructors rather than filling fields by hand."""

    kind: str
    dim: int = 2
    p: float | None = None
    weights: np.ndarray | None = None
    wulff_vertices: np.ndarray | None = None
    shift: np.ndarray | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def p_norm(cls, p: float, dim: int = 2) -> "Gauge":
        p = float(p)
        if not (p >= 1.0):
            raise ValueError(f"p-norm exponent must be in [1, inf], got {p}")
        if not (isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1):
            raise ValueError(f"p-norm dim must be an integer >= 1, got {dim!r}")
        return cls(kind="p-norm", dim=dim, p=p)

    @classmethod
    def weighted(cls, p: float, weights) -> "Gauge":
        p = float(p)
        w = np.asarray(weights, dtype=float)
        if not (p >= 1.0):
            raise ValueError(f"exponent must be in [1, inf], got {p}")
        if w.ndim != 1 or not w.size or not np.all((0.0 < w) & (w < math.inf)):
            raise ValueError("weights must be positive finite numbers, at least one")
        return cls(kind="weighted", dim=len(w), p=p, weights=w)

    @classmethod
    def polyhedral(cls, wulff_vertices) -> "Gauge":
        vertices = np.asarray(wulff_vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("polyhedral gauges are 2-D only: wulff_vertices "
                             "are (x, y) pairs")
        hull = _convex_hull_ccw(vertices)
        if _polygon_edges(hull).inradius <= 1e-12:
            raise ValueError("0 must lie strictly inside the Wulff polygon")
        return cls(kind="polyhedral", dim=2, wulff_vertices=hull)

    @classmethod
    def asymmetric(cls, a) -> "Gauge":
        a = np.asarray(a, dtype=float)
        if a.ndim != 1 or not a.size or not np.linalg.norm(a) < 1.0:  # NaN too
            raise ValueError("asymmetric shift a must be a vector with |a|_2 < 1")
        return cls(kind="asymmetric", dim=len(a), shift=a)

    # -- JSON interface -------------------------------------------------

    @classmethod
    def from_json(cls, spec) -> "Gauge":
        """Build from a JSON object or string, e.g. {"kind":"p-norm","p":1}.
        Parameters are numbers or lists of them, not bools or strings, but
        p may be "inf"; a key that the kind does not read is refused."""
        if isinstance(spec, str):
            spec = json.loads(spec)
        if not isinstance(spec, dict):
            raise ValueError(f"a gauge spec is a JSON object, got {spec!r}")
        for name in ("p", "dim", "weights", "wulff_vertices", "a"):
            value = spec.get(name)  # "inf" elsewhere than p: the constructors refuse it
            items = np.asarray(value, dtype=object).flat
            if value != "inf" and any(isinstance(x, (bool, str)) for x in items):
                raise ValueError(f'gauge "{name}" takes numbers, got {value!r}')
        kind = spec.get("kind")
        if not (isinstance(kind, str) and kind in _SPEC_KEYS):
            raise ValueError(f"unknown gauge kind: {kind!r}")
        extra = spec.keys() - _SPEC_KEYS[kind]
        if extra:
            raise ValueError(f'a {kind} gauge reads no "{min(extra)}"')
        if kind == "p-norm":
            return cls.p_norm(spec["p"], dim=spec.get("dim", 2))
        if kind == "weighted":
            return cls.weighted(spec["p"], spec["weights"])
        if kind == "polyhedral":
            return cls.polyhedral(spec["wulff_vertices"])
        return cls.asymmetric(spec["a"])

    def to_json(self) -> dict:
        if self.kind == "p-norm":  # a 2-D spec names no "dim": 2 is its default
            spec = {"kind": "p-norm", "p": _encode_exponent(self.p)}
            return spec if self.dim == 2 else {**spec, "dim": self.dim}
        if self.kind == "weighted":
            return {"kind": "weighted", "p": _encode_exponent(self.p),
                    "weights": self.weights.tolist()}
        if self.kind == "polyhedral":
            return {"kind": "polyhedral",
                    "wulff_vertices": self.wulff_vertices.tolist()}
        return {"kind": "asymmetric", "a": self.shift.tolist()}

    # -- cached derived geometry (polyhedral / sampled) ------------------

    @cached_property
    def _minus_wulff_edges(self) -> PolygonEdges:
        return _polygon_edges(_convex_hull_ccw(-self.wulff_vertices))

    @cached_property
    def _unit_ball_vertices(self) -> np.ndarray:
        """Vertices of B = {phi <= 1}; the canonical argmax list for
        dual_extremal tie-breaking."""
        if self.kind == "polyhedral":
            # B is the polar of -W: one vertex n_e / b_e per edge of -W.
            edges = self._minus_wulff_edges
            return edges.normals / edges.offsets[:, None]
        if self.p not in (1.0, math.inf):  # p is None for asymmetric kinds
            raise ValueError("no vertex list for smooth gauges")
        verts = _norm_ball_vertices(self.p, self.dim)
        return verts if self.weights is None else verts / self.weights

    # -- evaluation -------------------------------------------------------

    @property
    def separable(self) -> bool:
        """phi(y) = sum_i c_i |y_i|, so the forward- and backward-stencil
        sums of the discrete TV agree."""
        return self.p == 1.0

    def _components(self, y) -> np.ndarray:
        """y as a float array with dim components on its last axis."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1:] != (self.dim,):
            raise ValueError(f"expected {self.dim} components, got shape {y.shape}")
        return y

    def __call__(self, y) -> np.ndarray:
        """phi(y); y has shape (..., dim)."""
        y = self._components(y)
        if self.p is not None:  # |diag(w) y|_p, w = 1 for the p-norm kind
            return _pnorm(y if self.weights is None else y * self.weights, self.p)
        if self.kind == "asymmetric":
            ay = reduce(np.add, [y[..., i] * c for i, c in enumerate(self.shift)])
            return _pnorm(y, 2.0) + ay
        # support function of -W over the stored vertices
        return _max_linear(y, -self.wulff_vertices)

    def dual(self, x) -> np.ndarray:
        """phi_dual(x) = max { x.y : phi(y) <= 1 }, the Minkowski
        functional of -W."""
        x = self._components(x)
        if self.p is not None:  # |diag(w)^-1 x|_q with 1/p + 1/q = 1
            z = x if self.weights is None else x / self.weights
            return _pnorm(z, _conjugate_exponent(self.p))
        if self.kind == "asymmetric":
            aa = float(self.shift @ self.shift)
            ax = reduce(np.add, [x[..., i] * c for i, c in enumerate(self.shift)])
            xx = reduce(np.add, [x[..., i] * x[..., i] for i in range(self.dim)])
            return (np.sqrt(ax * ax + (1.0 - aa) * xx) - ax) / (1.0 - aa)
        # support function of B = {phi <= 1} over its vertices
        return _max_linear(x, self._unit_ball_vertices)

    def dual_extremal(self, x) -> np.ndarray:
        """eta with phi(eta) = 1 and x.eta = phi_dual(x); for vertex-type
        unit balls ties go to the lowest index in the stored list."""
        x = self._components(x)
        if x.ndim != 1:
            raise ValueError("dual_extremal takes a single vector")
        if not np.any(x):
            raise ValueError("dual extremal direction undefined for x = 0")
        if self.kind == "asymmetric":
            mu = float(self.dual(x))
            u = x / mu - self.shift
            return u / (1.0 + float(u @ self.shift))
        if self.p is not None and 1.0 < self.p < math.inf:
            w = 1.0 if self.weights is None else self.weights
            z = x / w
            q = _conjugate_exponent(self.p)
            zq = _pnorm(z, q)
            eta = np.sign(z) * (np.abs(z) / zq) ** (q - 1.0)
            return eta / w
        verts = self._unit_ball_vertices
        return verts[int(np.argmax(verts @ x))].copy()

    # -- Wulff shape ------------------------------------------------------

    def wulff(self, vertex_count: int = _SMOOTH_WULFF_VERTICES) -> WulffShape:
        """Polygonal W; exact for crystalline kinds, an inscribed
        vertex_count-gon for smooth ones (2-D only)."""
        if self.dim != 2:
            raise ValueError("polygonal Wulff shapes are available in 2-D only")
        exact = self.kind == "polyhedral" or self.p in (1.0, math.inf)
        w = 1.0 if self.weights is None else self.weights
        if self.kind == "polyhedral":
            verts = self.wulff_vertices.copy()
        elif exact:  # the unit ball of the conjugate norm, scaled by w
            verts = _norm_ball_vertices(_conjugate_exponent(self.p), 2) * w
        else:
            theta = np.linspace(0.0, 2.0 * math.pi, vertex_count, endpoint=False)
            circle = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            if self.kind == "asymmetric":  # the unit disk centred at -a
                verts = -self.shift + circle
            else:
                q = _conjugate_exponent(self.p)
                verts = w * circle / _pnorm(circle, q)[:, None]
        radius = float(np.max(np.linalg.norm(verts, axis=-1)))
        return WulffShape(vertices=verts, bounding_radius=radius, exact=exact)

    # -- projection onto -W -----------------------------------------------

    def project_minus_wulff(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """Euclidean projection onto -W = {phi_dual <= 1}, exact for every
        kind: a clip for p = 1, closed forms for the unit disk (p = 2, and
        asymmetric kinds shifted by a) and the l1 ball (p = inf; a box in
        rotated coordinates when both weights are equal), safeguarded
        Newton for the weighted q-norm ball of any other p, and the nearest
        point of the most-violated edge for polygons.  x has dim components
        on its last axis.  The result goes into a new C-ordered array, or
        into `out`: x itself, or an array of x's shape sharing no memory
        with it whose component planes have row-major views (C order, or
        planar (2, H, W) storage); the l1-ball, q-ball and polygon kinds
        raise ValueError on any other out and leave it untouched.  Points
        in -W come back unchanged.  All but the clip and the disk are 2-D
        only."""
        x = self._components(x)
        if out is None:
            out = np.empty(x.shape)
        if self.kind == "asymmetric":  # -W is the unit disk centred at a
            return _project_disk(x, out, self.shift)
        p, w = self.p, self.weights  # both None for polygons
        if p == 1.0:  # -W is the box |x_i| <= w_i
            bound = w if w is not None else 1.0
            return np.clip(x, -bound, bound, out=out)
        if p == 2.0 and w is None:
            return _project_disk(x, out)
        if self.dim != 2:
            raise ValueError("the projection onto -W is 2-D only for this gauge")
        if out is not x:  # the other routines project in place, so an out
            _planes(out)  # they refuse is refused before x is copied in
            np.copyto(out, x)
        if self.kind == "polyhedral":
            return _project_convex_polygon(out, self._minus_wulff_edges)
        if w is None:
            w = np.ones(2)
        if math.isinf(p):  # -W is the ball sum |x_i| / w_i <= 1
            return _project_l1_ball(out, w)
        # -W is the ball sum |x_i / w_i|^q <= 1 with 1/p + 1/q = 1
        return _project_q_ball(out, _conjugate_exponent(p), w)


def _encode_exponent(p: float):
    return "inf" if math.isinf(p) else p


def _max_linear(y: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """max over the rows (c_1, c_2) of coeffs of c_1 y_1 + c_2 y_2, built
    from the two component planes of y in three reused buffers."""
    y0 = y[..., 0]
    y1 = y[..., 1]
    shape = y.shape[:-1]
    out = np.full(shape, -np.inf)
    form = np.empty(shape)
    term = np.empty(shape)
    for c0, c1 in coeffs:
        np.multiply(y0, c0, out=form)
        np.multiply(y1, c1, out=term)
        form += term
        np.maximum(out, form, out=out)
    return out[()]


# Module-level aliases with the operation names used throughout the package.

def eval_gauge(g: Gauge, y) -> np.ndarray:
    return g(y)


def eval_dual(g: Gauge, x) -> np.ndarray:
    return g.dual(x)


def dual_extremal(g: Gauge, x) -> np.ndarray:
    return g.dual_extremal(x)


def wulff_shape(g: Gauge, vertex_count: int = _SMOOTH_WULFF_VERTICES) -> WulffShape:
    return g.wulff(vertex_count)


def project_minus_wulff(g: Gauge, x) -> np.ndarray:
    return g.project_minus_wulff(x)
