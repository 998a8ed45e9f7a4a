"""Gauges (possibly non-even anisotropies), their duals and Wulff shapes.

A gauge is a convex, positively 1-homogeneous function phi with phi(y) = 0
only for y = 0.  Because phi need not be even, the Wulff shape carries a
minus sign,

    W = { x | -x.y <= phi(y) for all y },

and the dual gauge  phi_dual(x) = max { x.y : phi(y) <= 1 }  is the
Minkowski functional of -W.  All evaluators below are vectorised over
trailing component axes so they can run cellwise on grid fields.

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
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

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


def _conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _pnorm(y: np.ndarray, p: float) -> np.ndarray:
    """|y|_p over the last axis, combined one component plane at a time.
    For two components this rounds exactly like a reduction over the axis
    and is several times faster than reducing over a size-2 axis."""
    planes = [y[..., i] for i in range(y.shape[-1])]
    if p == 2.0:
        return np.sqrt(reduce(np.add, [c * c for c in planes]))
    planes = [np.abs(c) for c in planes]
    if p == 1.0:
        return reduce(np.add, planes)
    if math.isinf(p):
        return reduce(np.maximum, planes)
    return reduce(np.add, [c**p for c in planes]) ** (1.0 / p)


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in CCW order starting
    at the lexicographically smallest point."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
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


def _polygon_halfspaces(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals n_e and offsets b_e (n_e.x <= b_e) of a CCW
    polygon; requires 0 strictly inside, so every b_e > 0."""
    edges = np.roll(vertices, -1, axis=0) - vertices
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=-1)
    lengths = np.linalg.norm(normals, axis=-1)
    if np.any(lengths < 1e-14):
        raise ValueError("degenerate polygon edge")
    normals = normals / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, vertices)
    return normals, offsets


@dataclass
class WulffShape:
    """Polygonal representation of W (CCW vertices); exact for crystalline
    gauges, inscribed sampling for smooth ones."""

    vertices: np.ndarray
    bounding_radius: float
    exact: bool
    vertex_count: int = field(init=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.vertex_count = len(self.vertices)


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
        return cls(kind="p-norm", dim=dim, p=p)

    @classmethod
    def weighted(cls, p: float, weights) -> "Gauge":
        p = float(p)
        w = np.asarray(weights, dtype=float)
        if not (p >= 1.0):
            raise ValueError(f"exponent must be in [1, inf], got {p}")
        if w.ndim != 1 or np.any(w <= 0):
            raise ValueError("weights must be a 1-D positive array")
        return cls(kind="weighted", dim=len(w), p=p, weights=w)

    @classmethod
    def polyhedral(cls, wulff_vertices) -> "Gauge":
        hull = _convex_hull_ccw(np.asarray(wulff_vertices, dtype=float))
        if hull.shape[1] != 2:
            raise ValueError("polyhedral gauges are 2-D only")
        _, offsets = _polygon_halfspaces(hull)
        if np.any(offsets <= 1e-12):
            raise ValueError("0 must lie strictly inside the Wulff polygon")
        return cls(kind="polyhedral", dim=2, wulff_vertices=hull)

    @classmethod
    def asymmetric(cls, a) -> "Gauge":
        a = np.asarray(a, dtype=float)
        if np.linalg.norm(a) >= 1.0:
            raise ValueError("asymmetric shift must satisfy |a|_2 < 1")
        return cls(kind="asymmetric", dim=len(a), shift=a)

    # -- JSON interface -------------------------------------------------

    @classmethod
    def from_json(cls, spec) -> "Gauge":
        """Build from a JSON object or string, e.g. {"kind":"p-norm","p":1}."""
        if isinstance(spec, str):
            spec = json.loads(spec)
        kind = spec.get("kind")
        if kind == "p-norm":
            return cls.p_norm(_parse_exponent(spec["p"]), dim=int(spec.get("dim", 2)))
        if kind == "weighted":
            return cls.weighted(_parse_exponent(spec["p"]), spec["weights"])
        if kind == "polyhedral":
            return cls.polyhedral(spec["wulff_vertices"])
        if kind == "asymmetric":
            return cls.asymmetric(spec["a"])
        raise ValueError(f"unknown gauge kind: {kind!r}")

    def to_json(self) -> dict:
        if self.kind == "p-norm":
            return {"kind": "p-norm", "p": _encode_exponent(self.p)}
        if self.kind == "weighted":
            return {"kind": "weighted", "p": _encode_exponent(self.p),
                    "weights": self.weights.tolist()}
        if self.kind == "polyhedral":
            return {"kind": "polyhedral",
                    "wulff_vertices": self.wulff_vertices.tolist()}
        return {"kind": "asymmetric", "a": self.shift.tolist()}

    # -- cached derived geometry (polyhedral / sampled) ------------------

    @cached_property
    def _minus_wulff_polygon(self) -> np.ndarray:
        return _convex_hull_ccw(-self.wulff_vertices)

    @cached_property
    def _minus_wulff_halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        return _polygon_halfspaces(self._minus_wulff_polygon)

    @cached_property
    def _unit_ball_vertices(self) -> np.ndarray:
        """Vertices of B = {phi <= 1}; the canonical argmax list for
        dual_extremal tie-breaking."""
        if self.kind == "polyhedral":
            # B is the polar of -W: one vertex n_e / b_e per edge of -W.
            normals, offsets = self._minus_wulff_halfspaces
            return normals / offsets[:, None]
        if self.separable:
            eye = np.eye(self.dim)
            verts = np.concatenate([eye, -eye], axis=0)
        elif self.kind in ("p-norm", "weighted") and math.isinf(self.p):
            if self.dim == 2:
                verts = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
            else:
                grids = np.meshgrid(*([[1.0, -1.0]] * self.dim), indexing="ij")
                verts = np.stack([g.ravel() for g in grids], axis=-1)
        else:
            raise ValueError("no vertex list for smooth gauges")
        if self.kind == "weighted":
            verts = verts / self.weights
        return verts

    @cached_property
    def _sampled_minus_wulff_polygon(self) -> np.ndarray:
        """720-gon inscribed in -W, used as projection fallback for smooth
        non-analytic duals (2D only)."""
        if self.dim != 2:
            raise ValueError("sampled Wulff polygons are 2-D only")
        # point reflection preserves orientation in 2-D, so -W stays CCW
        return -self.wulff(_SMOOTH_WULFF_VERTICES).vertices

    # -- evaluation -------------------------------------------------------

    @property
    def separable(self) -> bool:
        """phi(y) = sum_i c_i |y_i|, so the forward- and backward-stencil
        sums of the discrete TV agree."""
        return self.kind in ("p-norm", "weighted") and self.p == 1.0

    def __call__(self, y) -> np.ndarray:
        """phi(y); y has shape (..., dim)."""
        y = np.asarray(y, dtype=float)
        if self.kind == "p-norm":
            return _pnorm(y, self.p)
        if self.kind == "weighted":
            return _pnorm(y * self.weights, self.p)
        if self.kind == "asymmetric":
            return _pnorm(y, 2.0) + y @ self.shift
        # support function of -W over the stored vertices
        return np.max(y @ (-self.wulff_vertices).T, axis=-1)

    def dual(self, x) -> np.ndarray:
        """phi_dual(x) = max { x.y : phi(y) <= 1 }, the Minkowski
        functional of -W."""
        x = np.asarray(x, dtype=float)
        if self.kind == "p-norm":
            return _pnorm(x, _conjugate_exponent(self.p))
        if self.kind == "weighted":
            return _pnorm(x / self.weights, _conjugate_exponent(self.p))
        if self.kind == "asymmetric":
            a = self.shift
            aa = float(a @ a)
            ax = x @ a
            xx = (x * x).sum(axis=-1)
            return (-ax + np.sqrt(ax * ax + (1.0 - aa) * xx)) / (1.0 - aa)
        normals, offsets = self._minus_wulff_halfspaces
        return np.max((x @ normals.T) / offsets, axis=-1)

    def dual_extremal(self, x) -> np.ndarray:
        """eta with phi(eta) = 1 and x.eta = phi_dual(x); for vertex-type
        unit balls ties go to the lowest index in the stored list."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("dual_extremal takes a single vector")
        if not np.any(x):
            raise ValueError("dual extremal direction undefined for x = 0")
        if self.kind == "asymmetric":
            mu = float(self.dual(x))
            u = x / mu - self.shift
            return u / (1.0 + float(u @ self.shift))
        if self.kind in ("p-norm", "weighted"):
            p = self.p
            if 1.0 < p < math.inf:
                w = self.weights if self.kind == "weighted" else np.ones_like(x)
                z = x / w
                q = _conjugate_exponent(p)
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
        if self.kind == "polyhedral":
            verts = self.wulff_vertices.copy()
            exact = True
        elif self.kind in ("p-norm", "weighted"):
            q = _conjugate_exponent(self.p)
            w = self.weights if self.kind == "weighted" else np.ones(2)
            if q == 1.0:
                verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) * w
                exact = True
            elif math.isinf(q):
                verts = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) * w
                exact = True
            else:
                theta = np.linspace(0.0, 2.0 * math.pi, vertex_count, endpoint=False)
                d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
                verts = w * d / _pnorm(d, q)[:, None]
                exact = False
        else:  # asymmetric: unit disk centred at -a
            theta = np.linspace(0.0, 2.0 * math.pi, vertex_count, endpoint=False)
            verts = -self.shift + np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            exact = False
        radius = float(np.max(np.linalg.norm(verts, axis=-1)))
        return WulffShape(vertices=verts, bounding_radius=radius, exact=exact)

    # -- projection onto -W -----------------------------------------------

    def project_minus_wulff(self, x) -> np.ndarray:
        """Euclidean projection onto -W = {phi_dual <= 1}; closed form for
        p in {1, 2, inf} and asymmetric kinds, bisection for weighted-2,
        polygon projection otherwise (2-D)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "asymmetric":  # -W is the unit disk centred at a
            return self.shift + _project_unit_disk(x - self.shift)
        if self.kind in ("p-norm", "weighted"):
            p = self.p
            w = self.weights if self.kind == "weighted" else None
            if p == 1.0:  # -W is the box |x_i| <= w_i
                bound = w if w is not None else 1.0
                return np.clip(x, -bound, bound)
            if p == 2.0:
                if w is None:
                    return _project_unit_disk(x)
                return _project_ellipse(x, w)
            if math.isinf(p):  # -W is the ball sum |x_i| / w_i <= 1
                return _project_l1_ball(x, 1.0 / w if w is not None else np.ones(2))
            return _project_convex_polygon(x, self._sampled_minus_wulff_polygon)
        return _project_convex_polygon(x, self._minus_wulff_polygon)


def _parse_exponent(p) -> float:
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity"):
            return math.inf
        return float(p)
    return float(p)


def _encode_exponent(p: float):
    return "inf" if math.isinf(p) else p


def _project_ellipse(x: np.ndarray, semi_axes: np.ndarray) -> np.ndarray:
    """Projection onto { z : sum (z_i / w_i)^2 <= 1 } by bisection on the
    KKT multiplier; exact to machine precision in ~100 steps."""
    w2 = semi_axes * semi_axes
    inside = ((x / semi_axes) ** 2).sum(axis=-1) <= 1.0
    lo = np.zeros(x.shape[:-1])
    hi = np.linalg.norm(x * semi_axes, axis=-1) + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        val = ((semi_axes * x / (w2 + mid[..., None])) ** 2).sum(axis=-1)
        too_big = val > 1.0
        lo = np.where(too_big, mid, lo)
        hi = np.where(too_big, hi, mid)
    mu = 0.5 * (lo + hi)
    z = w2 * x / (w2 + mu[..., None])
    return np.where(inside[..., None], x, z)


def _project_unit_disk(x: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norm, 1.0)


def _project_l1_ball(x: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Projection onto { z : c_1 |z_1| + c_2 |z_2| <= 1 } (c > 0) in closed
    form: z = sign(x) max(|x| - mu c, 0), with mu from the largest ratio
    |x_i| / c_i alone or from both coordinates (Condat 2016, 2-D case)."""
    if x.shape[-1] != 2 or len(coeff) != 2:
        raise ValueError("the l1-ball projection is 2-D only")
    a = np.abs(x)
    c0, c1 = coeff
    ca = (coeff * a).sum(axis=-1)
    first = a[..., 0] / c0 >= a[..., 1] / c1
    a_hi = np.where(first, a[..., 0], a[..., 1])
    a_lo = np.where(first, a[..., 1], a[..., 0])
    c_hi = np.where(first, c0, c1)
    c_lo = np.where(first, c1, c0)
    mu_both = (ca - 1.0) / (c0 * c0 + c1 * c1)
    mu_one = (c_hi * a_hi - 1.0) / (c_hi * c_hi)
    mu = np.where(a_lo - mu_both * c_lo > 0, mu_both, mu_one)
    z = np.sign(x) * np.maximum(a - mu[..., None] * coeff, 0.0)
    return np.where((ca <= 1.0)[..., None], x, z)


def _project_convex_polygon(x: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Projection onto a CCW convex polygon, vectorised over points with a
    loop over edges."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    flat = x.reshape(-1, 2)
    normals, offsets = _polygon_halfspaces(vertices)
    inside = np.all(flat @ normals.T <= offsets + 1e-12, axis=-1)
    best = np.full(len(flat), np.inf)
    proj = flat.copy()
    nxt = np.roll(vertices, -1, axis=0)
    for a, b in zip(vertices, nxt):
        ab = b - a
        t = np.clip(((flat - a) @ ab) / (ab @ ab), 0.0, 1.0)
        cand = a + t[:, None] * ab
        d2 = ((flat - cand) ** 2).sum(axis=-1)
        better = d2 < best
        best = np.where(better, d2, best)
        proj[better] = cand[better]
    out = np.where(inside[:, None], flat, proj)
    return out.reshape(shape)


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
