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
every kind, with one routine per geometry: a clip onto the box (p = 1),
closed forms for the disk (p = 2 and asymmetric) and the 2-D l1 ball
(p = inf), safeguarded Newton on one boundary parameter per point for
weighted q-norm balls (every other p, ellipses included), and the nearest
point over all edges for polygons.

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
_Q_BALL_STEPS = 60  # ceiling on Newton/bisection steps; most points take 3-5


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
    polygon; every b_e > 0 exactly when 0 lies strictly inside."""
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
        if not isinstance(spec, dict):
            raise ValueError(f"a gauge spec is a JSON object, got {spec!r}")
        kind = spec.get("kind")
        if kind == "p-norm":
            return cls.p_norm(spec["p"], dim=int(spec.get("dim", 2)))
        if kind == "weighted":
            return cls.weighted(spec["p"], spec["weights"])
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
    def _unit_ball_vertices(self) -> np.ndarray:
        """Vertices of B = {phi <= 1}; the canonical argmax list for
        dual_extremal tie-breaking."""
        if self.kind == "polyhedral":
            # B is the polar of -W: one vertex n_e / b_e per edge of -W.
            normals, offsets = _polygon_halfspaces(self._minus_wulff_polygon)
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
            ay = reduce(np.add, [y[..., i] * c for i, c in enumerate(self.shift)])
            return _pnorm(y, 2.0) + ay
        # support function of -W over the stored vertices
        return _max_linear(y, -self.wulff_vertices)

    def dual(self, x) -> np.ndarray:
        """phi_dual(x) = max { x.y : phi(y) <= 1 }, the Minkowski
        functional of -W."""
        x = np.asarray(x, dtype=float)
        if self.kind == "p-norm":
            return _pnorm(x, _conjugate_exponent(self.p))
        if self.kind == "weighted":
            return _pnorm(x / self.weights, _conjugate_exponent(self.p))
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
        """Euclidean projection onto -W = {phi_dual <= 1}, exact for every
        kind: a clip for p = 1, closed forms for the unit disk (p = 2, and
        asymmetric kinds shifted by a) and the l1 ball (p = inf),
        safeguarded Newton for the weighted q-norm ball of any other p, and
        the nearest point over all edges for polygons.  The result has x's
        memory layout; points in -W come back unchanged.  All but the clip
        and the disk are 2-D only."""
        x = np.asarray(x, dtype=float)
        if self.kind == "asymmetric":  # -W is the unit disk centred at a
            return self.shift + _project_unit_disk(x - self.shift)
        if self.kind == "polyhedral":
            return _project_convex_polygon(x, self._minus_wulff_polygon)
        p = self.p
        w = self.weights if self.kind == "weighted" else None
        if p == 1.0:  # -W is the box |x_i| <= w_i
            bound = w if w is not None else 1.0
            return np.clip(x, -bound, bound)
        if w is None:
            if p == 2.0:
                return _project_unit_disk(x)
            w = np.ones(2)
        if math.isinf(p):  # -W is the ball sum |x_i| / w_i <= 1
            return _project_l1_ball(x, 1.0 / w)
        # -W is the ball sum |x_i / w_i|^q <= 1 with 1/p + 1/q = 1
        return _project_q_ball(x, _conjugate_exponent(p), w)


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


def _project_unit_disk(x: np.ndarray) -> np.ndarray:
    scale = np.maximum(_pnorm(x, 2.0), 1.0)[..., None]
    return np.divide(x, scale, out=np.empty_like(x))


def _project_l1_ball(x: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Projection onto { z : c_1 |z_1| + c_2 |z_2| <= 1 } (c > 0) in closed
    form: z = sign(x) max(|x| - mu c, 0), where mu >= 0 solves
    sum_i c_i max(|x_i| - mu c_i, 0) = 1 (Condat 2016, 2-D case).  That sum
    is the largest of its linear pieces over the sets of active
    coordinates, so mu is the largest of their roots."""
    if x.shape[-1] != 2 or len(coeff) != 2:
        raise ValueError("the l1-ball projection is 2-D only")
    a0 = np.abs(x[..., 0])
    a1 = np.abs(x[..., 1])
    c0, c1 = coeff
    mu = np.maximum((c0 * a0 - 1.0) / (c0 * c0), (c1 * a1 - 1.0) / (c1 * c1),
                    out=np.empty(x.shape[:-1]))  # an array even for one vector
    np.maximum(mu, (c0 * a0 + c1 * a1 - 1.0) / (c0 * c0 + c1 * c1), out=mu)
    np.maximum(mu, 0.0, out=mu)
    out = np.empty_like(x)  # in x's memory order
    np.copysign(np.maximum(a0 - mu * c0, 0.0), x[..., 0], out=out[..., 0])
    np.copysign(np.maximum(a1 - mu * c1, 0.0), x[..., 1], out=out[..., 1])
    return out


def _q_ball_arc(tau: np.ndarray, q: float, p: float):
    """(y_u, y_v, e^(tau/p), e^tau) for the point with y_u^q + y_v^q = 1 and
    y_u^q / y_v^q = e^tau, 1/p + 1/q = 1; e^tau may underflow to 0."""
    root_q = np.exp(tau / q)
    root_p = np.exp(tau / p)
    share = root_q * root_p
    y_v = np.exp(-np.log1p(share) / q)
    return root_q * y_v, y_v, root_p, share


def _log_expm1(t: np.ndarray) -> np.ndarray:
    """log(e^t - 1) for t > 0, and -inf for t <= 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(t > 0, t + np.log(-np.expm1(-t)), -np.inf)


def _nearest_on_q_arc(a_u: np.ndarray, a_v: np.ndarray, w_u: float, w_v: float,
                      q: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest point (z_u, z_v) of the arc (z_u/w_u)^q + (z_v/w_v)^q = 1,
    z >= 0, to points a >= 0 outside the ball whose nearest point has
    (z_u/w_u)^q <= 1/2, by safeguarded Newton on one parameter per point.

    a - z is a nonnegative multiple of the normal N_i = (z_i/w_i)^(q-1) / w_i.
    The arc is parametrised by tau = log((z_u/w_u)^q / (z_v/w_v)^q) <= 0,
    which keeps both coordinates at full relative precision near either
    axis.  With N_u / N_v = r = (w_v / w_u) e^(tau/p), 1/p + 1/q = 1, the
    condition reads  S(tau) = z_u + (a_v - z_v) r = a_u.  On the bracket
    where z_u <= a_u and z_v <= a_v, which holds at the solution, S is
    increasing, and log(S / a_u) is close to linear in tau even near the
    axes.  Newton runs on that function inside a bisection bracket: a step
    that would leave the bracket bisects instead.  A point stops when its
    Newton step falls below 1e-14 (1 + |tau|) or below the rounding floor
    of S, or after _Q_BALL_STEPS steps.
    """
    p = q / (q - 1.0)
    tau = np.full(a_u.shape, -np.inf)  # a_u = 0: the end (0, w_v) of the arc
    ids = np.flatnonzero(a_u > 0.0)
    a_u = a_u[ids]
    a_v = a_v[ids]
    log_a_u = np.log(a_u)
    # a_u <= (w_u + a_v w_v / w_u) e^(tau min(1/p, 1/q)), z_v <= a_v, z_u <= a_u
    lo = (log_a_u - np.log(w_u + a_v * (w_v / w_u))) / min(1.0 / p, 1.0 / q)
    lo = np.maximum(lo, _log_expm1(q * np.log(w_v / a_v)))
    hi = np.minimum(0.0, -_log_expm1(q * (math.log(w_u) - log_a_u)))
    # start from the radial projection a / phi_dual(a)
    t = np.clip(q * (log_a_u - np.log(a_v * (w_u / w_v))), lo, hi)

    for _ in range(_Q_BALL_STEPS):
        if ids.size == 0:
            break
        y_u, y_v, root_p, share = _q_ball_arc(t, q, p)
        z_u = w_u * y_u
        z_v = w_v * y_v
        r = (w_v / w_u) * root_p
        gap_v = a_v - z_v
        s = z_u + gap_v * r
        e = share / (1.0 + share)
        ds = (z_u * (1.0 - e) + z_v * e * r) / q + gap_v * r / p
        # far out on the arc of a subnormal a_u, s and ds underflow to 0 and
        # the step is not finite; such a step bisects below
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.log(s / a_u)
            step = phi * s / ds
            # small enough: below 1e-14 (1 + |tau|), or below the rounding
            # of a_v - z_v, which S carries multiplied by r
            done = np.abs(step) <= 1e-14 * (1.0 + np.abs(t)) + 1e-15 * a_v * r / ds
        done &= np.isfinite(step)
        # the root lies below t where phi > 0 and above it elsewhere; above
        # is 0 or 1, so the bracket moves without a per-point select
        above = phi > 0.0
        lo = np.maximum(lo, t - 1e300 * above)
        hi = np.minimum(hi, t + 1e300 * ~above)
        newton = t - step
        t = np.clip(newton, lo, hi)
        # the bracket ends carry rounding: a step that leaves the bracket by
        # more than that, or is not finite, bisects it instead
        bisect = np.flatnonzero(~(np.abs(t - newton) <= 1e-14 * (1.0 + np.abs(t))))
        t[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        if done.any():
            finished = np.flatnonzero(done)
            tau[ids[finished]] = t[finished]
            going = np.flatnonzero(~done)
            ids, t, lo, hi, a_u, a_v = (c[going] for c in (ids, t, lo, hi, a_u, a_v))
    tau[ids] = t
    y_u, y_v, _, _ = _q_ball_arc(tau, q, p)
    return w_u * y_u, w_v * y_v


def _copy_with_planes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A copy of x in x's memory order (in C order if no plane has a flat
    view in x's) and its two component planes as writable 1-D views."""
    out = np.array(x, dtype=float)
    for order in "CF":
        planes = np.moveaxis(out, -1, 0).reshape(2, -1, order=order)
        if np.may_share_memory(planes, out):
            return out, planes
    out = np.ascontiguousarray(out)  # also any empty x: it shares no memory
    return out, np.moveaxis(out, -1, 0).reshape(2, -1)


def _project_q_ball(x: np.ndarray, q: float, w: np.ndarray) -> np.ndarray:
    """Projection onto { z : |z_1 / w_1|^q + |z_2 / w_2|^q <= 1 }, 1 < q < inf.
    Points in the ball are returned unchanged.  By symmetry a point outside
    is projected as a = |x| onto the first-quadrant arc; the sign of the
    optimality condition at the arc's midpoint tells which coordinate u has
    (z_u / w_u)^q <= 1/2 at the solution."""
    if x.shape[-1] != 2 or len(w) != 2:
        raise ValueError("the q-norm ball projection is 2-D only")
    out, planes = _copy_with_planes(x)
    a = np.abs(planes)
    with np.errstate(over="ignore"):  # inf is outside too
        outside = np.flatnonzero((a[0] / w[0]) ** q + (a[1] / w[1]) ** q > 1.0)
    a = a[:, outside]
    mid = 2.0 ** (-1.0 / q)
    first = (w[0] * mid - a[0]) + (a[1] - w[1] * mid) * (w[1] / w[0]) >= 0.0
    for u, group in ((0, np.flatnonzero(first)), (1, np.flatnonzero(~first))):
        v = 1 - u
        cells = outside[group]
        z_u, z_v = _nearest_on_q_arc(a[u, group], a[v, group], w[u], w[v], q)
        planes[u, cells] = np.copysign(z_u, planes[u, cells])
        planes[v, cells] = np.copysign(z_v, planes[v, cells])
    return out


def _project_convex_polygon(x: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Projection onto a CCW convex polygon.  Points outside it go to the
    nearest point over all edges, found in one (edges x points) pass on
    the component planes of the outside points."""
    out, planes = _copy_with_planes(x)
    x0, x1 = planes
    normals, offsets = _polygon_halfspaces(vertices)
    excess = normals[:, :1] * x0 + normals[:, 1:] * x1 - offsets[:, None]
    outside = np.flatnonzero(excess.max(axis=0) > 1e-12)
    x0 = x0[outside]
    x1 = x1[outside]
    a0, a1 = vertices[:, :1], vertices[:, 1:]
    d0 = np.roll(a0, -1, axis=0) - a0
    d1 = np.roll(a1, -1, axis=0) - a1
    t = ((x0 - a0) * d0 + (x1 - a1) * d1) / (d0 * d0 + d1 * d1)
    np.clip(t, 0.0, 1.0, out=t)
    c0 = a0 + t * d0
    c1 = a1 + t * d1
    nearest = ((x0 - c0) ** 2 + (x1 - c1) ** 2).argmin(axis=0)[None]
    planes[0, outside] = np.take_along_axis(c0, nearest, axis=0)[0]
    planes[1, outside] = np.take_along_axis(c1, nearest, axis=0)[0]
    return out


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
