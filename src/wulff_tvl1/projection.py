"""Euclidean projections onto the convex sets that -W can be, for 2-D
fields worked one component plane at a time.

There is one routine per geometry: closed forms for the disk (p = 2, about
0 or, for the asymmetric kinds, about a) and the 2-D l1 ball (p = inf),
safeguarded Newton on one boundary parameter per point for weighted
q-norm balls (every other p, ellipses included), and the nearest point of
the most-violated edge for convex polygons.  The box of p = 1 is a clip.
The l1 ball has two branches, each faster than the alternative measured:
with equal weights a square turned 45 degrees, clipped as a box in the
rotated coordinates x_1 + x_2 and x_1 - x_2, and with unequal ones the
nearest point of an edge.  The disk routine writes into an `out` of x's
shape; the others project one array in place through its two component
planes, 1-D views that `_planes` takes without a copy or refuses.
`Gauge.project_minus_wulff` checks and copies for all of them.
Points of the set come back unchanged.  The q-ball and polygon routines
look for the points outside only among those that a cheap test cannot
place inside: for a polygon about 0, the points outside its inscribed
disk.  The polygon routine takes the polygon's edge data, which a gauge
builds once.  The plane-wise p-norm and the polygon edge data, which
the gauge evaluators and the shapes module share, live here too.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

_Q_BALL_STEPS = 60  # ceiling on Newton/bisection steps; most points take 3-5


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


class PolygonEdges(NamedTuple):
    """Edge data of a CCW convex polygon, built once per polygon: edge e
    runs from starts[e] to starts[e] + edges[e]."""

    normals: np.ndarray  # outward unit normals n_e
    offsets: np.ndarray  # b_e, with n_e.x <= b_e on the polygon
    starts: np.ndarray   # the vertices
    edges: np.ndarray    # edge vectors d_e
    length2: np.ndarray  # |d_e|^2
    inradius: float      # min_e b_e: if positive, the inscribed disk about 0


def _polygon_edges(vertices: np.ndarray) -> PolygonEdges:
    """The edge data of a CCW polygon; every b_e > 0, so a positive
    inradius, exactly when 0 lies strictly inside."""
    edges = np.roll(vertices, -1, axis=0) - vertices
    d0, d1 = edges.T
    length2 = d0 * d0 + d1 * d1
    lengths = np.sqrt(length2)
    if np.any(lengths < 1e-14):
        raise ValueError("degenerate polygon edge")
    normals = np.stack([d1, -d0], axis=-1) / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, vertices)
    return PolygonEdges(normals, offsets, vertices, edges, length2,
                        float(offsets.min()))


def _planes(a: np.ndarray) -> np.ndarray:
    """The two component planes of a (..., 2) array as the rows of a (2, N)
    view; ValueError when a's strides give none (Fortran order or (H, 2, W)
    storage, say), so that no routine writes into a copy."""
    planes = np.moveaxis(a, -1, 0).reshape(2, -1)
    if a.size and not np.may_share_memory(planes, a):
        raise ValueError("array has no row-major component planes")
    return planes


def _project_disk(x: np.ndarray, out: np.ndarray,
                  centre: np.ndarray | None = None) -> np.ndarray:
    """centre + (x - centre) / max(|x - centre|, 1) into `out`, one component
    plane at a time: the projection onto the unit ball about `centre`, or
    about 0 with no centre, which leaves -0.0 entries their sign."""
    planes = [out[..., i] for i in range(x.shape[-1])]
    if centre is not None:
        for i, (plane, c) in enumerate(zip(planes, centre)):
            np.subtract(x[..., i], c, out=plane)
        x = out
    scale = np.maximum(_pnorm(x, 2.0), 1.0)
    for i, plane in enumerate(planes):
        np.divide(x[..., i], scale, out=plane)
        if centre is not None:
            plane += centre[i]
    return out


def _project_l1_ball(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Projection of x, in place, onto { z : |z_1| / w_1 + |z_2| / w_2 <= 1 }
    (w > 0).

    With w_1 = w_2 = r the ball is the box |s|, |d| <= r in the rotated
    coordinates s = x_1 + x_2, d = x_1 - x_2.  Points in the ball come back
    unchanged to the bit.  A point outside, where |s| or |d| exceeds r,
    goes to ((s' + d') / 2, (s' - d') / 2) from the clipped s' and d', so
    its error is a rounding of r, not of |x|; only those points are
    gathered.

    Otherwise a = |x| of a point outside goes to the nearest point of the
    edge from (w_1, 0) to (0, w_2): with d = w_1 a_1 - w_2 a_2 clipped to
    [-w_2^2, w_1^2], z = (w_1 (w_2^2 + d), w_2 (w_1^2 - d)) / (w_1^2 + w_2^2)
    with x's signs.  Terms of size |x| meet only in d, whose error moves z
    along the edge: z lies on it to a rounding, however far x is."""
    x0, x1 = _planes(x)
    if w[0] == w[1]:
        r = w[0]
        s, d, t = np.empty((3, x0.size))
        np.add(x0, x1, out=s)
        np.subtract(x0, x1, out=d)
        outside = np.abs(s, out=t) > r
        outside |= np.abs(d, out=t) > r
        s = np.clip(s[outside], -r, r)
        d = np.clip(d[outside], -r, r)
        x0[outside] = (s + d) * 0.5
        x1[outside] = (s - d) * 0.5
        return x
    w0, w1 = w
    outside = np.abs(x0) / w0 + np.abs(x1) / w1 > 1.0
    s0, s1 = x0[outside], x1[outside]
    d = np.clip(w0 * np.abs(s0) - w1 * np.abs(s1), -w1 * w1, w0 * w0)
    n = w0 * w0 + w1 * w1
    x0[outside] = np.copysign(w0 * (w1 * w1 + d) / n, s0)
    x1[outside] = np.copysign(w1 * (w0 * w0 - d) / n, s1)
    return x


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


def _project_q_ball(x: np.ndarray, q: float, w: np.ndarray) -> np.ndarray:
    """Projection of x, in place, onto
    { z : |z_1 / w_1|^q + |z_2 / w_2|^q <= 1 }, 1 < q < inf.
    Points in the ball are left unchanged.  By symmetry a point outside
    is projected as a = |x| onto the first-quadrant arc; the sign of the
    optimality condition at the arc's midpoint tells which coordinate u has
    (z_u / w_u)^q <= 1/2 at the solution."""
    planes = _planes(x)
    a = np.abs(planes)
    r0, r1 = a[0] / w[0], a[1] / w[1]
    mid = 2.0 ** (-1.0 / q)
    # two power-free tests for the inside, ratios summing to at most 1 (as
    # q > 1) and then both ratios at most mid (each power at most 1/2),
    # leave the power test the rest.  Their bounds sit 1e-12 inside, so
    # rounding in the power test cannot call a point they pass outside
    inner = 1.0 - 1e-12
    rest = np.flatnonzero(r0 + r1 > inner)
    rest = rest[np.maximum(r0[rest], r1[rest]) > mid * inner]
    with np.errstate(over="ignore"):  # inf is outside too
        outside = rest[r0[rest] ** q + r1[rest] ** q > 1.0]
    a = a[:, outside]
    first = (w[0] * mid - a[0]) + (a[1] - w[1] * mid) * (w[1] / w[0]) >= 0.0
    for u, group in ((0, np.flatnonzero(first)), (1, np.flatnonzero(~first))):
        v = 1 - u
        cells = outside[group]
        z_u, z_v = _nearest_on_q_arc(a[u, group], a[v, group], w[u], w[v], q)
        planes[u, cells] = np.copysign(z_u, planes[u, cells])
        planes[v, cells] = np.copysign(z_v, planes[v, cells])
    return x


def _project_convex_polygon(x: np.ndarray, polygon: PolygonEdges) -> np.ndarray:
    """Projection of x, in place, onto a CCW convex polygon, given by its
    edge data.  A point outside goes to the nearest point of its
    most-violated edge, the edge of largest excess n_e.x - b_e.  That is
    exact: in an edge's region the distance is the largest excess, and in a
    vertex's region the largest excess belongs to one of the vertex's two
    edges, whose clipped segment projection lands on the vertex.

    When 0 lies strictly inside (r = min_e b_e > 0), a point with
    |x|^2 < (r (1 - 1e-12))^2 is inside, as n_e.x <= |x| <= b_e for every
    edge; the margin keeps rounding from passing a point that the excess
    test would send outside.  Only the other points, the candidates, go
    through the excess test, so the full-grid work is that one pre-filter."""
    planes = _planes(x)
    x0, x1 = planes
    normals, offsets, starts, edges, length2, inradius = polygon
    if inradius > 0.0:
        radius2 = np.multiply(x0, x0)
        radius2 += np.multiply(x1, x1)
        # NaN fails this test as it fails the excess test: it comes back as is
        candidates = np.flatnonzero(radius2 >= (inradius * (1.0 - 1e-12)) ** 2)
    else:
        candidates = np.arange(x0.size)
    c0 = x0[candidates]
    c1 = x1[candidates]
    # the largest excess, one edge at a time, which keeps the temporaries to
    # a few candidate-length buffers; then, for the points outside, the
    # first edge attaining it
    largest = np.full(c0.shape, -np.inf)
    excess, term = np.empty((2,) + c0.shape)
    for (n0, n1), b in zip(normals, offsets):
        np.multiply(n0, c0, out=excess)
        excess += np.multiply(n1, c1, out=term)
        excess -= b
        np.maximum(largest, excess, out=largest)
    outside = candidates[largest > 1e-12]
    if outside.size == 0:  # as in about half the calls of a solve
        return x
    x0 = x0[outside]
    x1 = x1[outside]
    # one row per edge, so each broadcast pass runs along the points
    edge = (normals[:, :1] * x0 + normals[:, 1:] * x1
            - offsets[:, None]).argmax(axis=0)
    a0, a1 = starts.T
    d0, d1 = edges.T
    t = ((x0 - a0[edge]) * d0[edge] + (x1 - a1[edge]) * d1[edge]) / length2[edge]
    np.clip(t, 0.0, 1.0, out=t)
    # one representation per vertex, whichever of its edges was chosen:
    # vertex k > 0 is the end of edge k - 1, vertex 0 the start of edge 0
    start = np.flatnonzero((t == 0.0) & (edge > 0))
    edge[start] -= 1
    t[start] = 1.0
    end = np.flatnonzero((t == 1.0) & (edge == len(starts) - 1))
    edge[end] = 0
    t[end] = 0.0
    planes[0, outside] = a0[edge] + t * d0[edge]
    planes[1, outside] = a1[edge] + t * d1[edge]
    return x
