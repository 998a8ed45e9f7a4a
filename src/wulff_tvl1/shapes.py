"""Closed-form continuum oracles and exact convex-polygon geometry.

Everything here is dependency-free polygon arithmetic in 2-D: anisotropic
perimeters, the Wulff identity tv = n * area, the isoperimetric constant,
the circle-with-square-clip optimal shape and morphological openings by a
rescaled Wulff shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauge import Gauge
from .projection import PolygonEdges, _polygon_edges, _project_convex_polygon

__all__ = [
    "ConvexPolygon",
    "CircleExampleResult",
    "trivial_threshold",
    "polygon_tv_phi",
    "wulff_tv_and_area",
    "isoperimetric_constant",
    "circle_example",
    "circle_optimality_threshold",
    "opening_by_wulff",
    "shape_energy_ratio",
    "minkowski_sum",
    "hausdorff_distance",
]

@dataclass
class ConvexPolygon:
    """CCW vertex list; an empty vertex array is a valid (empty) polygon."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        if len(self.vertices) >= 3 and self.signed_area() < 0:
            raise ValueError("vertices must be in counterclockwise order")

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) < 3

    def signed_area(self) -> float:
        if len(self.vertices) < 3:
            return 0.0
        v = self.vertices
        nxt = np.roll(v, -1, axis=0)
        return float(0.5 * np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))

    def area(self) -> float:
        return abs(self.signed_area())

    def scaled(self, factor: float) -> "ConvexPolygon":
        return ConvexPolygon(self.vertices * factor)


def trivial_threshold(R: float, n: int) -> float:
    """Below n / R every input supported in R * W denoises to zero."""
    if not 0 < R < math.inf:
        raise ValueError("R must be positive and finite")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return n / R


def polygon_tv_phi(P: ConvexPolygon, g: Gauge) -> float:
    """Anisotropic perimeter: sum over edges of length * phi(-nu) with nu
    the outward unit normal."""
    if P.is_empty:
        return 0.0
    edges = _polygon_edges(P.vertices)
    return float(np.sum(np.sqrt(edges.length2) * g(-edges.normals)))


def wulff_tv_and_area(g: Gauge) -> tuple[float, float]:
    """(tv, area) of the Wulff shape, asserting the identity tv = n * area
    (exact for polyhedral gauges, 1e-4 for sampled smooth ones)."""
    shape = g.wulff()
    poly = ConvexPolygon(shape.vertices)
    area = poly.area()
    if area <= 0:
        raise ValueError("degenerate Wulff polygon")
    tv = polygon_tv_phi(poly, g)
    tol = 1e-9 if shape.exact else 1e-4
    if abs(tv - 2.0 * area) > tol * max(1.0, tv):
        raise AssertionError(
            f"Wulff identity violated: tv={tv!r}, n*area={2 * area!r}")
    return tv, area


def isoperimetric_constant(g: Gauge, n: int = 2) -> float:
    """C with |A|^((n-1)/n) <= C * TV_phi(A); equals n^-1 |W|^(-1/n)."""
    if n != 2:
        raise ValueError("the Wulff area is only computable on 2-D polygons")
    _, area = wulff_tv_and_area(g)
    return float(n**-1 * area ** (-1.0 / n))


@dataclass
class CircleExampleResult:
    """Closed forms for the optimal shape U = B cap [-h, h]^2 of the unit
    disk under the 1-norm anisotropy."""

    lam: float
    s: float
    h: float
    tv: float
    area: float
    energy: float
    valid: bool


def circle_example(lam: float) -> CircleExampleResult:
    """Evaluates tv = 8h, the clipped-disk area and the energy of chi_U;
    valid only while h = sqrt(1 - 1/lam^2) stays in [1/sqrt(2), 1]."""
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    s = 1.0 / lam
    hsq = 1.0 - s * s
    h = math.sqrt(hsq) if hsq > 0 else 0.0
    valid = 1.0 / math.sqrt(2.0) - 1e-12 <= h <= 1.0
    cap = math.asin(min(s, 1.0)) - s * h
    tv = 8.0 * h
    area = math.pi - 4.0 * cap
    energy = tv + 4.0 * lam * cap
    return CircleExampleResult(lam=lam, s=s, h=h, tv=tv, area=area,
                               energy=energy, valid=valid)


def circle_optimality_threshold() -> float:
    """Root on [2, 3], by bisection, of the clipped disk's energy less the
    empty shape's, lam pi; the opening beats the empty shape above it."""

    def gfun(lam: float) -> float:
        return circle_example(lam).energy - lam * math.pi

    lo, hi = 2.0, 3.0
    flo = gfun(lo)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-7:
            break
        if gfun(mid) * flo > 0:
            lo = mid
            flo = gfun(lo)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _clip_halfplane(vertices: np.ndarray, normal: np.ndarray,
                    offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by n.x <= b."""
    d = vertices @ normal - offset
    keep = d <= 1e-12
    if np.all(keep):
        return vertices
    out = []
    n = len(vertices)
    for i in range(n):
        j = (i + 1) % n
        if keep[i]:
            out.append(vertices[i])
        if keep[i] != keep[j]:
            t = d[i] / (d[i] - d[j])
            out.append(vertices[i] + t * (vertices[j] - vertices[i]))
    if not out:
        return np.zeros((0, 2))
    return _dedupe(np.array(out))


def _dedupe(vertices: np.ndarray) -> np.ndarray:
    if len(vertices) == 0:
        return vertices
    keep = [0]
    for i in range(1, len(vertices)):
        if np.linalg.norm(vertices[i] - vertices[keep[-1]]) > 1e-12:
            keep.append(i)
    if len(keep) > 1 and np.linalg.norm(vertices[keep[-1]] - vertices[keep[0]]) <= 1e-12:
        keep.pop()
    return vertices[keep]


def minkowski_sum(P: ConvexPolygon, Q: ConvexPolygon) -> ConvexPolygon:
    """Convex Minkowski sum by merging the edge fans in angle order."""
    if P.is_empty or Q.is_empty:
        return ConvexPolygon(np.zeros((0, 2)))

    def edge_list(poly):
        v = poly.vertices
        start = int(np.lexsort((v[:, 0], v[:, 1]))[0])  # lowest, then leftmost
        v = np.roll(v, -start, axis=0)
        return v[0], np.roll(v, -1, axis=0) - v

    p0, pe = edge_list(P)
    q0, qe = edge_list(Q)
    # edge angles CCW from the +x axis; starting at the bottom-most vertex
    # makes them increase along each polygon
    angles_p = np.arctan2(pe[:, 1], pe[:, 0]) % (2.0 * math.pi)
    angles_q = np.arctan2(qe[:, 1], qe[:, 0]) % (2.0 * math.pi)
    i = j = 0
    edges = []
    while i < len(pe) or j < len(qe):
        if j >= len(qe) or (i < len(pe) and angles_p[i] <= angles_q[j]):
            edges.append(pe[i]); i += 1
        else:
            edges.append(qe[j]); j += 1
    verts = np.cumsum(np.vstack([[p0 + q0], edges[:-1]]), axis=0)
    return ConvexPolygon(_dedupe(verts))


def opening_by_wulff(C: ConvexPolygon, s: float, g: Gauge) -> ConvexPolygon:
    """Morphological opening of C by s * W: erosion, each face of C offset
    inward by s * (support of W at its normal), then Minkowski dilation.
    May return the empty polygon."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0 or C.is_empty:
        return ConvexPolygon(C.vertices.copy())
    wulff = g.wulff().vertices
    edges = _polygon_edges(C.vertices)
    verts = C.vertices
    for nvec, b in zip(edges.normals, edges.offsets):
        support = float(np.max(wulff @ nvec))
        verts = _clip_halfplane(verts, nvec, b - s * support)
        if len(verts) < 3:
            return ConvexPolygon(np.zeros((0, 2)))
    return minkowski_sum(ConvexPolygon(verts), ConvexPolygon(wulff).scaled(s))


def shape_energy_ratio(P: ConvexPolygon, g: Gauge) -> float:
    """TV_phi(P) / |P|, the quantity the optimal-shape criterion compares
    against lambda."""
    area = P.area()
    if area <= 0:
        raise ValueError("polygon has zero area")
    return polygon_tv_phi(P, g) / area


def hausdorff_distance(P: ConvexPolygon, Q: ConvexPolygon) -> float:
    """Symmetric Hausdorff distance between convex polygons, exact from the
    vertices alone: the distance to a convex set is a convex function, so
    its maximum over a convex polygon sits at a vertex."""
    if P.is_empty or Q.is_empty:
        raise ValueError("Hausdorff distance needs nonempty polygons")

    def directed(A: np.ndarray, B: PolygonEdges) -> float:
        gaps = A - _project_convex_polygon(A.copy(), B)
        return float(np.max(np.linalg.norm(gaps, axis=-1)))

    edges_p, edges_q = _polygon_edges(P.vertices), _polygon_edges(Q.vertices)
    return max(directed(P.vertices, edges_q), directed(Q.vertices, edges_p))
