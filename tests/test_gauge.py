import json
import math
from fractions import Fraction

import numpy as np
import pytest

from wulff_tvl1 import gauge, projection
from wulff_tvl1.gauge import (Gauge, _conjugate_exponent, _convex_hull_ccw,
                              _pnorm, dual_extremal, eval_dual, eval_gauge,
                              project_minus_wulff, wulff_shape)
from wulff_tvl1.projection import (_polygon_edges, _project_convex_polygon,
                                   _project_disk)

from conftest import (GAUGE_ZOO, REFUSED_GAUGE_SPECS, brute_force_dual,
                      random_convex_polygon)


def test_l1_evaluation():
    g = Gauge.p_norm(1)
    assert eval_gauge(g, (1.0, 1.0)) == 2.0


def test_zero_maps_to_zero(any_gauge):
    assert eval_gauge(any_gauge, np.zeros(any_gauge.dim)) == 0.0
    assert eval_dual(any_gauge, np.zeros(any_gauge.dim)) == 0.0


def test_asymmetric_is_not_even():
    g = Gauge.asymmetric([0.5, 0.0])
    assert eval_gauge(g, (1.0, 0.0)) == pytest.approx(1.5)
    assert eval_gauge(g, (-1.0, 0.0)) == pytest.approx(0.5)


def reference_pnorm(y: np.ndarray, p: float) -> np.ndarray:
    """|y|_p as a reduction over the last axis."""
    a = np.abs(y)
    if p == 1.0:
        return a.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    if math.isinf(p):
        return a.max(axis=-1)
    return (a**p).sum(axis=-1) ** (1.0 / p)


@pytest.mark.parametrize("shape", [(17, 13, 2), (2,)], ids=["field", "vector"])
@pytest.mark.parametrize("name", sorted(n for n, g in GAUGE_ZOO.items()
                                        if g.kind in ("p-norm", "weighted")))
def test_pnorm_planes_match_axis_reduction(name, shape, rng):
    g = GAUGE_ZOO[name]
    y = 3.0 * rng.normal(size=shape)
    y.reshape(-1)[:2] = (0.0, -0.0)
    w = g.weights if g.kind == "weighted" else 1.0
    assert np.array_equal(_pnorm(y, g.p), reference_pnorm(y, g.p))
    assert np.array_equal(g(y), reference_pnorm(y * w, g.p))
    assert np.array_equal(g.dual(y),
                          reference_pnorm(y / w, _conjugate_exponent(g.p)))


@pytest.mark.parametrize("name", ["asymmetric", "asymmetric-skew"])
def test_asymmetric_planes_match_the_axis_formulas(name, rng):
    # y @ a may fuse its multiply-add, so the planes agree to about an ulp
    g = GAUGE_ZOO[name]
    a = g.shift
    y = 3.0 * rng.normal(size=(40, 30, 2))
    norm = np.sqrt((y * y).sum(axis=-1))
    np.testing.assert_allclose(g(y), norm + y @ a, rtol=1e-15, atol=1e-15)
    aa = float(a @ a)
    ay = y @ a
    dual = (-ay + np.sqrt(ay * ay + (1.0 - aa) * norm**2)) / (1.0 - aa)
    np.testing.assert_allclose(g.dual(y), dual, rtol=1e-14)
    assert g.dual(np.array([3.0, -4.0])) == pytest.approx(
        float(dual_extremal(g, np.array([3.0, -4.0])) @ [3.0, -4.0]), rel=1e-14)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_pnorm_other_dimensions(dim, p, rng):
    y = rng.normal(size=(6, 7, dim))
    np.testing.assert_allclose(_pnorm(y, p), reference_pnorm(y, p), rtol=1e-14)
    g = Gauge.p_norm(p, dim=dim)
    np.testing.assert_allclose(g(y[0, 0]), reference_pnorm(y[0, 0], p),
                               rtol=1e-14)
    # the extremal direction attains the dual (a cube vertex for p = inf)
    eta = dual_extremal(g, y[0, 0])
    assert float(g(eta)) == pytest.approx(1.0, rel=1e-14)
    assert float(y[0, 0] @ eta) == pytest.approx(float(g.dual(y[0, 0])),
                                                 rel=1e-14)
    if dim != 2:
        with pytest.raises(ValueError, match="2-D only"):
            g.wulff()


def test_positive_homogeneity(any_gauge, rng):
    for _ in range(50):
        y = rng.normal(size=2) * rng.uniform(0.1, 10)
        alpha = rng.uniform(0.01, 100)
        assert eval_gauge(any_gauge, alpha * y) == pytest.approx(
            alpha * eval_gauge(any_gauge, y), rel=1e-12)


def test_positivity_and_convexity(any_gauge, rng):
    for _ in range(100):
        y = rng.normal(size=2)
        z = rng.normal(size=2)
        assert eval_gauge(any_gauge, y) > 0 or not np.any(y)
        mid = eval_gauge(any_gauge, (y + z) / 2)
        assert mid <= (eval_gauge(any_gauge, y) + eval_gauge(any_gauge, z)) / 2 + 1e-12


def test_polyhedral_is_support_function_of_minus_wulff():
    verts = np.array([[2, 0], [1, 2], [-1, 1], [-2, -1], [0, -2], [1.5, -1.0]])
    g = Gauge.polyhedral(verts)
    y = np.array([0.3, -1.7])
    assert eval_gauge(g, y) == pytest.approx(np.max((-g.wulff_vertices) @ y))


def test_dual_linf_of_l1():
    # conjugate-exponent pair: the dual of the 1-norm is the max-norm
    assert eval_dual(Gauge.p_norm(1), (3.0, -2.0)) == 3.0


def test_dual_polyhedral_square():
    g = Gauge.polyhedral([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    # frozen from brute_force_dual(g, (1, 1)) = 1.0 (max-norm of the point)
    assert eval_dual(g, (1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert eval_dual(g, (1.0, 1.0)) == pytest.approx(
        brute_force_dual(g, (1.0, 1.0)), abs=1e-5)


def test_dual_matches_brute_force(any_gauge, rng):
    for _ in range(5):
        x = rng.normal(size=2) * rng.uniform(0.2, 4)
        assert eval_dual(any_gauge, x) == pytest.approx(
            brute_force_dual(any_gauge, x), rel=2e-5)


def test_cauchy_schwarz(any_gauge, rng):
    x = rng.normal(size=(10000, 2)) * 3
    y = rng.normal(size=(10000, 2)) * 3
    lhs = np.einsum("ij,ij->i", x, y)
    rhs = eval_dual(any_gauge, x) * eval_gauge(any_gauge, y)
    assert np.all(lhs <= rhs + 1e-10)


def test_bipolar_identity_exact_kinds(rng):
    # the dual gauge has Wulff shape -{phi <= 1} (minus-sign convention for
    # non-even gauges), so building that polyhedral gauge and dualising it
    # must reproduce phi
    for name in ("l1", "linf", "square", "hexagon"):
        g = GAUGE_ZOO[name]
        gd = Gauge.polyhedral(-g._unit_ball_vertices)
        for _ in range(50):
            y = rng.normal(size=2) * rng.uniform(0.1, 5)
            assert eval_dual(gd, y) == pytest.approx(
                eval_gauge(g, y), rel=1e-12)


def test_bipolar_identity_sampled_smooth(rng):
    # smooth unit balls enter as fine polygons; 8192 vertices keep the
    # inscribed-polygon support error below the 1e-6 tolerance
    theta = np.linspace(0, 2 * math.pi, 8192, endpoint=False)
    d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    for name in ("l2", "p3", "asymmetric"):
        g = GAUGE_ZOO[name]
        ball = d / g(d)[:, None]
        gd = Gauge.polyhedral(-ball)
        for _ in range(25):
            y = rng.normal(size=2) * rng.uniform(0.1, 5)
            assert eval_dual(gd, y) == pytest.approx(eval_gauge(g, y), rel=1e-6)


def test_dual_extremal_examples():
    assert dual_extremal(Gauge.p_norm(2), np.array([3.0, 4.0])) == pytest.approx(
        [0.6, 0.8])
    assert dual_extremal(Gauge.p_norm(1), np.array([2.0, 0.0])) == pytest.approx(
        [1.0, 0.0])
    # tie between (1,0) and (0,1); lowest index in the stored vertex list wins
    assert dual_extremal(Gauge.p_norm(1), np.array([1.0, 1.0])) == pytest.approx(
        [1.0, 0.0])


def test_dual_extremal_rejects_zero(any_gauge):
    with pytest.raises(ValueError):
        dual_extremal(any_gauge, np.zeros(2))
    with pytest.raises(ValueError, match="single vector"):
        dual_extremal(any_gauge, np.ones((3, 2)))


def test_dual_extremal_achieves_equality(any_gauge, rng):
    for _ in range(100):
        x = rng.normal(size=2) * rng.uniform(0.1, 5)
        eta = dual_extremal(any_gauge, x)
        assert eval_gauge(any_gauge, eta) == pytest.approx(1.0, abs=1e-9)
        assert float(x @ eta) == pytest.approx(eval_dual(any_gauge, x), abs=1e-9)


def test_wulff_l1_is_square():
    w = wulff_shape(Gauge.p_norm(1))
    assert w.exact
    assert sorted(map(tuple, w.vertices.tolist())) == [
        (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_wulff_l2_is_720gon():
    w = wulff_shape(Gauge.p_norm(2))
    assert not w.exact and len(w.vertices) == 720
    assert np.allclose(np.linalg.norm(w.vertices, axis=-1), 1.0)


def test_wulff_asymmetric_is_shifted_disk():
    a = np.array([0.5, 0.0])
    w = wulff_shape(Gauge.asymmetric(a))
    centre = w.vertices.mean(axis=0)
    assert centre == pytest.approx(-a, abs=1e-12)
    assert np.allclose(np.linalg.norm(w.vertices - centre, axis=-1), 1.0)


def test_wulff_defining_inequality(any_gauge):
    # -x.y <= phi(y) for every stored vertex x over a 360-direction sweep
    w = wulff_shape(any_gauge)
    theta = np.linspace(0, 2 * math.pi, 360, endpoint=False)
    d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    lhs = (-w.vertices) @ d.T
    assert np.all(lhs <= eval_gauge(any_gauge, d)[None, :] + 1e-9)


def test_projection_l1_clamps():
    g = Gauge.p_norm(1)  # -W is the unit square
    assert project_minus_wulff(g, np.array([2.0, -0.5])) == pytest.approx([1.0, -0.5])


def test_projection_l2_radial():
    g = Gauge.p_norm(2)
    assert project_minus_wulff(g, np.array([3.0, 4.0])) == pytest.approx([0.6, 0.8])


def test_projection_fixes_members(any_gauge, rng):
    x = rng.normal(size=(300, 2)) * 2
    inside = eval_dual(any_gauge, x) <= 1.0
    assert inside.any()
    proj = project_minus_wulff(any_gauge, x)
    assert np.allclose(proj[inside], x[inside])


def test_projection_of_a_single_vector(any_gauge, rng):
    # a lone 2-vector projects to the bytes it gets inside a field
    field = rng.normal(size=(3, 5, 2)) * 3
    field[0, 0] = 0.0
    proj = any_gauge.project_minus_wulff(field)
    for i, j in np.ndindex(3, 5):
        single = any_gauge.project_minus_wulff(field[i, j].copy())
        assert single.shape == (2,)
        assert single.tobytes() == proj[i, j].tobytes()


def test_projection_idempotent_and_feasible(any_gauge, rng):
    x = rng.normal(size=(500, 2)) * 4
    p1 = project_minus_wulff(any_gauge, x)
    p2 = project_minus_wulff(any_gauge, p1)
    assert np.max(np.abs(p2 - p1)) <= 1e-12
    assert float(np.max(eval_dual(any_gauge, p1))) <= 1.0 + 1e-12


def test_projection_nonexpansive(any_gauge, rng):
    x = rng.normal(size=(400, 2)) * 4
    y = rng.normal(size=(400, 2)) * 4
    px = project_minus_wulff(any_gauge, x)
    py = project_minus_wulff(any_gauge, y)
    num = np.linalg.norm(px - py, axis=-1)
    den = np.linalg.norm(x - y, axis=-1)
    assert np.all(num <= den + 1e-12)


def assert_variational_inequality(g: Gauge, x: np.ndarray, px: np.ndarray):
    # P(x) is the projection onto -W iff <x - P(x), z - P(x)> <= 0 for every
    # z in -W; z = d / phi_dual(d) samples the boundary of -W exactly
    theta = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    z = d / eval_dual(g, d)[:, None]
    r = x - px
    lhs = r @ z.T - np.einsum("ij,ij->i", r, px)[:, None]
    norm_r = np.linalg.norm(r, axis=-1)
    bound = 1e-12 * (1.0 + norm_r)
    assert np.all(lhs <= bound[:, None])


@pytest.mark.parametrize("name", sorted(GAUGE_ZOO))
def test_projection_variational_inequality(name, rng):
    g = GAUGE_ZOO[name]
    x = rng.normal(size=(300, 2)) * 4
    assert_variational_inequality(g, x, project_minus_wulff(g, x))


INF_NORM_KINDS = [Gauge.p_norm(math.inf), Gauge.weighted(math.inf, [1.5, 1.5]),
                  Gauge.weighted(math.inf, [2.0, 0.7])]
INF_NORM_IDS = ["linf", "linf-1.5-1.5", "linf-2-0.7"]


def l1_ball_weights(g: Gauge) -> np.ndarray:
    """w of the l1 ball |z_1| / w_1 + |z_2| / w_2 <= 1 that is -W for an
    inf-norm kind."""
    return g.weights if g.kind == "weighted" else np.ones(2)


@pytest.mark.parametrize("g", [Gauge.weighted(3, [1.0, 50.0]), Gauge.p_norm(1.1),
                               Gauge.p_norm(10)] + INF_NORM_KINDS,
                         ids=["weighted-p3", "p1.1", "p10"] + INF_NORM_IDS)
def test_projection_hard_inputs(g, rng):
    # q-norm balls that are very flat, nearly square or nearly a diamond,
    # and the l1 balls of the inf-norm kinds: points on and next to the axes
    # (down to subnormal offsets), the origin, far points (up to 1e12),
    # points within 1e-12 of the boundary and interior points
    theta = rng.uniform(0.0, 2.0 * math.pi, 200)
    d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    boundary = d / eval_dual(g, d)[:, None]
    jitter = rng.normal(size=(200, 2))
    jitter *= 1e-12 / np.linalg.norm(jitter, axis=-1, keepdims=True)
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    off_axes = axes[:, ::-1] * np.array([[5e-324], [-1e-300], [1e-150], [-1e-12]])
    outside = np.concatenate([
        axes * 3.0, axes * 1e6, axes * 3.0 + off_axes, axes * 1e6 + off_axes,
        1e6 * d, 1e9 * d, 1e12 * d,
        boundary + jitter, boundary * rng.uniform(1.0, 4.0, size=(200, 1))])
    interior = np.concatenate([boundary * rng.uniform(0.0, 0.999, size=(200, 1)),
                               axes * 1e-3, [[0.0, 0.0]]])
    x = np.concatenate([outside, interior])
    px = project_minus_wulff(g, x)
    assert_variational_inequality(g, x, px)
    assert np.all(eval_dual(g, px) <= 1.0 + 1e-12)
    assert np.array_equal(px[len(outside):], interior)
    with pytest.raises(ValueError):
        project_minus_wulff(g, np.ones((4, 3)))
    with pytest.raises(ValueError):
        project_minus_wulff(Gauge.weighted(g.p, [1.0, 2.0, 3.0]), np.ones((4, 3)))


@pytest.mark.parametrize("g", INF_NORM_KINDS, ids=INF_NORM_IDS)
def test_inf_norm_projection_on_the_square(g):
    # -W is a square with vertices (+-w_1, 0), (0, +-w_2): its vertices come
    # back unchanged, and with equal weights so do the dyadic points of its
    # edges
    w = l1_ball_weights(g)
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    vertices = axes * w
    assert np.array_equal(project_minus_wulff(g, vertices), vertices)
    t = np.array([0.25, 0.5, 0.75])[:, None]
    edges = np.concatenate([t * vertices[k] + (1 - t) * vertices[(k + 1) % 4]
                            for k in range(4)])
    if w[0] == w[1]:
        assert np.array_equal(project_minus_wulff(g, edges), edges)


def closed_form_l1_ball(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Condat's 2-D closed form for the ball |z_1| / w_1 + |z_2| / w_2 <= 1:
    z = sign(x) max(|x| - mu c, 0), c = 1 / w, mu the largest root over the
    active sets."""
    c = 1.0 / w
    a = np.abs(x)
    mu = np.maximum.reduce([(c[0] * a[..., 0] - 1.0) / c[0] ** 2,
                            (c[1] * a[..., 1] - 1.0) / c[1] ** 2,
                            ((a * c).sum(axis=-1) - 1.0) / (c @ c),
                            np.zeros(x.shape[:-1])])
    return np.copysign(np.maximum(a - mu[..., None] * c, 0.0), x)


@pytest.mark.parametrize("g", INF_NORM_KINDS, ids=INF_NORM_IDS)
def test_inf_norm_projection_matches_the_closed_form(g, rng):
    # the rotated box of equal weights and the edge projection of unequal
    # ones agree with Condat's closed form to a few ulp of (1 + |x|), near,
    # far and next to the axes
    w = l1_ball_weights(g)
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    x = np.concatenate([rng.normal(size=(2000, 2)) * scale
                        for scale in (0.3, 1.0, 4.0, 1e6)]
                       + [axes * 3.0 + axes[:, ::-1] * 5e-324,
                          axes * 1e6 + axes[:, ::-1]])
    px = project_minus_wulff(g, x)
    bound = 4.0 * np.finfo(float).eps * (1.0 + np.abs(x).max(axis=-1))
    assert np.all(np.abs(px - closed_form_l1_ball(x, w)).max(axis=-1) <= bound)


def exact_clipped_distance2(y, a, d) -> Fraction:
    """Exact squared distance from y to the segment a + [0, 1] d."""
    y, a, d = ([Fraction(float(c)) for c in v] for v in (y, a, d))
    t = min(max(sum((yk - ak) * dk for yk, ak, dk in zip(y, a, d))
                / sum(dk * dk for dk in d), Fraction(0)), Fraction(1))
    return sum((yk - ak - t * dk) ** 2 for yk, ak, dk in zip(y, a, d))


def all_edges_polygon_projection(x: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """For points outside the polygon, the clipped projection onto the edge
    whose exact clipped projection is nearest (ties to the lowest edge),
    computed in floating point as the solver's routine computes it.  Edges
    whose rounded distances lie within 1e-12 (1 + |x|) of the least, and
    whose rounded projections differ, are compared exactly."""
    normals, offsets = _polygon_edges(vertices)[:2]
    out = x.copy()
    outside = (x @ normals.T - offsets).max(axis=-1) > 1e-12
    y = x[outside][:, None, :]
    a = vertices[None]
    d = np.roll(vertices, -1, axis=0)[None] - a
    t = np.clip(((y - a) * d).sum(axis=-1) / (d * d).sum(axis=-1), 0.0, 1.0)
    c = a + t[..., None] * d
    dist = np.sqrt(((y - c) ** 2).sum(axis=-1))
    nearest = dist.argmin(axis=-1)
    near = dist <= dist.min(axis=-1, keepdims=True) + 1e-12 * (1.0 + np.abs(y).max(axis=-1))
    for i in np.flatnonzero(near.sum(axis=-1) > 1):
        edges = np.flatnonzero(near[i])
        if len(np.unique(c[i, edges], axis=0)) > 1:
            nearest[i] = min(edges, key=lambda e: (
                exact_clipped_distance2(y[i, 0], a[0, e], d[0, e]), e))
    out[outside] = c[np.arange(len(c)), nearest]
    return out


def polygon_edge_cases(vertices: np.ndarray) -> np.ndarray:
    """Points where the inscribed-disk pre-filter and the excess test meet,
    if 0 is inside: on circles about 0 at r (1 - 1e-12), r and r (1 + 1e-12)
    for the inscribed radius r = min_e b_e (the tangent points r n_e among
    them).  Then points within 1e-12 of the two boundary rays of every
    vertex's normal cone, where a vertex and an edge point are the nearest
    candidates within rounding; the feet b_e n_e of every edge line, the
    vertices, the origin, far and non-finite points."""
    normals, offsets = _polygon_edges(vertices)[:2]
    r = offsets.min()
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    directions = np.concatenate([normals, np.stack([np.cos(theta), np.sin(theta)], -1)])
    circles = [directions * (r * scale) for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)
               if r > 0.0]
    # edge e runs from vertex e to vertex e + 1 along the unit tangent
    # (-n_1, n_0); the rays are v + s n_e at both of its ends
    tangents = np.stack([-normals[:, 1], normals[:, 0]], axis=-1)
    rays = [np.concatenate([vertices, np.roll(vertices, -1, axis=0)]) + s * np.tile(normals, (2, 1))
            + nudge * np.tile(tangents, (2, 1)) for s in (1.0, 1e3)
            for nudge in (-1e-12, 0.0, 1e-12)]
    inf, nan = math.inf, math.nan
    odd = [[0.0, 0.0], [nan, 0.0], [0.0, nan], [nan, nan], [inf, 0.0], [-inf, 0.0],
           [0.0, inf], [0.0, -inf], [inf, inf], [-inf, inf], [1e6, -3e6], [-2e6, 1e6]]
    return np.concatenate(circles + rays + [offsets[:, None] * normals, vertices,
                                            np.array(odd)])


def test_polygon_projection_uses_the_most_violated_edge(rng):
    # projecting onto the edge of largest excess alone matches the nearest
    # point over all edges: to the bit where the vertices and edge vectors
    # are exact (the square, the hexagon, polygons on a 1/8 grid), and to an
    # ulp on random polygons.  The inscribed-disk pre-filter changes no bit,
    # non-finite points included (whose nearest point is undefined); polygons
    # that exclude 0 run without it
    def check(edges, x, project):
        with np.errstate(invalid="ignore", over="ignore"):
            got = project(x)
            unfiltered = _project_convex_polygon(x.copy(),
                                                 edges._replace(inradius=0.0))
        assert got.tobytes() == unfiltered.tobytes()
        finite = np.isfinite(x).all(axis=-1)
        ref = all_edges_polygon_projection(x[finite], edges.starts)
        assert got[finite].tobytes() == ref.tobytes()
        nan = np.isnan(x).any(axis=-1)
        assert np.array_equal(got[nan], x[nan], equal_nan=True)

    for name in ("square", "hexagon"):
        g = GAUGE_ZOO[name]
        x = rng.normal(size=(20000, 2)) * rng.choice([0.5, 2.0, 1e6], size=(20000, 1))
        polygon = g._minus_wulff_edges.starts
        check(g._minus_wulff_edges, np.concatenate([x, polygon_edge_cases(polygon)]),
              g.project_minus_wulff)
    grid_polygons = [np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0], [1.0, 2.0]])]
    while len(grid_polygons) < 4:
        vertices = np.round(random_convex_polygon(rng, scale=2.0) * 8.0) / 8.0
        try:
            # moved into x_1, x_2 >= 1, so 0 lies outside
            grid_polygons.append(_convex_hull_ccw(vertices + 1.0 - vertices.min(axis=0)))
        except ValueError:
            continue
    for vertices in grid_polygons:
        edges = _polygon_edges(vertices)
        assert edges.inradius < 0.0
        x = np.concatenate([rng.normal(size=(5000, 2)) * 3.0 + vertices.mean(axis=0),
                            polygon_edge_cases(vertices)])
        check(edges, x, lambda x: _project_convex_polygon(x.copy(), edges))
    for _ in range(10):
        vertices = random_convex_polygon(rng, scale=2.0)
        vertices -= vertices.mean(axis=0)  # 0 strictly inside
        g = Gauge.polyhedral(vertices)
        x = rng.normal(size=(5000, 2)) * 3.0
        ref = all_edges_polygon_projection(x, g._minus_wulff_edges.starts)
        assert np.abs(project_minus_wulff(g, x) - ref).max() <= 4e-15


def test_polygon_edges_are_built_once_per_gauge(monkeypatch):
    # the edge data of -W is cached on the gauge: after the first
    # projection, neither a projection nor the dual rebuilds it
    g = Gauge.polyhedral([[2, 0], [1, 2], [-1, 1], [-2, -1], [0, -2], [1.5, -1]])
    calls = []

    def counted(vertices, _fn=projection._polygon_edges):
        calls.append(len(vertices))
        return _fn(vertices)
    monkeypatch.setattr(projection, "_polygon_edges", counted)
    monkeypatch.setattr(gauge, "_polygon_edges", counted)
    x = np.random.default_rng(3).normal(size=(32, 32, 2))
    first = g.project_minus_wulff(x)
    assert calls == [6]
    assert g.project_minus_wulff(x).tobytes() == first.tobytes()
    g.dual(x)
    assert calls == [6]


@pytest.mark.parametrize("name", ["asymmetric", "asymmetric-skew"])
@pytest.mark.parametrize("layout", ["c", "fortran", "planar", "rows"])
def test_asymmetric_projection_is_the_shifted_disk(name, layout, rng):
    # the plane-wise projection does the arithmetic of a + P_disk(x - a)
    g = GAUGE_ZOO[name]
    x = _in_layout(rng.normal(scale=1.5, size=(16, 12, 2)), layout)
    y = x - g.shift
    radius = np.sqrt(y[..., 0] * y[..., 0] + y[..., 1] * y[..., 1])
    ref = g.shift + y / np.maximum(radius, 1.0)[..., None]
    assert project_minus_wulff(g, x).tobytes() == np.ascontiguousarray(ref).tobytes()
    vector = x[3, 4].copy()
    assert project_minus_wulff(g, vector).tobytes() == ref[3, 4].tobytes()


@pytest.mark.parametrize("layout", ["c", "fortran", "planar"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("shifted", [False, True], ids=["centred", "shifted"])
def test_the_disk_routine_keeps_the_bits_of_both_former_ones(layout, dim,
                                                             shifted, rng):
    # x / max(|x|, 1) over the whole array for p = 2, and per plane
    # c + (x - c) / max(|x - c|, 1) for the asymmetric kinds; with no centre
    # nothing is added back, so -0.0 keeps its sign
    x = rng.normal(scale=1.5, size=(9, 7, dim))
    x.reshape(-1)[:6] = (0.0, -0.0, -0.0, -0.0, 0.0, -0.0)
    x = _in_layout(x, layout)
    centre = np.array([0.3, -0.4, 0.2][:dim]) if shifted else None
    y = x - centre if shifted else x
    total = y[..., 0] * y[..., 0]
    for i in range(1, dim):
        total = total + y[..., i] * y[..., i]
    ref = y / np.maximum(np.sqrt(total), 1.0)[..., None]
    if shifted:
        ref += centre
    ref = np.ascontiguousarray(ref).tobytes()
    new = _project_disk(x, np.empty(x.shape), centre)
    own = _in_layout(np.ascontiguousarray(x), layout)
    assert new.tobytes() == ref
    assert np.ascontiguousarray(_project_disk(own, own, centre)).tobytes() == ref
    if not shifted:
        assert np.signbit(new.reshape(-1)[[1, 2, 3, 5]]).all()


def _in_layout(x: np.ndarray, layout: str) -> np.ndarray:
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "planar":  # (2, H, W) storage viewed as (H, W, 2)
        return np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)
    if layout == "rows":  # (H, 2, W) storage: no flat view of a plane
        return np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    if layout == "strided":  # every other row of a taller array
        return np.repeat(x, 2, axis=0)[::2]
    return x.copy()


def _projects_in_place(g: Gauge) -> bool:
    """The l1-ball (p = inf), q-ball and polygon projections, which work in
    place on component planes; the clip and the disks write into any out."""
    return g.kind == "polyhedral" or (g.kind != "asymmetric" and g.p != 1.0
                                      and (g.p != 2.0 or g.kind == "weighted"))


IN_PLACE = sorted(n for n, g in GAUGE_ZOO.items() if _projects_in_place(g))


@pytest.mark.parametrize("layout", ["c", "fortran", "planar", "rows", "strided"])
def test_kernels_ignore_the_memory_layout(any_gauge, layout, rng):
    # a projection copies x into a new C-ordered array, whatever x's layout
    # (one that wrote through a reshape of a non-C input used to return it
    # unprojected); the evaluators read any layout
    x = rng.normal(scale=1.5, size=(16, 12, 2))
    ref = project_minus_wulff(any_gauge, x)
    xl = _in_layout(x, layout)
    px = project_minus_wulff(any_gauge, xl)
    assert px.tobytes() == ref.tobytes() and px.flags.c_contiguous
    assert np.array_equal(xl, x)
    assert float(np.max(eval_dual(any_gauge, px))) <= 1.0 + 1e-12
    assert any_gauge(xl).tobytes() == any_gauge(x).tobytes()
    assert any_gauge.dual(xl).tobytes() == any_gauge.dual(x).tobytes()
    for empty in (np.zeros((0, 2)), _in_layout(np.zeros((3, 0, 2)), layout)):
        pe = project_minus_wulff(any_gauge, empty)
        assert pe.shape == empty.shape and pe.flags.c_contiguous
        assert any_gauge(empty).shape == any_gauge.dual(empty).shape == empty.shape[:-1]


@pytest.mark.parametrize("layout", ["c", "planar", "rows"])
def test_projection_into_out_matches_a_new_array(any_gauge, layout, rng):
    # out=x (as the solver projects its dual buffer) and out= another buffer
    # give the bytes of the call that allocates, non-finite points included;
    # an out in (H, 2, W) storage, which has no row-major component plane,
    # goes only to the clip and the disks (the others refuse it, below)
    points = np.concatenate([rng.normal(scale=1.5, size=(300, 2)),
                             polygon_edge_cases(-any_gauge.wulff(16).vertices)])
    field = np.resize(points, (len(points) // 2 + 1, 2, 2))  # two columns
    x = _in_layout(field, layout)
    out_layout = "c" if layout == "rows" and _projects_in_place(any_gauge) else layout
    with np.errstate(all="ignore"):
        ref = any_gauge.project_minus_wulff(field)
        new = any_gauge.project_minus_wulff(x)
        other = _in_layout(np.zeros_like(field), out_layout)
        into_other = any_gauge.project_minus_wulff(x, out=other)
        own = _in_layout(field, out_layout)
        into_own = any_gauge.project_minus_wulff(own, out=own)
    assert into_other is other and into_own is own
    assert ref.tobytes() == new.tobytes() == other.tobytes() == own.tobytes()
    assert np.array_equal(x, field, equal_nan=True)


@pytest.mark.parametrize("layout", ["fortran", "rows"])
@pytest.mark.parametrize("name", IN_PLACE)
def test_an_out_without_row_major_planes_is_refused(name, layout, rng):
    # the in-place routines take 1-D views of the component planes; where
    # out's strides give none they raise rather than fill out through a
    # copy, and the refused out keeps its contents
    g = GAUGE_ZOO[name]
    x = rng.normal(scale=1.5, size=(16, 12, 2))
    out = _in_layout(np.zeros_like(x), layout)
    with pytest.raises(ValueError, match="row-major"):
        g.project_minus_wulff(x, out=out)
    assert not out.any()
    own = _in_layout(x, layout)
    with pytest.raises(ValueError, match="row-major"):
        g.project_minus_wulff(own, out=own)
    assert np.array_equal(own, x)


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (5, 1), (3,), ()])
def test_a_wrong_component_count_is_refused(any_gauge, shape):
    # a 2-D gauge takes two components on the last axis.  Without the check
    # the square's projection of (4, 3) fives read the 12 numbers as two
    # planes of 6 and returned all ones, the asymmetric disk left the third
    # column of (3, 3) fives as np.empty_like found it, and the square
    # evaluated (5, 5, 5) on its first two components
    x = np.full(shape, 5.0)
    for call in (any_gauge, any_gauge.dual, any_gauge.project_minus_wulff,
                 any_gauge.dual_extremal):
        with pytest.raises(ValueError, match="expected 2 components"):
            call(x)


def test_the_in_place_projections_are_2d_only():
    for g in (Gauge.p_norm(math.inf, dim=3), Gauge.p_norm(3, dim=3),
              Gauge.weighted(2, [1.0, 2.0, 3.0])):
        with pytest.raises(ValueError, match="2-D only"):
            g.project_minus_wulff(np.zeros((4, 3)))
    # the clip and the disk take any dimension
    assert np.array_equal(Gauge.p_norm(1, dim=3).project_minus_wulff([2.0, -0.5, -3.0]),
                          [1.0, -0.5, -1.0])
    assert np.array_equal(Gauge.p_norm(2, dim=3).project_minus_wulff([0.0, 3.0, 4.0]),
                          [0.0, 0.6, 0.8])


def test_json_round_trip(any_gauge, rng):
    spec = json.dumps(any_gauge.to_json())
    g2 = Gauge.from_json(spec)
    for _ in range(20):
        y = rng.normal(size=2)
        assert eval_gauge(g2, y) == pytest.approx(eval_gauge(any_gauge, y),
                                                  rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 3])
def test_json_round_trip_keeps_the_dimension(dim):
    g = Gauge.from_json(json.dumps(Gauge.p_norm(2, dim=dim).to_json()))
    assert g.dim == dim
    assert g(np.full(dim, 2.0)) == Gauge.p_norm(2, dim=dim)(np.full(dim, 2.0))
    # 2-D specs name no dim, as every report written so far
    assert Gauge.p_norm(2).to_json() == {"kind": "p-norm", "p": 2.0}


def test_json_inf_exponent():
    g = Gauge.from_json('{"kind":"p-norm","p":"inf"}')
    assert math.isinf(g.p)
    assert eval_gauge(g, (3.0, -4.0)) == 4.0


def test_invalid_constructions():
    with pytest.raises(ValueError):
        Gauge.p_norm(0.5)
    with pytest.raises(ValueError):
        Gauge.weighted(2, [1.0, -1.0])
    with pytest.raises(ValueError, match="exponent"):
        Gauge.weighted(0.5, [1.0, 1.0])
    with pytest.raises(ValueError, match="3 distinct"):
        Gauge.polyhedral([[1, 0], [-1, 1], [1, 0]])
    with pytest.raises(ValueError, match="2-D only"):
        Gauge.polyhedral([[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        Gauge.asymmetric([1.0, 0.5])  # |a| >= 1
    with pytest.raises(ValueError):
        Gauge.polyhedral([[1, 1], [2, 2], [3, 3]])  # collinear
    with pytest.raises(ValueError):
        Gauge.polyhedral([[1, 1], [2, 1], [1.5, 2]])  # 0 outside
    with pytest.raises(ValueError):
        Gauge.from_json('{"kind":"nope"}')
    # NaN weights made every evaluation NaN; an infinite vertex gave
    # phi(0.3, -0.2) = 0.5 and left (3, 4) unprojected
    for build in (lambda: Gauge.weighted(1, [math.nan, 1.0]),
                  lambda: Gauge.weighted(math.inf, [1.0, math.inf]),
                  lambda: Gauge.weighted(2, []),
                  lambda: Gauge.asymmetric([math.nan, 0.0]),
                  lambda: Gauge.asymmetric([]),
                  lambda: Gauge.polyhedral([[math.inf, 0], [-1, 1], [-1, -1], [0, -1]]),
                  lambda: Gauge.p_norm(2, dim=0),
                  lambda: Gauge.p_norm(1, dim=2.0),
                  lambda: Gauge.p_norm(1, dim=True)):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("spec, field", REFUSED_GAUGE_SPECS.values(),
                         ids=REFUSED_GAUGE_SPECS.keys())
def test_non_finite_and_empty_parameters_are_refused(spec, field):
    with pytest.raises(ValueError, match=field):
        Gauge.from_json(spec)

