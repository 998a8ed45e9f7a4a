import json
import math

import numpy as np
import pytest

from wulff_tvl1.gauge import (Gauge, _conjugate_exponent, _pnorm, dual_extremal,
                              eval_dual, eval_gauge, project_minus_wulff,
                              wulff_shape)

from conftest import GAUGE_ZOO, brute_force_dual


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


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_pnorm_other_dimensions(dim, p, rng):
    y = rng.normal(size=(6, 7, dim))
    np.testing.assert_allclose(_pnorm(y, p), reference_pnorm(y, p), rtol=1e-14)
    np.testing.assert_allclose(Gauge.p_norm(p, dim=dim)(y[0, 0]),
                               reference_pnorm(y[0, 0], p), rtol=1e-14)


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
    assert not w.exact and w.vertex_count == 720
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


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="p = 3 projects onto the inscribed 720-gon"))
    if name == "p3" else name for name in sorted(GAUGE_ZOO)])
def test_projection_variational_inequality(name, rng):
    # P(x) is the projection onto -W iff <x - P(x), z - P(x)> <= 0 for every
    # z in -W; z = d / phi_dual(d) samples the boundary of -W exactly
    g = GAUGE_ZOO[name]
    x = rng.normal(size=(300, 2)) * 4
    px = project_minus_wulff(g, x)
    theta = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    z = d / eval_dual(g, d)[:, None]
    r = x - px
    lhs = r @ z.T - np.einsum("ij,ij->i", r, px)[:, None]
    bound = 1e-12 * (1.0 + np.linalg.norm(r, axis=-1))
    assert np.all(lhs <= bound[:, None])


def test_json_round_trip(any_gauge, rng):
    spec = json.dumps(any_gauge.to_json())
    g2 = Gauge.from_json(spec)
    for _ in range(20):
        y = rng.normal(size=2)
        assert eval_gauge(g2, y) == pytest.approx(eval_gauge(any_gauge, y),
                                                  rel=1e-12, abs=1e-12)


def test_json_inf_exponent():
    g = Gauge.from_json('{"kind":"p-norm","p":"inf"}')
    assert math.isinf(g.p)
    assert eval_gauge(g, (3.0, -4.0)) == 4.0


def test_invalid_constructions():
    with pytest.raises(ValueError):
        Gauge.p_norm(0.5)
    with pytest.raises(ValueError):
        Gauge.weighted(2, [1.0, -1.0])
    with pytest.raises(ValueError):
        Gauge.asymmetric([1.0, 0.5])  # |a| >= 1
    with pytest.raises(ValueError):
        Gauge.polyhedral([[1, 1], [2, 2], [3, 3]])  # collinear
    with pytest.raises(ValueError):
        Gauge.polyhedral([[1, 1], [2, 1], [1.5, 2]])  # 0 outside
    with pytest.raises(ValueError):
        Gauge.from_json('{"kind":"nope"}')
