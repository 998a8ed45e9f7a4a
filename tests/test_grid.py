import math

import numpy as np
import pytest

from wulff_tvl1.gauge import Gauge, _polygon_halfspaces
from wulff_tvl1.grid import (DualField, GridImage, backward_gradient,
                             cell_centers, coarea_check, divergence,
                             energy_decompose, forward_divergence,
                             forward_gradient, level_set, raster_convex_polygon,
                             raster_disk, reflect, tv_phi, tv_phi_dual_gap)

from conftest import GAUGE_ZOO, boundary_integral_oracle

L1 = Gauge.p_norm(1)
L2 = Gauge.p_norm(2)


# ----------------------------------------------------------------------
# gradient / divergence
# ----------------------------------------------------------------------

def test_gradient_of_constant_is_zero():
    u = GridImage(np.full((5, 7), 3.2), 0.5)
    assert not np.any(forward_gradient(u).values)


def test_gradient_of_linear_ramp():
    X, _ = cell_centers(6, 6, 1.0)
    g = forward_gradient(GridImage(X, 1.0)).values
    assert np.allclose(g[:, :-1, 0], 1.0)
    assert not np.any(g[:, -1, 0])
    assert not np.any(g[..., 1])


def test_gradient_2x2_instance():
    u = GridImage(np.array([[0.0, 1.0], [0.0, 1.0]]), 1.0)
    g = forward_gradient(u).values
    assert g[0, 0, 0] == 1.0 and g[1, 0, 0] == 1.0
    assert not np.any(g[:, 1, 0])


def test_gradient_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        forward_gradient(GridImage(np.zeros((1, 5)), 1.0))


def test_divergence_of_zero_field():
    p = DualField(np.zeros((4, 4, 2)), 1.0)
    assert not np.any(divergence(p).values)


def test_adjoint_identity(rng):
    for n in (8, 16, 33, 64):
        u = GridImage(rng.normal(size=(n, n)), spacing=rng.uniform(0.1, 2))
        p = DualField(rng.normal(size=(n, n, 2)), u.spacing)
        lhs = float(np.einsum("ijk,ijk->", forward_gradient(u).values, p.values))
        rhs = float((u.values * divergence(p).values).sum())
        assert abs(lhs + rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_forward_divergence_is_adjoint_of_backward_gradient(rng):
    u = GridImage(rng.normal(size=(12, 9)), 0.7)
    p = DualField(rng.normal(size=(12, 9, 2)), 0.7)
    lhs = float(np.einsum("ijk,ijk->", backward_gradient(u).values, p.values))
    rhs = float((u.values * forward_divergence(p).values).sum())
    assert abs(lhs + rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_divergence_of_identity_field_is_dimension():
    # p = (x1, x2) sampled at cell centres: backward differences give
    # exactly 2 away from the boundary rows/columns
    X, Y = cell_centers(4, 4, 1.0)
    d = divergence(DualField(np.stack([X, Y], -1), 1.0)).values
    assert np.allclose(d[1:-1, 1:-1], 2.0)


# ----------------------------------------------------------------------
# anisotropic TV
# ----------------------------------------------------------------------

def test_tv_constant_zero_and_positive(rng):
    u = GridImage(np.full((8, 8), 1.7), 0.3)
    assert tv_phi(u, L1) == 0.0
    v = GridImage(rng.normal(size=(8, 8)), 0.3)
    assert tv_phi(v, L1) > 0


def test_tv_homogeneity(any_gauge, rng):
    u = GridImage(rng.normal(size=(10, 13)), 0.4)
    base = tv_phi(u, any_gauge)
    for alpha in (0.25, 3.0, 17.5):
        scaled = GridImage(alpha * u.values, u.spacing)
        assert tv_phi(scaled, any_gauge) == pytest.approx(alpha * base, rel=1e-12)


def test_separable_gauges_agree_on_both_stencils(rng):
    # the solver's monitor evaluates only the forward stencil for these
    separable = sorted(n for n, g in GAUGE_ZOO.items() if g.separable)
    assert separable == ["l1", "weighted-l1"]
    u = GridImage(rng.normal(size=(40, 31)), 0.3)
    for name in separable:
        g = GAUGE_ZOO[name]
        fw = float(g(forward_gradient(u).values).sum())
        bw = float(g(backward_gradient(u).values).sum())
        assert fw == pytest.approx(bw, rel=1e-12, abs=0.0)


def test_tv_unit_square_l1_exact():
    # axis-aligned unit square: 1-norm cost is exactly the perimeter 4
    n = 192
    h = 3.0 / n  # spacing 1/64
    u = raster_convex_polygon([[0, 0], [1, 0], [1, 1], [0, 1]], n, n, h,
                              supersample=1, binary=True)
    assert tv_phi(u, L1) == pytest.approx(4.0, abs=1e-12)


def test_tv_disk_l1_matches_boundary_integral():
    # quadrature oracle: integral of phi(-nu) over the unit circle
    oracle = boundary_integral_oracle(L1)
    assert oracle == pytest.approx(8.0, rel=1e-9)
    n = 768
    u = raster_disk(n, n, 3.0 / n, radius=1.0, supersample=4, binary=True)
    assert tv_phi(u, L1) == pytest.approx(oracle, rel=0.03)


def test_dual_gap_examples(rng):
    u = GridImage(np.full((6, 6), 2.0), 0.5)
    p = DualField(np.zeros((6, 6, 2)), 0.5)
    assert tv_phi_dual_gap(u, p, L1) == 0.0

    v = GridImage(rng.normal(size=(6, 6)), 0.5)
    assert tv_phi_dual_gap(v, p, L1) == pytest.approx(tv_phi(v, L1))


def test_dual_gap_nonnegative_for_feasible_fields(any_gauge, rng):
    for _ in range(20):
        u = GridImage(rng.normal(size=(9, 9)), 0.3)
        raw = rng.normal(size=(9, 9, 2)) * 3
        p = DualField(any_gauge.project_minus_wulff(raw), 0.3)
        assert tv_phi_dual_gap(u, p, any_gauge) >= -1e-10


def test_dual_gap_of_explicit_certificate_field():
    # the paper's field at lambda = 4 realises the TV of the optimal shape
    # up to discretisation error of the order of the spacing
    from wulff_tvl1.certificate import build_circle_certificate
    from conftest import clipped_disk_raster
    n = 384
    h = 3.0 / n
    u = clipped_disk_raster(4.0, n)
    v = build_circle_certificate(4.0, n, n, h)
    gap = tv_phi_dual_gap(u, v, L1)
    assert 0.0 <= gap <= 3.0 * h


def test_dual_gap_rejects_infeasible_field():
    u = GridImage(np.zeros((4, 4)), 1.0)
    p = DualField(np.full((4, 4, 2), 5.0), 1.0)
    with pytest.raises(ValueError):
        tv_phi_dual_gap(u, p, L1)


# ----------------------------------------------------------------------
# level sets, coarea, decomposition
# ----------------------------------------------------------------------

def test_level_set_examples(rng):
    u = GridImage(rng.integers(0, 2, size=(6, 6)).astype(float), 1.0)
    assert np.array_equal(level_set(u, 0.5).image.values, u.values)
    assert np.all(level_set(u, -1.0).image.values == 1.0)
    # strict inequality: thresholding at the maximum empties the set
    assert not np.any(level_set(u, float(u.values.max())).image.values)


def test_coarea_binary_single_level(rng):
    u = GridImage(rng.integers(0, 2, size=(8, 8)).astype(float), 0.5)
    lhs, rhs = coarea_check(u, L1, [0.5])
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_coarea_l1_integer_exact(rng):
    for _ in range(10):
        u = GridImage(rng.integers(0, 3, size=(8, 8)).astype(float), 0.7)
        lhs, rhs = coarea_check(u, L1, [0.5, 1.5])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_coarea_l2_smooth_is_approximate():
    # binary superlevel staircases overestimate the euclidean perimeter by
    # the angular metrication factor (up to 4/pi); the decomposition is a
    # documented approximation for non-crystalline gauges, exactness holds
    # only for the axis-aligned 1-norm
    X, Y = cell_centers(64, 64, 1.0 / 32)
    u = GridImage(np.exp(-4.0 * (X**2 + Y**2)), 1.0 / 32)
    levels = np.linspace(u.values.min(), u.values.max(), 258)[1:-1]
    lhs, rhs = coarea_check(u, L2, levels)
    assert rhs >= lhs - 1e-9
    assert abs(lhs - rhs) / lhs <= 4.0 / math.pi - 1.0 + 0.02


def test_energy_decompose_binary(rng):
    f = GridImage(rng.integers(0, 2, size=(8, 8)).astype(float), 0.5)
    total, integrated = energy_decompose(f, f, 2.0, L1, [0.5])
    assert total == pytest.approx(tv_phi(f, L1), abs=1e-14)
    assert integrated == pytest.approx(total, abs=1e-14)


def test_energy_decompose_zero_against_binary(rng):
    f = GridImage(rng.integers(0, 2, size=(8, 8)).astype(float), 0.5)
    u = GridImage(np.zeros((8, 8)), 0.5)
    total, integrated = energy_decompose(u, f, 2.0, L1, [0.5])
    expected = 2.0 * f.values.sum() * 0.5**2
    assert total == pytest.approx(expected, abs=1e-12)
    assert integrated == pytest.approx(expected, abs=1e-12)


def test_energy_decompose_integer_exact(rng):
    for _ in range(10):
        u = GridImage(rng.integers(0, 3, size=(8, 8)).astype(float), 0.4)
        f = GridImage(rng.integers(0, 3, size=(8, 8)).astype(float), 0.4)
        total, integrated = energy_decompose(u, f, 1.5, L1, [0.5, 1.5])
        assert total == pytest.approx(integrated, abs=1e-12)


def test_levels_must_be_valid():
    u = GridImage(np.zeros((4, 4)), 1.0)
    with pytest.raises(ValueError):
        coarea_check(u, L1, [])
    with pytest.raises(ValueError):
        coarea_check(u, L1, [1.0, 0.5])


# ----------------------------------------------------------------------
# reflection
# ----------------------------------------------------------------------

def test_reflect_symmetric_fixed_point():
    u = raster_disk(32, 32, 0.1, radius=1.0, supersample=1, binary=True)
    assert np.array_equal(reflect(u).values, u.values)


def test_reflect_is_involutive(rng):
    u = GridImage(rng.normal(size=(7, 11)), 0.3)
    assert np.array_equal(reflect(reflect(u)).values, u.values)


def test_reflection_identity_asymmetric_gauge(rng):
    # TV(-u) = TV(u(-.)) must hold exactly for the non-even gauge
    g = Gauge.asymmetric([0.5, 0.0])
    for _ in range(25):
        u = GridImage(rng.normal(size=(12, 15)), 0.21)
        lhs = tv_phi(GridImage(-u.values, u.spacing), g)
        rhs = tv_phi(reflect(u), g)
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ----------------------------------------------------------------------
# norm equivalence
# ----------------------------------------------------------------------

def test_equivalence_of_norms(rng):
    # c TV_phi <= TV <= C TV_phi with c = 1/circumradius(W) and
    # C = 1/inradius(W); strict with margin away from the euclidean gauge
    for name in ("l1", "hexagon", "asymmetric"):
        g = GAUGE_ZOO[name]
        w = g.wulff()
        circum = w.bounding_radius
        normals, offsets = _polygon_halfspaces(w.vertices)
        inradius = float(np.min(offsets))
        for _ in range(100):
            u = GridImage(rng.normal(size=(8, 8)), 0.5)
            tva = tv_phi(u, g)
            tv2 = tv_phi(u, L2)
            assert tva / circum < tv2 < tva / inradius
