import math

import numpy as np
import pytest

from wulff_tvl1.certificate import (_dilate, build_circle_certificate,
                                    certify_minimizer, check_certificate)
from wulff_tvl1.gauge import Gauge
from wulff_tvl1.grid import (DualField, GridImage, cell_centers, raster_disk,
                             raster_convex_polygon)
from wulff_tvl1.solver import SolverConfig, energy

from conftest import clipped_disk_raster, gaussian_blur

L1 = Gauge.p_norm(1)


def circle_case(lam, size, extent=3.0):
    spacing = extent / size
    f = raster_disk(size, size, spacing, radius=1.0, supersample=4, binary=True)
    u0 = clipped_disk_raster(lam, size, extent)
    v = build_circle_certificate(lam, size, size, spacing)
    return u0, f, v


def test_trivial_zero_certificate():
    u0 = GridImage(np.zeros((16, 16)), 0.5)
    v = DualField(np.zeros((16, 16, 2)), 0.5)
    rep = check_certificate(u0, u0, v, 1.0, L1)
    assert rep.passed
    assert all(r == 0.0 for r in rep.residuals().values())


def test_check_certificate_sets_uniqueness_hint():
    # hint = div_inf_norm < lam - tol: a zero field has margin, the circle
    # field reaches |div v| = lam on the clipped disk
    u0 = GridImage(np.zeros((16, 16)), 0.05)
    v = DualField(np.zeros((16, 16, 2)), 0.05)
    assert check_certificate(u0, u0, v, 1.0, L1).strict_uniqueness_hint is True
    u0, f, v = circle_case(3.0, 128)
    assert check_certificate(u0, f, v, 3.0, L1).strict_uniqueness_hint is False


def test_circle_field_formula_points():
    # hand-evaluated samples of the clamp construction at lambda = 4
    s = 0.25

    def w(a, b):
        return (np.clip(a / s, -1, 1) if abs(b) >= 1 / math.sqrt(2)
                else np.clip(math.sqrt(2) * a, -1, 1))

    X, Y = cell_centers(512, 512, 3.0 / 512)
    vv = build_circle_certificate(4.0, 512, 512, 3.0 / 512)
    for x1, x2 in ((0.0, 0.9), (0.5, 0.9), (0.0, 0.0), (0.3, -1.2)):
        expected = (-w(x1, x2), -w(x2, x1))
        i = int(np.argmin(np.abs(Y[:, 0] - x2)))
        j = int(np.argmin(np.abs(X[0, :] - x1)))
        assert vv.values[i, j] == pytest.approx(expected, abs=0.02)

    # exact checks at analytic points: (0, 0.9) -> (0, -1), (0.5, 0.9) -> v1 = -1
    assert float(w(0.0, 0.9)) == 0.0 and float(w(0.9, 0.0)) == 1.0
    assert float(w(0.5, 0.9)) == 1.0


def test_circle_field_is_feasible():
    v = build_circle_certificate(3.0, 128, 128, 3.0 / 128)
    assert float(np.max(np.abs(v.values))) <= 1.0
    assert v.max_dual_value(L1) <= 1.0


def test_circle_field_rejects_small_lambda():
    with pytest.raises(ValueError):
        build_circle_certificate(1.2, 32, 32, 0.1)


def test_circle_certificate_passes_above_critical():
    u0, f, v = circle_case(3.0, 192)
    rep = check_certificate(u0, f, v, 3.0, L1)
    assert rep.passed
    assert all(r <= rep.tolerance for r in rep.residuals().values())


def test_circle_certificate_fails_below_2sqrt2():
    u0, f, v = circle_case(2.0, 192)
    rep = check_certificate(u0, f, v, 2.0, L1)
    assert not rep.passed
    assert not rep.conditions["a_div_bound"]
    assert rep.div_inf_norm == pytest.approx(2.0 * math.sqrt(2.0), abs=0.05)


def test_circle_residuals_shrink_with_resolution():
    worst = {}
    for size in (192, 384, 768):
        u0, f, v = circle_case(3.0, size)
        rep = check_certificate(u0, f, v, 3.0, L1)
        assert rep.passed
        worst[size] = max(rep.residuals().values())
        assert worst[size] <= rep.tolerance
    # raster alignment makes individual levels jitter; the coarse-to-fine
    # envelope must not grow
    assert worst[768] <= worst[192] + 1e-9


def test_pairing_gap_first_order_in_spacing():
    # lambda = 4: TV(u0) and the pairing against the explicit field agree
    # to O(spacing) across the three study resolutions
    gaps = {}
    for size in (192, 384, 768):
        u0, f, v = circle_case(4.0, size)
        rep = check_certificate(u0, f, v, 4.0, L1)
        h = 3.0 / size
        gaps[size] = abs(rep.tv_pairing_gap)
        assert gaps[size] <= 3.0 * h
    assert gaps[768] <= gaps[192] + 1e-9


def test_check_certificate_validates_grids():
    u0 = GridImage(np.zeros((8, 8)), 1.0)
    v = DualField(np.zeros((8, 8, 2)), 1.0)
    with pytest.raises(ValueError):
        check_certificate(u0, GridImage(np.zeros((9, 9)), 1.0), v, 1.0, L1)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            check_certificate(u0, u0, v, lam, L1)


@pytest.mark.parametrize("margin", [0, 1, 2])
def test_dilate_matches_the_square_window(rng, margin):
    for _ in range(10):
        mask = rng.random((9, 13)) < 0.08
        mask[0, rng.integers(13)] = mask[rng.integers(9), -1] = True
        expected = np.zeros_like(mask)
        for i, j in np.ndindex(mask.shape):
            expected[i, j] = mask[max(i - margin, 0): i + margin + 1,
                                  max(j - margin, 0): j + margin + 1].any()
        assert np.array_equal(_dilate(mask, margin), expected)


def test_certified_shape_beats_perturbations(rng):
    # sufficiency direction at desk scale: a certified u0 has no lower
    # energy among random bounded-variation perturbations
    lam, size = 3.0, 192
    u0, f, v = circle_case(lam, size)
    rep = check_certificate(u0, f, v, lam, L1)
    assert rep.passed
    e0 = energy(u0, f, lam, L1)
    slack = rep.tolerance * max(1.0, rep.tv_value)
    for _ in range(20):
        bump = gaussian_blur(rng.normal(size=u0.values.shape), 3.0)
        scale = rng.uniform(0.05, 0.5) / max(1e-12, np.abs(bump).max())
        uh = GridImage(u0.values + scale * bump, u0.spacing)
        assert energy(uh, f, lam, L1) >= e0 - slack


def test_certify_minimizer_zero_input():
    f = GridImage(np.zeros((24, 24)), 0.25)
    res, rep = certify_minimizer(f, 2.0, L1, SolverConfig(max_iterations=200))
    assert rep.passed
    assert not np.any(res.u.values)


def test_certify_minimizer_faithful_square():
    n = 96
    h = 3.0 / n
    f = raster_convex_polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]], n, n, h,
                              supersample=4, binary=True)
    res, rep = certify_minimizer(f, 4.0, L1)
    assert rep.passed
    assert rep.conditions["iii_tv_pairing"]


def test_certify_minimizer_trivial_regime():
    n = 96
    h = 3.0 / n
    f = raster_convex_polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]], n, n, h,
                              supersample=4, binary=True)
    res, rep = certify_minimizer(f, 1.0, L1, SolverConfig(max_iterations=4000))
    assert res.u.l1_norm() <= 0.01 * f.l1_norm()
    assert rep.passed
    assert rep.strict_uniqueness_hint is not None


def test_report_serialises():
    u0 = GridImage(np.zeros((8, 8)), 0.5)
    v = DualField(np.zeros((8, 8, 2)), 0.5)
    rep = check_certificate(u0, u0, v, 1.0, L1)
    payload = rep.to_json()
    for key in ("wulff_violation", "div_inf_norm", "tv_pairing_gap",
                "conditions", "passed", "tolerance"):
        assert key in payload
    assert isinstance(rep.to_json_str(), str)
