import functools
import math

import numpy as np
import pytest

from wulff_tvl1 import grid
from wulff_tvl1.certificate import (BOUNDARY_MARGIN, TIE_BAND,
                                    CertificateReport, _dilate,
                                    build_circle_certificate,
                                    certify_minimizer, check_certificate)
from wulff_tvl1.gauge import Gauge
from wulff_tvl1.grid import (FEASIBILITY_TOL, DualField, GridImage,
                             backward_gradient, cell_centers, divergence,
                             dual_pairing, forward_divergence,
                             forward_gradient, raster_disk,
                             raster_convex_polygon, tv_phi, tv_phi_dual_gap)
from wulff_tvl1.shapes import trivial_threshold
from wulff_tvl1.solver import SolverConfig, energy

from conftest import GAUGE_ZOO, clipped_disk_raster, gaussian_blur, max_flow_pair

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


def test_nan_dual_maximum_fails_membership(monkeypatch):
    # a NaN largest dual-gauge value is a NaN violation, not a zero one,
    # also when a later block than the first holds it
    monkeypatch.setattr(grid, "BLOCK_CELLS", 4 * 16)
    blocks = []

    def dual(self, x):
        blocks.append(x.shape)
        return np.full(x.shape[:-1], math.nan if len(blocks) == 3 else 0.0)

    monkeypatch.setattr(Gauge, "dual", dual)
    u0 = GridImage(np.zeros((16, 16)), 0.5)
    rep = check_certificate(u0, u0, DualField(np.zeros((16, 16, 2)), 0.5),
                            1.0, L1)
    assert blocks == [(4, 16, 2)] * 4
    assert math.isnan(rep.wulff_violation)
    assert not rep.conditions["i_wulff_membership"] and not rep.passed


def _one_entry(bad, violation):
    v = np.zeros((8, 8, 2))
    v[4, 4, 0] = bad
    return v, L1, violation


@pytest.mark.parametrize("v, g, violation", [
    _one_entry(math.inf, math.inf), _one_entry(-math.inf, math.inf),
    _one_entry(math.nan, math.nan),
    (np.full((8, 8, 2), 1e308), L1, 1e308),
    # finite and inside -W (phi_dual = 1), but its divergence overflows
    (1e308 * (-1.0) ** np.arange(8)[None, :, None] * np.ones((8, 8, 2)),
     Gauge.weighted(1, [1e308, 1e308]), 0.0),
], ids=["inf", "-inf", "nan", "overflow", "overflow-inside-W"])
def test_non_finite_field_fails_bounded_divergence(v, g, violation):
    # (ii) holds when the backward divergence is finite in every cell: a
    # non-finite entry of v fails it, and so does a finite v whose
    # divergence overflows; the check reports it instead of raising
    u0 = GridImage(np.zeros((8, 8)), 0.5)
    rep = check_certificate(u0, u0, DualField(v, 0.5), 1.0, g)
    # a non-finite entry keeps a non-finite violation of (i)
    assert math.isfinite(rep.wulff_violation) == math.isfinite(violation)
    assert rep.wulff_violation == violation or math.isnan(violation)
    assert rep.conditions["i_wulff_membership"] == (violation == 0.0)
    assert not rep.conditions["ii_bounded_divergence"] and not rep.passed
    for key in ("div_inf_norm", "div_bound_residual", "div_residual_above",
                "div_residual_below"):
        assert getattr(rep, key) == math.inf, key
    assert rep.excluded_fraction == 1.0
    assert not rep.strict_uniqueness_hint


def test_overflowing_stencil_disagreement_excludes_the_cell():
    # both one-sided divergences are finite (+-1e308), so (ii) holds, but
    # their difference overflows: an inf disagreement excludes the cell,
    # and the check reports without a RuntimeWarning
    v = np.zeros((8, 8, 2))
    v[:, 1::2, 0] = 1e308
    u0 = GridImage(np.zeros((8, 8)), 1.0)
    rep = check_certificate(u0, u0, DualField(v, 1.0), 1.0,
                            Gauge.weighted(1, [1e308, 1e308]))
    assert rep.conditions["i_wulff_membership"]
    assert rep.conditions["ii_bounded_divergence"]
    assert rep.excluded_fraction == 1.0 and rep.div_inf_norm == 0.0
    assert not rep.conditions["a_div_bound"] and not rep.passed


@pytest.mark.parametrize("u0, v, lam, g", [
    # a 4x4 grid lies inside the 2-cell window frame
    (np.zeros((4, 4)), np.full((4, 4, 2), 0.9), 0.01, Gauge.p_norm(1)),
    # every cell's one-sided stencils disagree by an overflow
    (np.zeros((8, 8)), np.stack([np.tile([0.0, 1e308], (8, 4)), np.zeros((8, 8))],
                                axis=-1), 1.0, Gauge.weighted(1, [1e308, 1e308])),
], ids=["inside-the-frame", "every-cell-a-kink"])
def test_a_check_over_no_cell_fails_the_divergence_bound(u0, v, lam, g):
    # the maxima of (a)-(c) over no evaluated cell read 0; the verdict must
    # not rest on them, so (a) fails and with it the certificate
    u0 = GridImage(u0, 1.0)
    rep = check_certificate(u0, u0, DualField(v, 1.0), lam, g)
    assert rep.excluded_fraction == 1.0 and rep.div_bound_residual == 0.0
    assert rep.conditions == {
        "i_wulff_membership": True, "ii_bounded_divergence": True,
        "iii_tv_pairing": True, "a_div_bound": False,
        "b_div_equals_lambda_above": True,
        "c_div_equals_minus_lambda_below": True}
    assert not rep.passed and not rep.strict_uniqueness_hint


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
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError):
            build_circle_certificate(lam, 32, 32, 0.1)


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


@pytest.mark.parametrize("name", ["l1", "hexagon", "asymmetric"])
def test_check_certificate_takes_each_gradient_once(name, monkeypatch):
    g = GAUGE_ZOO[name]
    u0, f, _ = circle_case(3.0, 96)
    u0 = GridImage(gaussian_blur(u0.values, 1.5), u0.spacing)
    v = DualField(g.project_minus_wulff(
        np.random.default_rng(2).normal(size=(96, 96, 2))), u0.spacing)
    monkeypatch.setattr(grid, "BLOCK_CELLS", 20 * 96)
    tv, pairing = tv_phi(u0, g), dual_pairing(u0, v)
    calls, depth = [], [0]
    for op in ("_grad_forward_raw", "_grad_backward_raw"):
        def counted(*args, _fn=getattr(grid, op), _op=op, **kwargs):
            # the backward kernel runs the forward one on the reflected
            # slab; only the outermost call is a stencil of its own
            if not depth[0]:
                calls.append(_op)
            depth[0] += 1
            try:
                return _fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(grid, op, counted)
    rep = check_certificate(u0, f, v, 3.0, g)
    blocks = len(list(grid._row_blocks(96, 96, 0)))
    assert blocks == 5
    # one forward kernel per block; its buffer, shifted, is the backward one
    assert calls == ["_grad_forward_raw"] * blocks
    # the same sums as the two separate calls, bit for bit
    assert rep.tv_value == tv
    assert rep.tv_pairing_gap == tv - pairing


def test_block_loops_build_no_grid_objects(monkeypatch):
    # inputs are validated once, on entry; the blocks work on raw slabs
    u0, f, v = circle_case(3.0, 64)
    monkeypatch.setattr(grid, "BLOCK_CELLS", 8 * 64)
    built = []
    for cls in (GridImage, DualField):
        def counted(self, _init=cls.__post_init__):
            built.append(type(self).__name__)
            _init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    rep = check_certificate(u0, f, v, 3.0, L1)
    tv_phi(u0, L1)
    dual_pairing(u0, v)
    tv_phi_dual_gap(u0, v, L1)
    assert built == []
    assert rep.passed


def _whole_grid_jump_cells(values, tol=1e-9):
    jump = np.zeros(values.shape, dtype=bool)
    dx = np.abs(np.diff(values, axis=1)) > tol
    dy = np.abs(np.diff(values, axis=0)) > tol
    jump[:, :-1] |= dx
    jump[:, 1:] |= dx
    jump[:-1, :] |= dy
    jump[1:, :] |= dy
    return jump


def _whole_grid_dilate(mask, margin):
    out = mask.copy()
    for d in range(1, margin + 1):
        out[d:] |= mask[:-d]
        out[:-d] |= mask[d:]
    rows = out.copy()
    for d in range(1, margin + 1):
        out[:, d:] |= rows[:, :-d]
        out[:, :-d] |= rows[:, d:]
    return out


def _whole_grid_check(u0, f, v, lam, g):
    """check_certificate as it was before row blocks: every mask and
    divergence a full-grid array, every sum one whole-grid reduction."""
    spacing = u0.spacing
    tol = 3.0 * spacing
    wulff_violation = max(0.0, float(np.max(g.dual(v.values))) - 1.0)
    div_b = divergence(v).values
    div_f = forward_divergence(v).values
    stencil_ok = np.abs(div_b - div_f) <= spacing
    interior = np.zeros(div_b.shape, dtype=bool)
    m = BOUNDARY_MARGIN
    interior[m:-m, m:-m] = True
    stencil_ok &= interior
    included = div_b[stencil_ok]
    div_inf = float(np.max(np.abs(included))) if included.size else 0.0
    div_bound_residual = max(0.0, div_inf - lam)
    evaluated = bool(stencil_ok.any())
    boundary = _whole_grid_dilate(_whole_grid_jump_cells(u0.values)
                                  | _whole_grid_jump_cells(f.values), m)
    above = (u0.values - f.values > TIE_BAND) & ~boundary & stencil_ok
    below = (f.values - u0.values > TIE_BAND) & ~boundary & stencil_ok
    res_above = float(np.max(np.abs(div_b[above] - lam))) if above.any() else 0.0
    res_below = float(np.max(np.abs(div_b[below] + lam))) if below.any() else 0.0
    tv_sums, pairing_sums = [], []
    for gradient in (forward_gradient, backward_gradient):
        d = gradient(u0).values
        tv_sums.append(g(d).sum())
        pairing_sums.append(np.einsum("ijk,ijk->", d, v.values))
    tv = float(0.5 * (tv_sums[0] + tv_sums[1]) * spacing**2)
    pairing_gap = tv - float(0.5 * (pairing_sums[0] + pairing_sums[1]) * spacing**2)
    conditions = {
        "i_wulff_membership": wulff_violation <= FEASIBILITY_TOL,
        "ii_bounded_divergence": bool(np.all(np.isfinite(div_b))),
        "iii_tv_pairing": abs(pairing_gap) <= tol * max(1.0, tv),
        "a_div_bound": evaluated and div_bound_residual <= tol,
        "b_div_equals_lambda_above": res_above <= tol,
        "c_div_equals_minus_lambda_below": res_below <= tol,
    }
    return CertificateReport(
        wulff_violation=wulff_violation, div_inf_norm=div_inf,
        div_bound_residual=div_bound_residual, div_residual_above=res_above,
        div_residual_below=res_below, tv_pairing_gap=pairing_gap, tv_value=tv,
        tolerance=tol, band=TIE_BAND,
        excluded_fraction=float(1.0 - stencil_ok.mean()),
        conditions=conditions, passed=all(conditions.values()),
        strict_uniqueness_hint=evaluated and div_inf < lam - tol)


def _seam_case(height, width, rows, g, rng):
    """u0 and f piecewise constant with row jumps on block seams (multiples
    of `rows`) and inside the 2-cell frame, column jumps at W/2 and 1, and
    ties, excess and deficit cells between them; v a smooth field in -W
    with noise on a tenth of the cells and a fifth of those pushed 20%
    outside."""
    r = np.arange(height)[:, None]
    c = np.arange(width)[None, :]

    def steps(jumps, levels, column):
        band = np.searchsorted(jumps, r, side="right")
        return np.asarray(levels, dtype=float)[band] + 0.5 * (c >= column)

    def seam(frac):
        return rows * round(frac * height / rows)

    # between the inner jumps u0 - f is +1, then 0, then -1
    u0 = steps([1, seam(0.3), height - 1], [0, 2, 1, 1], width // 2)
    f = steps([2, seam(0.7), height - 2], [0, 1, 2, 0], 1)
    v = 0.9 * np.stack([np.sin(0.3 * r + 0.2 * c), np.cos(0.25 * r - 0.1 * c)],
                       axis=-1)
    noisy = rng.random((height, width)) < 0.1
    v[noisy] = rng.uniform(-1.0, 1.0, (noisy.sum(), 2))
    v = g.project_minus_wulff(v)
    v[noisy & (rng.random((height, width)) < 0.2)] *= 1.2
    return GridImage(u0, 0.5), GridImage(f, 0.5), DualField(v, 0.5)


def _tie_block_case(height, width, rows, g, rng):
    """u0 - f just over the tie band in blocks 1, 5, 9, ... (left half
    above, right half below) and just under it elsewhere, so only those
    blocks hold (b)/(c) cells; the steps between blocks are under the 1e-9
    jump tolerance.  In the even blocks u0 and f both rise by 0.5 between
    rows 1 and 2 and fall back between rows -3 and -2 (for blocks of 5
    rows or more): jumps in blocks with no (b)/(c) cell that reach one row
    into the neighbouring block only through its 3-row halo.  v is
    _seam_case's field."""
    r = np.arange(height)[:, None]
    c = np.arange(width)[None, :]
    k, i = r // rows, r % rows
    band = np.where(k % 4 == 1, TIE_BAND + 2e-10, TIE_BAND - 2e-10)
    delta = band * np.where(c < width // 2, 1.0, -1.0)
    bump = (k % 2 == 0) & (i >= 2) & (i <= rows - 3)
    f = np.broadcast_to(0.5 * bump, (height, width))
    _, _, v = _seam_case(height, width, rows, g, rng)
    return GridImage(f + delta, 0.5), GridImage(f, 0.5), v


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("shape", [(300, 257), (37, 5), (17, 2)])
@pytest.mark.parametrize("name", ["l1", "hexagon", "asymmetric", "p3"])
def test_blocked_check_matches_the_whole_grid_check(name, shape, rows,
                                                    monkeypatch):
    g = GAUGE_ZOO[name]
    height, width = shape
    lam = 0.3
    for case in (_seam_case, _tie_block_case):
        u0, f, v = case(height, width, rows, g, np.random.default_rng(rows))
        ref = _whole_grid_check(u0, f, v, lam, g)
        with monkeypatch.context() as patch:
            patch.setattr(grid, "BLOCK_CELLS", rows * width)
            assert len(list(grid._row_blocks(height, width, 0))) >= 3
            rep = check_certificate(u0, f, v, lam, g)
            tv, pairing = tv_phi(u0, g), dual_pairing(u0, v)
        for key in ("wulff_violation", "div_inf_norm", "div_bound_residual",
                    "div_residual_above", "div_residual_below",
                    "excluded_fraction", "conditions", "passed",
                    "strict_uniqueness_hint"):
            assert getattr(rep, key) == getattr(ref, key), (case.__name__, key)
        assert rep.tv_value == pytest.approx(ref.tv_value, rel=1e-12)
        # the gap is a difference of two sums of the size of TV
        assert abs(rep.tv_pairing_gap - ref.tv_pairing_gap) <= 1e-12 * ref.tv_value
        assert rep.tv_value == tv
        assert rep.tv_pairing_gap == tv - pairing
        if width > 2 * BOUNDARY_MARGIN + 1:
            # the large grid exercises both signed sets, and _seam_case
            # every exclusion
            assert ref.div_residual_above > 0.0 and ref.div_residual_below > 0.0
            if case is _seam_case:
                assert 0.0 < ref.excluded_fraction < 1.0
                assert ref.wulff_violation > 0.0


def test_blocked_check_sees_jumps_through_the_halo(monkeypatch):
    # one row jump of u0 at every row in turn, f = 1/2, and div v growing
    # towards the jump: the largest residual on either side sits on the
    # first row past the margin, so a jump a block misses moves it
    height, width, h, lam = 41, 8, 0.1, 1.0
    r = np.arange(height)
    f = GridImage(np.full((height, width), 0.5), h)
    monkeypatch.setattr(grid, "BLOCK_CELLS", 4 * width)
    for j in range(3, height - 3):
        u0 = GridImage(np.repeat((r >= j).astype(float)[:, None], width, 1), h)
        div = lam + 0.01 * (height - np.abs(r - j))
        v = np.zeros((height, width, 2))
        v[..., 1] = (h * np.cumsum(div))[:, None]
        v = DualField(v, h)
        rep = check_certificate(u0, f, v, lam, L1)
        ref = _whole_grid_check(u0, f, v, lam, L1)
        if 8 <= j <= height - 8:  # both sides reach past margin and frame
            assert rep.div_residual_above > 0.0 and rep.div_residual_below > 0.0
        assert rep.div_residual_above == ref.div_residual_above, j
        assert rep.div_residual_below == ref.div_residual_below, j


def test_check_certificate_validates_grids():
    u0 = GridImage(np.zeros((8, 8)), 1.0)
    v = DualField(np.zeros((8, 8, 2)), 1.0)
    with pytest.raises(ValueError):
        check_certificate(u0, GridImage(np.zeros((9, 9)), 1.0), v, 1.0, L1)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            check_certificate(u0, u0, v, lam, L1)
    # a one-row grid has no stencil: no field of one can be built
    with pytest.raises(ValueError, match="at least 2x2"):
        GridImage(np.zeros((1, 8)), 1.0)


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


# ----------------------------------------------------------------------
# the exact discrete pair of one max flow
# ----------------------------------------------------------------------

@functools.cache
def exact_case(shape: str, n: int, lam: float, name: str):
    """(f, u*, p*, optimum) for the unit disk or the square [-1, 1]^2 on an
    n^2 grid of the window [-1.5, 1.5]^2."""
    h = 3.0 / n
    f = (raster_disk(n, n, h, radius=1.0, supersample=4, binary=True)
         if shape == "disk" else
         raster_convex_polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]], n, n, h,
                               supersample=4, binary=True))
    return (f, *max_flow_pair(f, lam, GAUGE_ZOO[name]))


@pytest.mark.parametrize("case", [
    ("disk", 256, 4.0, "l1"),            # criterion 1's input
    ("square", 192, 1.5, "l1"),          # criterion 3's capped regime: u* = 0
    ("square", 192, 4.0, "l1"),
    ("disk", 128, 4.0, "weighted-l1"),
], ids=["disk-256-l1", "square-192-lambda-1.5", "square-192-lambda-4",
        "disk-128-weighted-l1"])
def test_the_exact_max_flow_pair_is_certified(case):
    # u* has the minimum energy and p* the same dual value, so the pair is
    # an exact discrete certificate; the checker must pass it
    f, u, p, opt = exact_case(*case)
    lam, g = case[2], GAUGE_ZOO[case[3]]
    assert energy(u, f, lam, g) == pytest.approx(opt, rel=1e-12)
    dual_value = -float((f.values * divergence(p).values).sum()) * f.spacing**2
    assert dual_value == pytest.approx(opt, rel=1e-12)
    report = check_certificate(u, f, p, lam, g)
    assert report.passed, report.conditions
    assert report.div_inf_norm <= lam
    if case[:3] == ("square", 192, 1.5):
        assert not u.values.any()


def test_the_square_leaves_exactly_at_its_trivial_threshold():
    # the square is W of the 1-norm at R = 1: at lambda = n / R = 2 the
    # empty set ties with f at energy 8, and the least minimiser is empty;
    # one dyadic step above, f alone is optimal (2.001 would overflow the
    # exact int32 capacities)
    lam = trivial_threshold(1.0, 2)
    f, u, _, opt = exact_case("square", 192, lam, "l1")
    assert (opt, u.values.any()) == (8.0, False)
    f, u, _, _ = exact_case("square", 192, lam + 2**-10, "l1")
    assert u.values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("case, slope, failing, residual", [
    (("disk", 256, 4.0, "l1"), lambda lam, h: lam + 10 * h, "a_div_bound",
     "div_bound_residual"),
    (("square", 192, 1.5, "l1"), lambda lam, h: 10 * h,
     "c_div_equals_minus_lambda_below", "div_residual_below"),
], ids=["disk-a", "square-c"])
def test_a_ramp_in_the_exact_field_fails_one_condition(case, slope, failing, residual):
    # a change of p* at one cell makes the two divergence stencils disagree
    # by 2 delta / h there: the cell is a kink, excluded from (a)-(c), and
    # the check still passes.  A ramp p*_x += eps (x - x0) over a 20 x 20
    # patch at the centre raises both stencils' divergence by eps inside it:
    # |div| reaches lam + 10 h on the disk, where div p* = 0, and div sits
    # 10 h above -lam on the square, where u* = 0 < f
    f, u, p, _ = exact_case(*case)
    lam, g, h = case[2], GAUGE_ZOO[case[3]], f.spacing
    c = f.width // 2
    one_cell = p.values.copy()
    one_cell[c, c, 0] += 0.05
    assert check_certificate(u, f, DualField(one_cell, h), lam, g).passed
    ramp = p.values.copy()
    ramp[c - 10:c + 10, c - 10:c + 10, 0] += slope(lam, h) * h * (np.arange(20) - 9.5)
    report = check_certificate(u, f, DualField(ramp, h), lam, g)
    assert [name for name, ok in report.conditions.items() if not ok] == [failing]
    assert getattr(report, residual) == pytest.approx(10 * h, rel=1e-9)
