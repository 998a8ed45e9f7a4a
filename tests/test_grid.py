import math

import numpy as np
import pytest

from wulff_tvl1 import grid
from wulff_tvl1.gauge import Gauge
from wulff_tvl1.grid import (DualField, GridImage, _div_adjoint_raw,
                             _div_forward_raw, _grad_backward_raw,
                             _grad_forward_raw, backward_gradient, cell_centers,
                             coarea_check, divergence, dual_pairing,
                             energy_decompose, forward_divergence,
                             forward_gradient, level_set, raster_convex_polygon,
                             raster_disk, reflect, tv_phi, tv_phi_dual_gap)
from wulff_tvl1.projection import _polygon_edges

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
    # the flat x-difference writes v[1, 0] - v[0, 1] = -1 into the last
    # column before zeroing it, in every layout
    for v in _layouts(u.values):
        for out in _layouts(np.empty((2, 2, 2))):
            g = _grad_forward_raw(v, 1.0, out=out)
            assert np.array_equal(g, [[[1, 0], [0, 0]], [[1, 0], [0, 0]]])
            assert np.signbit(g).sum() == 0


# the stencils as 2-D slice formulas: the kernels' flat passes and their
# unit-spacing shortcut must give these bytes

def _grad_by_slices(v: np.ndarray, spacing: float) -> np.ndarray:
    out = np.zeros(v.shape + (2,))
    np.subtract(v[:, 1:], v[:, :-1], out=out[:, :-1, 0])
    np.subtract(v[1:, :], v[:-1, :], out=out[:-1, :, 1])
    out /= spacing
    return out


def _div_by_slices(p: np.ndarray, spacing: float) -> np.ndarray:
    px, py = p[..., 0], p[..., 1]
    out = np.empty(p.shape[:2])
    out[:, 0] = px[:, 0]
    np.subtract(px[:, 1:-1], px[:, :-2], out=out[:, 1:-1])
    out[:, -1] = -px[:, -2]
    out[0, :] += py[0, :]
    out[1:-1, :] += py[1:-1, :]
    out[1:-1, :] -= py[:-2, :]
    out[-1, :] -= py[-2, :]
    out /= spacing
    return out


def _layouts(a: np.ndarray) -> list:
    """a in C order, reflected, and (for fields) as planar (2, H, W)
    storage and as a plane of a wider field: the row-major layouts the
    kernels take, with equal values."""
    out = [a.copy(), a[::-1, ::-1].copy()[::-1, ::-1]]
    if a.ndim == 3:
        planar = np.ascontiguousarray(np.moveaxis(a, -1, 0))
        out += [np.moveaxis(planar, 0, -1),
                np.moveaxis(planar[:, ::-1, ::-1].copy(), 0, -1)[::-1, ::-1]]
    else:
        wide = np.stack([a, -a], axis=-1)
        out += [wide[..., 0], wide[::-1, ::-1].copy()[::-1, ::-1, 0]]
    return out


@pytest.mark.parametrize("shape", [(2, 2), (2, 7), (7, 2), (5, 9)])
def test_kernels_match_the_slice_formulas_in_every_layout(shape, rng):
    v = rng.normal(size=shape)
    p = rng.normal(size=shape + (2,))
    for spacing in (1.0, 3.0 / shape[1]):
        grad = _grad_by_slices(v, spacing).tobytes()
        div = _div_by_slices(p, spacing).tobytes()
        # the reflected kernels: 0 - (forward kernel on the reflected views)
        grad_bw = (0.0 - _grad_by_slices(v[::-1, ::-1], spacing)[::-1, ::-1]).tobytes()
        div_fw = (0.0 - _div_by_slices(p[::-1, ::-1], spacing)[::-1, ::-1]).tobytes()
        for a in _layouts(v):
            assert _grad_forward_raw(a, spacing).tobytes() == grad
            assert _grad_backward_raw(a, spacing).tobytes() == grad_bw
            for out in _layouts(np.empty(shape + (2,))):
                res = _grad_forward_raw(a, spacing, out=out)
                assert res is out and np.ascontiguousarray(out).tobytes() == grad
        for a in _layouts(p):
            assert _div_adjoint_raw(a, spacing).tobytes() == div
            assert _div_forward_raw(a, spacing).tobytes() == div_fw
            for out in _layouts(np.empty(shape)):
                res = _div_adjoint_raw(a, spacing, out=out)
                assert res is out and np.ascontiguousarray(out).tobytes() == div


@pytest.mark.parametrize("make", [
    lambda: GridImage(np.array([[0.0, math.inf], [0.0, 0.0]])),
    lambda: GridImage(np.array([[0.0, math.nan], [0.0, 0.0]])),
    lambda: GridImage(np.zeros(4)),
    lambda: GridImage(np.zeros((2, 2, 2))),
    lambda: GridImage(np.zeros((2, 2)), 0.0),
    lambda: DualField(np.zeros((2, 2))),
    lambda: DualField(np.zeros((2, 2, 3))),
    lambda: DualField(np.zeros((2, 2, 2)), -1.0),
    lambda: DualField(np.zeros((2, 2, 2)), math.inf),
    lambda: GridImage(np.zeros((1, 5))),
    lambda: GridImage(np.zeros((5, 1))),
    lambda: GridImage(np.zeros((1, 1))),
    lambda: DualField(np.zeros((1, 5, 2))),
    lambda: DualField(np.zeros((5, 1, 2))),
    lambda: DualField(np.zeros((1, 1, 2))),
], ids=["image-inf", "image-nan", "image-1d", "image-3d", "image-spacing-0",
        "field-2d", "field-3-components", "field-spacing-negative",
        "field-spacing-inf", "image-1x5", "image-5x1", "image-1x1",
        "field-1x5", "field-5x1", "field-1x1"])
def test_fields_validate_on_construction(make):
    # a stencil needs two rows and two columns: no field has fewer, so no
    # operator re-checks one
    with pytest.raises(ValueError):
        make()


def _operator_bytes(u: GridImage, p: DualField, g: Gauge) -> list:
    """The bytes of every public grid operator on u and p."""
    arrays = [forward_gradient(u).values, backward_gradient(u).values,
              divergence(p).values, forward_divergence(p).values,
              level_set(u, 0.1).values, reflect(u).values]
    floats = [tv_phi(u, g), dual_pairing(u, p), tv_phi_dual_gap(u, p, g),
              p.max_dual_value(g), u.l1_norm(),
              *energy_decompose(u, reflect(u), 1.5, g, [-0.5, 0.1, 0.7])]
    return [a.tobytes() for a in arrays] + [np.float64(x).tobytes() for x in floats]


def test_fields_are_row_major_in_every_layout(rng):
    # a Fortran-ordered or strided input gives the C array's bytes from
    # every operator: the constructors store row-major copies
    v = rng.normal(size=(9, 14))
    q = rng.normal(size=(9, 14, 2))
    q /= 1.0 + np.abs(q).sum(axis=-1, keepdims=True)  # inside -W of the inf-norm
    g = Gauge.p_norm(math.inf)
    ref = _operator_bytes(GridImage(v, 0.3), DualField(q, 0.3), g)
    planar = np.moveaxis(np.moveaxis(q, -1, 0).copy(), 0, -1)  # (2, H, W) storage
    for a, b in [(np.asfortranarray(v), np.asfortranarray(q)),
                 (np.repeat(v, 2, axis=1)[:, ::2], np.repeat(q, 2, axis=1)[:, ::2]),
                 (np.repeat(v, 3, axis=0)[::3], planar),
                 (v[::-1].copy()[::-1], q[:, ::-1].copy()[:, ::-1])]:
        assert not (a.flags.c_contiguous or b.flags.c_contiguous)
        u, p = GridImage(a, 0.3), DualField(b, 0.3)
        assert u.values.flags.c_contiguous and p.values.flags.c_contiguous
        assert _operator_bytes(u, p, g) == ref
    # a C-ordered float64 array is stored as it is, not copied
    assert np.shares_memory(GridImage(v).values, v)
    assert np.shares_memory(DualField(q).values, q)


def test_kernels_refuse_a_plane_without_a_row_major_view(rng):
    # the kernels write through flat views; where a plane has none they
    # raise rather than write into a silent copy
    v = np.asfortranarray(rng.normal(size=(4, 6)))
    with pytest.raises(ValueError, match="row-major"):
        grid._flat(v)
    with pytest.raises(ValueError, match="row-major"):
        _grad_forward_raw(v, 1.0)
    with pytest.raises(ValueError, match="row-major"):
        _grad_forward_raw(v.copy(order="C"), 1.0, out=np.empty((2, 6, 4)).T)
    with pytest.raises(ValueError, match="row-major"):
        _div_adjoint_raw(np.asfortranarray(rng.normal(size=(4, 6, 2))), 1.0)
    with pytest.raises(ValueError, match="row-major"):
        _div_adjoint_raw(rng.normal(size=(4, 6, 2)), 1.0, out=np.empty((6, 4)).T)
    assert np.shares_memory(grid._flat(v.T), v)


def test_backward_stencils_3x4_instance():
    # hand-computed at spacing 0.5: backward differences times 2, zero in
    # the first column (x) and the first row (y)
    u = GridImage(np.array([[0.0, 1.0, 3.0, 6.0],
                            [2.0, 2.0, 5.0, 5.0],
                            [1.0, 4.0, 4.0, 0.0]]), 0.5)
    g = backward_gradient(u).values
    assert np.array_equal(g[..., 0], [[0, 2, 4, 6], [0, 0, 6, 0], [0, 6, 0, -8]])
    assert np.array_equal(g[..., 1], [[0, 0, 0, 0], [4, 2, 4, -2], [-2, 4, -2, -10]])
    # forward differences of the components times 2, the first component
    # column (x) and row (y) ignored, the outside counted as zero
    px = np.array([[1.0, 2.0, 0.0, -1.0], [3.0, -1.0, 2.0, 1.0], [0.0, 1.0, 1.0, 2.0]])
    py = np.array([[5.0, 1.0, -2.0, 0.0], [1.0, 0.0, 2.0, -1.0], [-1.0, 3.0, 0.0, 2.0]])
    p = np.stack([px, py], axis=-1)
    expected = [[6, -4, 2, 0], [-6, 12, -6, 4], [4, -6, 2, -8]]
    assert np.array_equal(forward_divergence(DualField(p, 0.5)).values, expected)
    p[:, 0, 0] = 7.0
    p[0, :, 1] = -7.0
    assert np.array_equal(forward_divergence(DualField(p, 0.5)).values, expected)


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
    # integer fields at unit spacing: every product and sum is exact, so
    # both stencil pairs are adjoint exactly, in every layout
    for shape in ((2, 2), (2, 7), (7, 2), (5, 9)):
        v = rng.integers(-9, 10, size=shape).astype(float)
        q = rng.integers(-9, 10, size=shape + (2,)).astype(float)
        for a, b in zip(_layouts(v), _layouts(q)):
            assert (np.sum(_grad_forward_raw(a, 1.0) * b)
                    + np.sum(a * _div_adjoint_raw(b, 1.0))) == 0.0
            assert (np.sum(_grad_backward_raw(a, 1.0) * b)
                    + np.sum(a * _div_forward_raw(b, 1.0))) == 0.0


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


@pytest.mark.parametrize("supersample", [1, 4])
def test_symmetric_polygons_raster_symmetrically(supersample):
    # the Wulff square (1-norm) and diamond (inf-norm): every sample and its
    # mirror images are exact negatives, so each raster equals its
    # left-right, up-down and point reflections
    for g in (GAUGE_ZOO["l1"], GAUGE_ZOO["linf"]):
        vertices = g.wulff().vertices
        for n in range(16, 120):
            v = raster_convex_polygon(vertices, n, n, 3.0 / n,
                                      supersample=supersample).values
            assert np.array_equal(v, v[:, ::-1])
            assert np.array_equal(v, v[::-1])
            assert np.array_equal(v, v[::-1, ::-1])


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
    # one pass of both stencils gives the two sums bit for bit
    q = DualField(L2.project_minus_wulff(rng.normal(size=(6, 6, 2))), 0.5)
    assert tv_phi_dual_gap(v, q, L2) == tv_phi(v, L2) - dual_pairing(v, q)


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


@pytest.mark.parametrize("row", [0, 5], ids=["first-block", "later-block"])
def test_blocked_dual_maximum_keeps_a_nan(row, monkeypatch):
    # an 8x8 field in four 2-row blocks: a NaN in any block is the maximum,
    # as in a whole-grid np.max, so the field never passes as feasible
    monkeypatch.setattr(grid, "BLOCK_CELLS", 16)
    values = np.zeros((8, 8, 2))
    values[row, 3, 0] = math.nan
    p = DualField(values, 1.0)
    assert math.isnan(p.max_dual_value(L1))
    with pytest.raises(ValueError):
        tv_phi_dual_gap(GridImage(np.zeros((8, 8)), 1.0), p, L1)


def _two_kernel_means(values, spacing, g, p_values):
    """_stencil_means as a forward and a backward gradient kernel call per
    row block give it: the reference for the shifted buffer."""
    tv, pairing = [0.0, 0.0], [0.0, 0.0]
    for lo, hi, s0, s1 in grid._row_blocks(*values.shape, 1):
        slab = values[s0:s1]
        for k, gradient in enumerate((_grad_forward_raw, _grad_backward_raw)):
            d = gradient(slab, spacing)[lo - s0:hi - s0]
            tv[k] += g(d).sum()
            pairing[k] += np.einsum("ijk,ijk->", d, p_values[lo:hi])
    area = spacing**2
    return (float(0.5 * (tv[0] + tv[1]) * area),
            float(0.5 * (pairing[0] + pairing[1]) * area))


@pytest.mark.parametrize("rows", [1, 2, 5, 40])
def test_one_gradient_call_gives_both_stencil_sums(any_gauge, rows, rng,
                                                   monkeypatch):
    # the backward differences are the forward ones one cell back, so the
    # shifted buffer gives the two-kernel sums bit for bit: with equal
    # neighbours, +-0.0 entries (whose differences differ in the sign of
    # zero only) and a jump on every block seam
    height, width = 23, 9
    monkeypatch.setattr(grid, "BLOCK_CELLS", rows * width)
    u = np.round(rng.normal(size=(height, width)), 1)
    u += 3.0 * (np.arange(height) // rows % 2)[:, None]
    u[rng.random(u.shape) < 0.2] = 0.0
    u[rng.random(u.shape) < 0.2] = -0.0
    p = any_gauge.project_minus_wulff(rng.normal(size=(height, width, 2)))
    p[rng.random(p.shape) < 0.2] = -0.0
    for spacing in (1.0, 0.3):
        ref = _two_kernel_means(u, spacing, any_gauge, p)
        got = grid._stencil_means(u, spacing, any_gauge, p)
        assert np.array(got).tobytes() == np.array(ref).tobytes()
        image, field = GridImage(u, spacing), DualField(p, spacing)
        assert tv_phi(image, any_gauge) == ref[0]
        assert dual_pairing(image, field) == ref[1]


# ----------------------------------------------------------------------
# level sets, coarea, decomposition
# ----------------------------------------------------------------------

def test_level_set_examples(rng):
    u = GridImage(rng.integers(0, 2, size=(6, 6)).astype(float), 1.0)
    assert np.array_equal(level_set(u, 0.5).values, u.values)
    assert np.all(level_set(u, -1.0).values == 1.0)
    # strict inequality: thresholding at the maximum empties the set
    assert not np.any(level_set(u, float(u.values.max())).values)


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
        # levels outside [min, max] carry no weight: the same floats
        assert energy_decompose(u, f, 1.5, L1, [-3.0, 0.5, 1.5, 7.0]) == (
            total, integrated)


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
        inradius = _polygon_edges(w.vertices).inradius
        for _ in range(100):
            u = GridImage(rng.normal(size=(8, 8)), 0.5)
            tva = tv_phi(u, g)
            tv2 = tv_phi(u, L2)
            assert tva / circum < tv2 < tva / inradius
