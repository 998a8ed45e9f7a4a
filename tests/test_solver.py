import math

import numpy as np
import pytest

from wulff_tvl1.gauge import Gauge
from wulff_tvl1.grid import (GridImage, divergence, forward_gradient,
                             raster_convex_polygon, raster_disk, tv_phi)
from wulff_tvl1.solver import (SolverConfig, check_contrast_invariance, energy,
                               solve, threshold_binary)

from conftest import (GAUGE_ZOO, brute_force_binary_optimum, gaussian_blur,
                      symmetric_difference_area)

L1 = Gauge.p_norm(1)
L2 = Gauge.p_norm(2)


def unit_square(n=128, extent=3.0):
    h = extent / n
    return raster_convex_polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]],
                                 n, n, h, supersample=4, binary=True)


# ----------------------------------------------------------------------
# energy
# ----------------------------------------------------------------------

def test_energy_at_input_is_tv(rng):
    f = GridImage(rng.random((16, 16)), 0.2)
    assert energy(f, f, 3.0, L1) == pytest.approx(tv_phi(f, L1))


def test_energy_zero_candidate_isotropic_disk():
    n = 768
    h = 3.0 / n  # spacing 1/256
    f = raster_disk(n, n, h, radius=1.0, supersample=4)
    z = GridImage(np.zeros_like(f.values), h)
    assert energy(z, f, 2.0, L2) == pytest.approx(2 * math.pi, rel=0.01)


def test_energy_at_smoothed_disk_isotropic():
    # TV of the sharp raster carries the angular staircase bias, so the
    # euclidean perimeter is measured on a mollified approximant
    n = 768
    h = 3.0 / n
    f0 = raster_disk(n, n, h, radius=1.0, supersample=4)
    f = GridImage(gaussian_blur(f0.values, 2.0), h)
    assert energy(f, f, 2.0, L2) == pytest.approx(2 * math.pi, rel=0.01)


def test_energy_validates_inputs(rng):
    f = GridImage(rng.random((8, 8)), 1.0)
    with pytest.raises(ValueError):
        energy(GridImage(np.zeros((4, 4)), 1.0), f, 1.0, L1)
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            energy(f, f, lam, L1)


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def test_solve_zero_input():
    f = GridImage(np.zeros((16, 16)), 0.5)
    res = solve(f, 2.0, L1, SolverConfig(max_iterations=200))
    assert energy(res.u, f, 2.0, L1) == 0.0
    assert res.converged


def test_solve_rejects_bad_config():
    f = GridImage(np.zeros((8, 8)), 1.0)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve(f, lam, L1)
    with pytest.raises(ValueError):
        solve(f, 1.0, L1, SolverConfig(tau=10.0, sigma=10.0))
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    for tol in (math.nan, -1.0):
        with pytest.raises(ValueError):
            SolverConfig(gap_tolerance=tol)
    for shape in ((1, 1), (1, 8), (8, 1)):
        with pytest.raises(ValueError, match="2x2"):
            solve(GridImage(np.zeros(shape), 1.0), 1.0, L1)


def test_solve_trivial_minimizer_small():
    # support in R W with lambda < 2/R denoises to (nearly) zero
    f = unit_square(n=96)
    res = solve(f, 1.5, L1, SolverConfig(max_iterations=4000))
    assert res.u.l1_norm() <= 0.01 * f.l1_norm()


def test_solve_faithful_square():
    f = unit_square(n=96)
    res = solve(f, 4.0, L1)
    assert res.converged
    u = threshold_binary(res)
    assert symmetric_difference_area(u, f) <= 0.02 * f.l1_norm()


def test_solve_matches_brute_force(rng):
    for _ in range(4):
        f = GridImage(rng.integers(0, 2, size=(3, 3)).astype(float), 1.0)
        for lam in (0.5, 2.0, 8.0):
            opt = brute_force_binary_optimum(f, lam, L1)
            res = solve(f, lam, L1, SolverConfig(max_iterations=4000))
            e = energy(res.u, f, lam, L1)
            assert e >= opt - 1e-9
            assert e <= opt + res.final_gap + 1e-9


def test_returned_dual_is_feasible(rng):
    f = GridImage(rng.random((24, 24)), 0.25)
    res = solve(f, 2.0, L1, SolverConfig(max_iterations=500))
    assert res.p.max_dual_value(L1) <= 1.0 + 1e-12


def test_energy_trace_monotone_after_burn_in():
    f = unit_square(n=64)
    res = solve(f, 2.5, L1, SolverConfig(max_iterations=2000))
    trace = res.energy_trace[50:]
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-9 * (1.0 + np.abs(trace[:-1])))
    assert res.energy_trace[-1] == pytest.approx(energy(res.u, f, 2.5, L1))


def test_gap_bounds_suboptimality(rng):
    f = GridImage(rng.integers(0, 2, size=(3, 3)).astype(float), 1.0)
    res = solve(f, 2.0, L1, SolverConfig(max_iterations=3000))
    opt = brute_force_binary_optimum(f, 2.0, L1)
    assert res.final_gap >= 0.0
    assert energy(res.u, f, 2.0, L1) - opt <= res.final_gap + 1e-9


def reference_gap(res, f: GridImage, lam: float, g: Gauge) -> tuple[float, float]:
    """Raw and normalised gap of the returned (u, p), computed from scratch
    with the validated grid operators."""
    h2 = f.spacing**2
    div_p = divergence(res.p).values
    dmax = float(np.max(np.abs(div_p)))
    scale = min(1.0, lam / dmax) if dmax > 0 else 1.0
    dual_value = -float((f.values * div_p).sum()) * scale * h2
    e_fwd = (float(g(forward_gradient(res.u).values).sum()) * h2
             + lam * float(np.abs(res.u.values - f.values).sum()) * h2)
    gap = max(e_fwd - dual_value, 0.0)
    return gap, gap / (1.0 + abs(e_fwd))


@pytest.mark.parametrize("name", ["l1", "l2", "asymmetric", "hexagon"])
def test_final_gap_is_the_returned_pairs_gap(name):
    g = GAUGE_ZOO[name]
    f = raster_disk(32, 32, 3.0 / 32, radius=1.0, supersample=4, binary=True)
    res = solve(f, 3.0, g, SolverConfig(max_iterations=300))
    assert (res.final_gap, res.final_gap_normalized) == reference_gap(res, f, 3.0, g)


def test_gap_stop_returns_the_pair_that_met_the_tolerance():
    f = raster_disk(64, 64, 3.0 / 64, radius=1.0, supersample=4, binary=True)
    cfg = SolverConfig(max_iterations=1500)
    res = solve(f, 3.0, L1, cfg)
    # without the gap test the run goes on, so the gap test stopped it
    no_gap = solve(f, 3.0, L1, SolverConfig(max_iterations=1500, gap_tolerance=0.0))
    assert res.converged and res.iterations < no_gap.iterations
    assert res.stop_reason == "gap"
    assert res.final_gap_normalized <= cfg.gap_tolerance
    assert (res.final_gap,
            res.final_gap_normalized) == reference_gap(res, f, 3.0, L1)
    assert res.energy_trace[-1] == pytest.approx(energy(res.u, f, 3.0, L1),
                                                 rel=1e-12)


@pytest.mark.parametrize("name", ["l2", "p3"])
def test_capped_run_returns_its_lowest_forward_energy_pair(name):
    # smooth gauges: the forward-stencil energy the gap bounds keeps falling
    # long after the two-stencil mean stops, so selecting by it keeps the gap
    # of a capped run fresh
    g = GAUGE_ZOO[name]
    f = raster_disk(64, 64, 3.0 / 64, radius=1.0, supersample=4, binary=True)
    res = solve(f, 3.0, g, SolverConfig(max_iterations=1500))
    assert res.final_gap_normalized <= 1e-3
    assert (res.final_gap,
            res.final_gap_normalized) == reference_gap(res, f, 3.0, g)
    h2 = f.spacing**2
    e_fwd = (float(g(forward_gradient(res.u).values).sum()) * h2
             + 3.0 * float(np.abs(res.u.values - f.values).sum()) * h2)
    assert res.energy_trace[-1] == pytest.approx(e_fwd, rel=1e-12)


def test_stalled_run_is_not_converged():
    # steps this small trip the relative-change fallback long before the gap
    # closes; such a run must not report convergence
    f = raster_disk(64, 64, 3.0 / 64, radius=1.0, supersample=4, binary=True)
    res = solve(f, 3.0, L1, SolverConfig(tau=1e-7, sigma=1e-7))
    assert res.stop_reason == "stalled" and not res.converged
    assert res.iterations < SolverConfig().max_iterations
    assert res.final_gap_normalized > SolverConfig().gap_tolerance


# ----------------------------------------------------------------------
# thresholding and contrast invariance
# ----------------------------------------------------------------------

def test_threshold_binary_examples():
    f = unit_square(n=48)
    res = solve(f, 4.0, L1, SolverConfig(max_iterations=2000))
    u = threshold_binary(res)
    assert set(np.unique(u.values)) <= {0.0, 1.0}

    res.u = GridImage(np.full((8, 8), 0.3), 1.0)
    assert not np.any(threshold_binary(res).values)


def test_contrast_invariance_identity_run():
    f = unit_square(n=48)
    rep = check_contrast_invariance(f, 4.0, L1, 1.0,
                                    SolverConfig(max_iterations=1500))
    assert rep.symdiff_fraction == 0.0
    assert rep.energy_scale_error <= rep.gap_budget + 1e-9


def test_contrast_invariance_rescaling():
    f = unit_square(n=64)
    for c in (0.5, 2.0):
        rep = check_contrast_invariance(f, 4.0, L1, c,
                                        SolverConfig(max_iterations=3000))
        assert rep.symdiff_fraction <= 0.02
        assert rep.energy_scale_error <= rep.gap_budget + 1e-6


def test_contrast_invariance_zero_input():
    f = GridImage(np.zeros((16, 16)), 0.5)
    rep = check_contrast_invariance(f, 2.0, L1, 3.0,
                                    SolverConfig(max_iterations=100))
    assert not np.any(rep.base.u.values)
    assert not np.any(rep.scaled.u.values)


def test_exact_scaling_identity(rng):
    # E(c u; c f) = c E(u; f) holds identically by 1-homogeneity
    u = GridImage(rng.random((10, 10)), 0.3)
    f = GridImage(rng.random((10, 10)), 0.3)
    for c in (0.25, 2.0, 9.0):
        lhs = energy(GridImage(c * u.values, 0.3), GridImage(c * f.values, 0.3),
                     4.0, L1)
        assert lhs == pytest.approx(c * energy(u, f, 4.0, L1), rel=1e-12)
