import math
import tracemalloc

import numpy as np
import pytest

from wulff_tvl1 import solver
from wulff_tvl1.gauge import Gauge
from wulff_tvl1.certificate import check_certificate
from wulff_tvl1.grid import (DualField, GridImage, _div_adjoint_raw,
                             _grad_forward_raw, divergence, forward_gradient,
                             raster_convex_polygon, raster_disk, tv_phi)
from wulff_tvl1.solver import (BURN_IN, CHANGE_TOLERANCE, SolverConfig,
                               check_contrast_invariance, energy, solve,
                               threshold_binary)

from conftest import (GAUGE_ZOO, brute_force_binary_optimum, gaussian_blur,
                      max_flow_optimum, symmetric_difference_area)

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
    for bad in (0.0, -0.1, math.nan, math.inf):
        for steps in ({"tau": bad}, {"sigma": bad}):
            with pytest.raises(ValueError, match="step sizes"):
                solve(f, 1.0, L1, SolverConfig(**steps))
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
    # one trace entry per check: skip the checks inside the burn-in
    trace = res.energy_trace[BURN_IN // solver.MONITOR_EVERY:]
    assert len(trace) > 1
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-9 * (1.0 + np.abs(trace[:-1])))
    assert res.energy_trace[-1] == pytest.approx(energy(res.u, f, 2.5, L1))


def test_gap_bounds_suboptimality(rng):
    f = GridImage(rng.integers(0, 2, size=(3, 3)).astype(float), 1.0)
    res = solve(f, 2.0, L1, SolverConfig(max_iterations=3000))
    opt = brute_force_binary_optimum(f, 2.0, L1)
    assert res.final_gap >= 0.0
    assert energy(res.u, f, 2.0, L1) - opt <= res.final_gap + 1e-9


def forward_energy(u: GridImage, f: GridImage, lam: float, g: Gauge) -> float:
    h2 = f.spacing**2
    return (float(g(forward_gradient(u).values).sum()) * h2
            + lam * float(np.abs(u.values - f.values).sum()) * h2)


def box_dual(fv: np.ndarray, div_p: np.ndarray, lam: float, h2: float) -> float:
    """h^2 sum over cells of the least of -u div p + lam |u - f| over
    u in [min f, max f], attained at min f, max f or f."""
    c = np.clip(div_p, -lam, lam)
    x = div_p - c
    return -(float((fv * c).sum()) + float(fv.max()) * float(np.maximum(x, 0.0).sum())
             + float(fv.min()) * float(np.minimum(x, 0.0).sum())) * h2


def is_binary(f: GridImage) -> bool:
    return bool(np.all((f.values == 0.0) | (f.values == 1.0)))


def binary_energy(b: np.ndarray, f: GridImage, lam: float, g: Gauge) -> float:
    """Forward-stencil energy of a 0/1 image of a separable gauge, counted:
    h (phi(e0) #x-jumps + phi(e1) #y-jumps) + lam h^2 #(b != f)."""
    c0, c1 = (float(c) for c in g(np.eye(2)))
    jumps = (c0 * np.count_nonzero(np.diff(b, axis=1))
             + c1 * np.count_nonzero(np.diff(b, axis=0)))
    return (jumps * f.spacing
            + lam * np.count_nonzero(b != f.values) * f.spacing**2)


def reference_gap(res, f: GridImage, lam: float, g: Gauge) -> tuple[float, float]:
    """Raw and normalised gap of the returned (u, p), computed from scratch
    with the validated grid operators: the scaled dual and, for separable
    gauges, the box dual; with binary f a binary u has its counted energy,
    and any other u is returned only where its level set's is not lower."""
    h2 = f.spacing**2
    div_p = divergence(res.p).values
    dmax = float(np.max(np.abs(div_p)))
    scale = min(1.0, lam / dmax) if dmax > 0 else 1.0
    dual_value = -float((f.values * div_p).sum()) * scale * h2
    e = forward_energy(res.u, f, lam, g)
    if g.separable:
        dual_value = max(dual_value, box_dual(f.values, div_p, lam, h2))
        if is_binary(f):
            level = binary_energy(threshold_binary(res).values, f, lam, g)
            e = level if is_binary(res.u) else min(e, level)
    gap = max(e - dual_value, 0.0)
    return gap, gap / (1.0 + abs(e))


@pytest.mark.parametrize("name", ["l1", "l2", "asymmetric", "hexagon"])
def test_final_gap_is_the_returned_pairs_gap(name):
    g = GAUGE_ZOO[name]
    f = raster_disk(32, 32, 3.0 / 32, radius=1.0, supersample=4, binary=True)
    res = solve(f, 3.0, g, SolverConfig(max_iterations=300))
    assert (res.final_gap, res.final_gap_normalized) == reference_gap(res, f, 3.0, g)
    # the result stores what it measured and derives the gap from it
    assert res.final_gap == max(res.energy_forward - res.lower_bound, 0.0)
    with pytest.raises(AttributeError):
        res.final_gap = 0.0


@pytest.mark.parametrize("shape", [(4, 4), (4, 9), (9, 4), (9, 9)])
def test_the_stop_guard_is_condition_a(shape):
    # the guard evaluates condition (a) on the cells the certificate picks;
    # over none (4 rows or columns lie inside the 2-cell frame) both fail
    p = np.full(shape + (2,), 0.9)
    f = GridImage(np.zeros(shape), 1.0)
    guard = solver._meets_div_bound(_div_adjoint_raw(p, 1.0), p, 0.01, 1.0,
                                    np.empty(shape))
    rep = check_certificate(f, f, DualField(p, 1.0), 0.01, L1)
    assert guard == rep.conditions["a_div_bound"] == (min(shape) > 4)


def test_gap_stop_returns_the_pair_that_met_the_tolerance():
    f = raster_disk(64, 64, 3.0 / 64, radius=1.0, supersample=4, binary=True)
    cfg = SolverConfig(max_iterations=1500)
    res = solve(f, 3.0, L1, cfg)
    # the check before did not meet the tolerance (a run capped there ends
    # on it), so the gap test stopped the run at its first chance; a zero
    # tolerance no longer shows this, since the sharper gap reaches 0 here
    early = solve(f, 3.0, L1, SolverConfig(
        max_iterations=res.iterations - solver.MONITOR_EVERY))
    assert res.converged and early.stop_reason == "cap"
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


def reference_loop(f: GridImage, lam: float, g: Gauge, cfg: SolverConfig):
    """The step loop with interleaved (H, W, 2) fields, the 1/h folded into
    the steps, the shrink written as sign(s) max(|s| - tau lam, 0), fresh
    copies on each improvement and the monitor on every iteration, its
    condition-(a) guard taken from check_certificate; returns (u, p, trace,
    gap, iterations)."""
    tau, sigma = cfg.steps_for(f.spacing)
    h2 = f.spacing**2
    fv = f.values
    u = fv.copy()
    u_bar = fv.copy()
    p = np.zeros((f.height, f.width, 2))
    best_energy, best_u, best_p, best_gap = math.inf, u.copy(), p.copy(), math.nan
    trace = []
    for k in range(cfg.max_iterations):
        iterations = k + 1
        grad = _grad_forward_raw(u_bar, 1.0) * (sigma / f.spacing) + p
        p = g.project_minus_wulff(grad)
        step = _div_adjoint_raw(p, 1.0) * (tau / f.spacing) + u - fv
        step = np.sign(step) * np.maximum(np.abs(step) - tau * lam, 0.0)
        u_prev, u = u, fv + step
        u_bar = u - u_prev
        change = max(float(u_bar.max()), -float(u_bar.min()))
        u_bar += u
        fid = lam * float(np.abs(u - fv).sum()) * h2
        e_fwd = float(g(_grad_forward_raw(u, f.spacing)).sum()) * h2 + fid
        div_p = _div_adjoint_raw(p, f.spacing)
        dmax = max(float(div_p.max()), -float(div_p.min()))
        scale = min(1.0, lam / dmax) if dmax > 0 else 1.0
        scaled = -float((fv * div_p).sum()) * scale * h2
        e, dual, checked = e_fwd, scaled, u
        if g.separable:
            dual = max(dual, box_dual(fv, div_p, lam, h2))
            if is_binary(f):
                level = (u > 0.5).astype(float)
                e_level = binary_energy(level, f, lam, g)
                if e_level < e_fwd or np.array_equal(level, u):
                    e, checked = e_level, level
        gap = e - dual
        gap_met = gap / (1.0 + abs(e)) <= cfg.gap_tolerance
        if gap_met and (e, dual) != (e_fwd, scaled):
            gap_met = ((e_fwd - scaled) / (1.0 + abs(e_fwd)) <= cfg.gap_tolerance
                       or check_certificate(f, f, DualField(p, f.spacing), lam,
                                            g).conditions["a_div_bound"])
        if gap_met or e < best_energy:
            best_energy, best_u, best_p, best_gap = e, checked.copy(), p.copy(), gap
        trace.append(best_energy)
        if gap_met or (k > BURN_IN and change <= CHANGE_TOLERANCE
                       * (max(float(u.max()), -float(u.min())) + 1e-30)):
            break
    return best_u, best_p, np.array(trace), max(best_gap, 0.0), iterations


@pytest.mark.parametrize("name", sorted(GAUGE_ZOO))
def test_planar_loop_matches_the_interleaved_reference(name, monkeypatch):
    # with the monitor on every iteration the planar loop must reproduce the
    # interleaved one bit for bit
    monkeypatch.setattr(solver, "MONITOR_EVERY", 1)
    g = GAUGE_ZOO[name]
    f = raster_disk(12, 16, 0.2, radius=1.0, supersample=4)
    noise = np.random.default_rng(7).normal(scale=0.2, size=f.values.shape)
    f = GridImage(f.values + noise, f.spacing)
    cfg = SolverConfig(max_iterations=60, gap_tolerance=0.0)
    res = solve(f, 2.0, g, cfg)
    u, p, trace, gap, iterations = reference_loop(f, 2.0, g, cfg)
    assert res.iterations == iterations == 60
    assert res.u.values.tobytes() == u.tobytes()
    assert res.p.values.tobytes() == p.tobytes()
    assert res.energy_trace.tobytes() == trace.tobytes()
    assert res.final_gap == gap


@pytest.mark.parametrize("name", ["l1", "weighted-l1"])
def test_sharper_stop_matches_the_reference(name, monkeypatch):
    # binary f at the default tolerance: the box dual, the 0.5 level set and
    # the condition-(a) guard, which turns down candidate checks here before
    # the run stops, all bit for bit
    monkeypatch.setattr(solver, "MONITOR_EVERY", 1)
    verdicts = []
    guard = solver._meets_div_bound
    monkeypatch.setattr(solver, "_meets_div_bound",
                        lambda *args: verdicts.append(guard(*args)) or verdicts[-1])
    g = GAUGE_ZOO[name]
    f = raster_disk(48, 48, 3.0 / 48, radius=1.0, supersample=4, binary=True)
    cfg = SolverConfig(max_iterations=2000)
    res = solve(f, 2.0, g, cfg)
    u, p, trace, gap, iterations = reference_loop(f, 2.0, g, cfg)
    assert res.stop_reason == "gap" and res.iterations == iterations
    assert False in verdicts and verdicts[-1]
    assert res.u.values.tobytes() == u.tobytes()
    assert res.p.values.tobytes() == p.tobytes()
    assert res.energy_trace.tobytes() == trace.tobytes()
    assert res.final_gap == gap
    assert set(np.unique(res.u.values)) <= {0.0, 1.0}  # the 0.5 level set


@pytest.mark.parametrize("name", ["asymmetric", "asymmetric-skew", "square",
                                  "hexagon"])
def test_non_separable_solves_keep_the_plain_monitor(name, monkeypatch):
    # the box dual needs a gauge that clipping cannot raise; the asymmetric
    # gauge is not monotone in |y_1|, and the others are left as they are too
    a = GAUGE_ZOO["asymmetric"]
    assert a(np.array([-1.0, 1.0])) < a(np.array([0.0, 1.0]))
    monkeypatch.setattr(solver, "MONITOR_EVERY", 1)
    monkeypatch.setattr(solver, "_meets_div_bound", None)  # never called
    g = GAUGE_ZOO[name]
    f = raster_disk(32, 32, 3.0 / 32, radius=1.0, supersample=4, binary=True)
    cfg = SolverConfig(max_iterations=300)
    res = solve(f, 3.0, g, cfg)
    u, p, trace, gap, iterations = reference_loop(f, 3.0, g, cfg)
    assert res.iterations == iterations
    assert res.u.values.tobytes() == u.tobytes()
    assert res.p.values.tobytes() == p.tobytes()
    assert res.energy_trace.tobytes() == trace.tobytes()
    assert res.final_gap == gap


def allocating_run(f: GridImage, lam: float, g: Gauge, tau: float,
                   sigma: float, max_iterations: int, gap_tolerance: float):
    """solver._run as it was before its fixed workspace: buffers from
    separate allocations, interleaved-view dual arithmetic, a fresh array
    from every projection and from the monitor's gauge evaluation, and a
    float 0.5 level set."""
    spacing = f.spacing
    h2 = spacing**2
    fv = f.values
    u = fv.copy()
    u_bar = fv.copy()
    planes = (2, f.height, f.width)
    p = np.zeros(planes).transpose(1, 2, 0)
    grad_buf = np.zeros(planes).transpose(1, 2, 0)
    div_buf = np.empty_like(fv)
    step = np.empty_like(fv)
    scratch = np.empty_like(fv)
    box = g.separable
    if box:
        f_lo, f_hi = float(fv.min()), float(fv.max())
        rounding = is_binary(f)
    for k in range(max_iterations):
        iterations = k + 1
        _grad_forward_raw(u_bar, 1.0, out=grad_buf)
        grad_buf *= sigma / spacing
        grad_buf += p
        p = g.project_minus_wulff(grad_buf)
        _div_adjoint_raw(p, 1.0, out=div_buf)
        np.multiply(div_buf, tau / spacing, out=step)
        step += u
        step -= fv
        step -= np.clip(step, -tau * lam, tau * lam, out=scratch)
        step += fv
        np.subtract(step, u, out=u)
        check = (iterations % solver.MONITOR_EVERY == 0
                 or iterations == max_iterations)
        stalled = (check and k > BURN_IN and solver._abs_max(u)
                   <= CHANGE_TOLERANCE * (solver._abs_max(step) + 1e-30))
        u += step
        u, u_bar, step = step, u, u_bar
        if not check:
            continue
        np.subtract(u, fv, out=scratch)
        fid = lam * float(np.abs(scratch, out=scratch).sum()) * h2
        grad_fw = float(g(_grad_forward_raw(u, spacing, out=grad_buf)).sum())
        e_fwd = grad_fw * h2 + fid
        div_p = np.divide(div_buf, spacing, out=div_buf)
        dmax = solver._abs_max(div_p)
        scale = min(1.0, lam / dmax) if dmax > 0 else 1.0
        scaled_dual = -float(np.multiply(fv, div_p, out=scratch).sum()) * scale * h2
        energy_value, dual_value, checked_u = e_fwd, scaled_dual, u
        if box:
            clipped = np.clip(div_p, -lam, lam, out=grad_buf[..., 0])
            fc = float(np.multiply(fv, clipped, out=scratch).sum())
            x = np.subtract(div_p, clipped, out=clipped)
            up = float(np.maximum(x, 0.0, out=scratch).sum())
            down = float(np.minimum(x, 0.0, out=x).sum()) if f_lo else 0.0
            dual_value = max(dual_value, -(fc + f_hi * up + f_lo * down) * h2)
            if rounding:
                level = np.greater(u, 0.5, out=step)
                e_level = binary_energy(level, f, lam, g)
                if e_level < e_fwd or np.array_equal(level, u):
                    energy_value, checked_u = e_level, level
        gap_met = ((energy_value - dual_value) / (1.0 + abs(energy_value))
                   <= gap_tolerance
                   and ((e_fwd - scaled_dual) / (1.0 + abs(e_fwd))
                        <= gap_tolerance
                        or solver._meets_div_bound(div_p, p, lam, spacing, scratch)))
        yield iterations, checked_u, p, energy_value, dual_value, gap_met, stalled


@pytest.mark.parametrize("name", sorted(GAUGE_ZOO))
@pytest.mark.parametrize("binary", [True, False], ids=["binary", "noisy"])
def test_workspace_loop_matches_the_allocating_loop(name, binary, monkeypatch):
    # the fixed workspace moves memory only: on a 37 x 50 grid, whose planes
    # (14 800 bytes) are no multiple of 4 KiB, every output keeps its bytes
    g = GAUGE_ZOO[name]
    f = raster_disk(50, 37, 3.0 / 50, radius=1.0, supersample=4, binary=binary)
    if not binary:
        noise = np.random.default_rng(11).normal(scale=0.1, size=f.values.shape)
        f = GridImage(f.values + noise, f.spacing)
    cfg = SolverConfig(max_iterations=400)
    res = solve(f, 2.5, g, cfg)
    monkeypatch.setattr(solver, "_run", allocating_run)
    ref = solve(f, 2.5, g, cfg)
    for a, b in ((res.u.values, ref.u.values), (res.p.values, ref.p.values),
                 (res.energy_trace, ref.energy_trace)):
        assert a.tobytes() == b.tobytes()
    assert (res.iterations, res.stop_reason, res.lower_bound, res.final_gap) == (
        ref.iterations, ref.stop_reason, ref.lower_bound, ref.final_gap)


def test_workspace_places_every_buffer_at_its_page_offset():
    # the solver's layout, an eight-array one and a count that does not
    # divide 64: every buffer STAGGER bytes on, 64-byte aligned
    for layout in ([(37, 50)] * 3 + [(2, 37, 50)] * 2,
                   [(37, 50)] * 6 + [(2, 37, 50)] * 2, [(37, 50)] * 6):
        buffers = solver._workspace(layout)
        offsets = [b.__array_interface__["data"][0] % solver.PAGE
                   for b in buffers]
        assert offsets == [k * solver.STAGGER % solver.PAGE
                           for k in range(len(layout))]
        assert all(offset % 64 == 0 for offset in offsets)
        assert [b.shape for b in buffers] == layout
        assert all(b.flags.c_contiguous and not b.any() for b in buffers)
        ends = sorted((b.__array_interface__["data"][0], b.nbytes)
                      for b in buffers)
        assert all(a + n <= b for (a, n), (b, _) in zip(ends, ends[1:]))


def test_solve_memory_is_the_workspace_and_the_result():
    # traced peak of a warm 1-norm solve on a 128^2 disk, in planes of
    # H * W doubles: the 7-plane workspace, the returned u and p (3 planes)
    # and small temporaries (a ten-plane workspace reads 14.0)
    n = 128
    f = raster_disk(n, n, 3.0 / n, binary=True)
    cfg = SolverConfig(max_iterations=2 * solver.MONITOR_EVERY)
    solve(f, 4.0, L1, cfg)  # once first, for one-time allocations
    tracemalloc.start()
    try:
        solve(f, 4.0, L1, cfg)
        planes = tracemalloc.get_traced_memory()[1] / (8 * n * n)
    finally:
        tracemalloc.stop()
    assert planes <= 11.5, planes


@pytest.mark.parametrize("name", ["l1", "weighted-l1"])
def test_sharper_bound_is_sound(name, rng):
    # lower_bound = energy_forward - final_gap stays at or below the exact
    # optimum, and the returned energy at or above it
    g = GAUGE_ZOO[name]
    for _ in range(4):
        f = GridImage(rng.integers(0, 2, size=(3, 3)).astype(float), 1.0)
        for lam in (0.5, 2.0, 8.0):
            opt = brute_force_binary_optimum(f, lam, g)
            res = solve(f, lam, g, SolverConfig(max_iterations=4000))
            assert res.energy_forward - res.final_gap <= opt + 1e-9
            assert res.lower_bound <= opt + 1e-9
            assert opt <= res.energy_forward + 1e-9
            assert res.energy_forward == pytest.approx(
                forward_energy(res.u, f, lam, g), rel=1e-12)


def test_the_max_flow_oracle_is_the_brute_force_optimum(rng):
    # unequal weights tell the axes apart: each weight's arcs join
    # neighbours along its own axis
    for name in ("l1", "weighted-l1"):
        for _ in range(2):
            f = GridImage(rng.integers(0, 2, size=(3, 3)).astype(float), 0.75)
            for lam in (0.5, 8.0):
                assert max_flow_optimum(f, lam, GAUGE_ZOO[name]) == pytest.approx(
                    brute_force_binary_optimum(f, lam, GAUGE_ZOO[name]), rel=1e-12)


SQUARE = [[1, -1], [1, 1], [-1, 1], [-1, -1]]


@pytest.mark.parametrize("n, shape, name, cap", [
    (256, "disk", "l1", 20000),          # criterion 1's input
    (192, "square", "l1", 20000),        # criterion 3's shape, 128 cells a side
    (128, "disk", "weighted-l1", 3000),  # capped: 10360 iterations to the gap
], ids=["disk-256-l1", "square-192-l1", "disk-128-weighted-l1"])
def test_the_reported_bounds_bracket_the_exact_optimum(n, shape, name, cap):
    # lower_bound <= opt <= energy_forward on inputs far beyond brute force;
    # the exact optimum is one min cut.  The 1e-12 allows the rounding of
    # the sums behind lower_bound and nothing more
    h = 3.0 / n
    f = (raster_disk(n, n, h, radius=1.0, supersample=4, binary=True)
         if shape == "disk" else
         raster_convex_polygon(SQUARE, n, n, h, supersample=4, binary=True))
    g = GAUGE_ZOO[name]
    res = solve(f, 4.0, g, SolverConfig(max_iterations=cap))
    opt = max_flow_optimum(f, 4.0, g)
    assert res.lower_bound <= opt * (1.0 + 1e-12)
    assert opt <= res.energy_forward


def test_binary_iterate_reports_its_counted_energy():
    # lambda above max |div p| keeps u = f; at h = 0.3 the counted energy of
    # this f (15.0) is an ulp above the gauge sum, and the report keeps the
    # counted one, as for any binary u it returns
    f = GridImage(np.random.default_rng(3).integers(0, 2, size=(8, 8))
                  .astype(float), 0.3)
    assert binary_energy(f.values, f, 100.0, L1) > forward_energy(f, f, 100.0, L1)
    res = solve(f, 100.0, L1, SolverConfig(max_iterations=100))
    assert res.u.values.tobytes() == f.values.tobytes()
    assert res.energy_forward == binary_energy(f.values, f, 100.0, L1) == 15.0
    assert (res.final_gap,
            res.final_gap_normalized) == reference_gap(res, f, 100.0, L1)


def test_trivial_regime_stops_only_on_a_certifying_field(monkeypatch):
    # 96^2 square at lambda = 1: the sharper gap meets the tolerance one
    # check before p meets condition (a), and the guard waits for it
    f = unit_square(n=96)
    cfg = SolverConfig(max_iterations=4000)
    res = solve(f, 1.0, L1, cfg)
    rep = check_certificate(res.u, f, res.p, 1.0, L1)
    assert res.stop_reason == "gap" and rep.passed
    monkeypatch.setattr(solver, "_meets_div_bound", lambda *args: True)
    early = solve(f, 1.0, L1, cfg)
    assert early.stop_reason == "gap" and early.iterations < res.iterations
    rep = check_certificate(early.u, f, early.p, 1.0, L1)
    assert not rep.conditions["a_div_bound"]


def test_energy_ties_keep_the_higher_dual(monkeypatch):
    # 96^2 square at lambda = 1.5, the trivial regime: u = 0 is optimal and
    # its counted energy repeats exactly over many checks while the dual
    # value still rises; the capped run returns the tied pair of highest
    # dual value, whose gap is the smallest
    checks = []
    run = solver._run

    def recorded(*args):
        for item in run(*args):
            checks.append(item[3:5])
            yield item
    monkeypatch.setattr(solver, "_run", recorded)
    f = unit_square(n=96)
    res = solve(f, 1.5, L1, SolverConfig(max_iterations=600))
    assert res.stop_reason == "cap"
    lowest = min(e for e, _ in checks)
    tied = [dual for e, dual in checks if e == lowest]
    assert len(tied) > 1 and tied[0] < max(tied)
    assert res.energy_forward == lowest and res.lower_bound == max(tied)
    assert res.final_gap == max(lowest - max(tied), 0.0)


def test_monitor_cadence(monkeypatch):
    every = solver.MONITOR_EVERY
    assert every > 1
    f = raster_disk(64, 64, 3.0 / 64, radius=1.0, supersample=4, binary=True)
    shape = (64, 64, 2)

    # a gap stop lands on a check iteration
    res = solve(f, 3.0, L1, SolverConfig(max_iterations=1500))
    assert res.stop_reason == "gap" and res.iterations % every == 0
    assert len(res.energy_trace) == res.iterations // every
    assert res.p.values.shape == shape and res.p.values.flags.c_contiguous

    # a capped run checks its last iteration and returns the checked pair of
    # lowest forward energy; a cadence above the cap checks only the last
    # iteration, which gives each checked iterate on its own
    noisy = GridImage(f.values + np.random.default_rng(3).normal(
        scale=0.2, size=f.values.shape), f.spacing)
    res = solve(noisy, 3.0, L1, SolverConfig(max_iterations=37))
    assert res.stop_reason == "cap" and res.iterations == 37
    assert len(res.energy_trace) == 4  # iterations 10, 20, 30 and 37
    assert res.energy_trace[-1] == forward_energy(res.u, noisy, 3.0, L1)
    assert res.p.values.shape == shape and res.p.values.flags.c_contiguous
    monkeypatch.setattr(solver, "MONITOR_EVERY", 1000)
    alone = [solve(noisy, 3.0, L1, SolverConfig(max_iterations=n))
             for n in (10, 20, 30, 37)]
    energies = [a.energy_trace[0] for a in alone]
    assert np.array_equal(res.energy_trace, np.minimum.accumulate(energies))
    assert energies[-1] == min(energies)  # so iteration 37's pair is returned
    assert res.u.values.tobytes() == alone[-1].u.values.tobytes()
    assert res.p.values.tobytes() == alone[-1].p.values.tobytes()


def test_stalled_run_is_not_converged(monkeypatch):
    # steps this small trip the relative-change fallback long before the gap
    # closes; such a run must not report convergence
    f = raster_disk(64, 64, 3.0 / 64, radius=1.0, supersample=4, binary=True)
    cfg = SolverConfig(tau=1e-7, sigma=1e-7)
    res = solve(f, 3.0, L1, cfg)
    assert res.stop_reason == "stalled" and not res.converged
    # the fallback is tested on check iterations: 60 is the first one after
    # the burn-in
    assert res.iterations == 60
    assert len(res.energy_trace) == res.iterations // solver.MONITOR_EVERY
    assert res.energy_trace[-1] == forward_energy(res.u, f, 3.0, L1)
    assert res.final_gap_normalized > SolverConfig().gap_tolerance

    # the 8x8 integer run (gap test off) stalls long after the burn-in
    ints = GridImage(np.random.default_rng(1).integers(0, 3, size=(8, 8))
                     .astype(float), 1.0)
    late = solve(ints, 1.0, L1, SolverConfig(gap_tolerance=0.0))
    assert late.stop_reason == "stalled" and late.iterations == 1040

    # checking every iteration, each run stops where the rule first holds
    monkeypatch.setattr(solver, "MONITOR_EVERY", 1)
    assert solve(f, 3.0, L1, cfg).iterations == BURN_IN + 2
    assert solve(ints, 1.0, L1, SolverConfig(gap_tolerance=0.0)).iterations == 933


def test_every_stop_lands_on_a_check_iteration():
    every = solver.MONITOR_EVERY
    f = raster_disk(64, 64, 3.0 / 64, radius=1.0, supersample=4, binary=True)
    noisy = GridImage(f.values + np.random.default_rng(3).normal(
        scale=0.2, size=f.values.shape), f.spacing)
    runs = [("gap", f, SolverConfig(max_iterations=1503)),
            ("stalled", f, SolverConfig(max_iterations=1503, tau=1e-7, sigma=1e-7)),
            ("cap", noisy, SolverConfig(max_iterations=37))]
    for reason, image, cfg in runs:
        res = solve(image, 3.0, L1, cfg)
        assert res.stop_reason == reason
        assert (res.iterations % every == 0
                or res.iterations == cfg.max_iterations)
        assert len(res.energy_trace) == math.ceil(res.iterations / every)


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


def test_contrast_invariance_needs_a_positive_factor():
    f = GridImage(np.zeros((8, 8)), 0.5)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            check_contrast_invariance(f, 2.0, L1, c)


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
