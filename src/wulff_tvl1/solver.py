"""Primal-dual solver for the discrete anisotropic TV-L1 energy.

The saddle-point form  min_u max_{p in -W cellwise} <grad u, p> + lam |u - f|_1
is iterated with the classic first-order scheme

    p    <- project_{-W}(p + sigma * grad u_bar)
    u    <- f + shrink(u + tau * div p - f, tau * lam)
    u_bar <- u + (u - u_prev)

whose dual iterate is exactly the certificate field of the optimality
characterisation, so the checker can consume it without any extra
construction.  The reported duality gap bounds the suboptimality of the
returned energy from above.

Two parts carry it out.  The step generator ``_run`` owns the buffers and
the step: it takes differences at unit spacing with the 1/h carried by
the steps (sigma/h, tau/h), bit for bit the iterates above, and no
iteration allocates beyond the temporaries of a projection or a gauge
evaluation (for the separable kinds, none).  Its workspace is one
zero-filled allocation with eight buffers: f, u, u_bar, the step,
scratch and divergence planes, and the dual iterate p with the buffer the
next p forms in, both planar (2, H, W) arrays.  Buffer k starts k * 512
bytes past a page boundary.  The placement is fixed because of 4K
aliasing: a load waits for an earlier store whose address matches it
modulo 4 KiB, so a numpy kernel that stores 16-64 bytes above one of its
loads modulo 4 KiB runs 2-2.5 times slower (np.add(a, b, out=o) on
65 536 doubles: 45-58 us, against 20-23 us otherwise, on a 2-core Xeon),
and wherever malloc put the buffers decided the speed of a 256^2 solve
(0.70-1.01 ms per iteration).
The dual arithmetic p + (sigma/h) grad u_bar runs on whole planes, the
projection writes into its input, and that buffer and p then swap names,
as u, u_bar and the step buffer rotate.

Every MONITOR_EVERY iterations and on the last one ``_run`` tests the
relative-change fallback on max|u - u_prev| and forms the forward-stencil
energy e_fwd = sum phi(grad+ u) h^2 + lam |u - f|_1 and a lower bound on
its minimum, the dual value at a copy of p scaled to |div p| <= lam
(divided by h as the public kernels divide).

For a separable gauge (the 1-norm and weighted-1 kinds) the check is
sharper, in buffers the step leaves free there; it forms phi(grad u) as
c0|y0| + c1|y1| in the gradient buffer, bit for bit g(y):

* the box dual: clipping u to [min f, max f] raises no term, so the
  saddle objective at p itself, minimised cellwise over u in that box (at
  min f, max f or f), is a lower bound with no scaling; the larger of the
  two bounds is kept;
* the 0.5 level set: for binary f some level set of u is as good as u
  (coarea); where the 0.5 one's energy, counted from its jumps and its
  cells off f, is below e_fwd, or u is binary itself, the check reports
  that image and energy, the image canonical_minimiser returns;
* the guard: the sharper gap stops the run only if the plain one (scaled
  dual, unrounded e_fwd) meets the tolerance too, or p meets certificate
  condition (a) as check_certificate evaluates it (grid._div_bound_cells,
  tolerance 3 h).  Below a tolerance of 1 the plain gap meeting it implies
  the sharper one does, so no run stops later than on the plain gap, and
  an earlier stop returns a p that meets (a).

Other gauge kinds keep the plain gap: clipping can raise an asymmetric
gauge (phi(-1, 1) < phi(0, 1) for a = (0.5, 0)).

``solve`` is the stop policy over those checks.  It stops at the first
check whose gap met the tolerance (``gap``, returning that pair) or
the fallback fired (``stalled``), else at the cap (``cap``); a stalled or
capped run returns the checked pair of lowest energy, and among pairs of
equal energy the one of highest dual value.  ``converged`` is
``stop_reason == "gap"``.  ``energy_trace`` holds the lowest checked
energy so far at each check (e_fwd, or the level set's); its last entry
is ``energy_forward``, and final_gap = max(energy_forward - lower_bound,
0).  Reports also quote the two-stencil ``energy`` below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gauge import Gauge
# _grad_backward_raw, divergence, forward_gradient: unused here, kept for
# tracers that patch them by name
from .grid import (DIV_TOL_SPACINGS, DualField, GridImage, _check_same_grid,
                   _div_adjoint_raw, _div_bound_cells, _div_forward_raw,
                   _grad_backward_raw, _grad_forward_raw, divergence,
                   forward_gradient, level_set, tv_phi)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "ContrastInvarianceReport",
    "energy",
    "solve",
    "threshold_binary",
    "canonical_minimiser",
    "check_contrast_invariance",
]

CHANGE_TOLERANCE = 1e-9  # fallback stop: relative change of u
BURN_IN = 50             # iterations before the fallback may stop the run
MONITOR_EVERY = 10       # iterations between convergence checks
PAGE = 4096              # bytes: the period of 4K aliasing (module docstring)


@dataclass
class SolverConfig:
    """Step sizes default to tau = sigma = spacing / sqrt(8), which meets
    tau * sigma * L^2 <= 1 for the discrete gradient bound L^2 <= 8 / spacing^2."""

    max_iterations: int = 20000
    tau: float | None = None
    sigma: float | None = None
    gap_tolerance: float = 1e-6       # on the normalized primal-dual gap

    def __post_init__(self):
        for name in self.__dataclass_fields__:  # JSON true would read as 1
            if isinstance(getattr(self, name), bool):
                raise ValueError(f'solver config "{name}" takes a number, got a bool')
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.gap_tolerance >= 0:
            raise ValueError("gap_tolerance must be >= 0")

    def steps_for(self, spacing: float) -> tuple[float, float]:
        tau = self.tau if self.tau is not None else spacing / math.sqrt(8.0)
        sigma = self.sigma if self.sigma is not None else spacing / math.sqrt(8.0)
        if not (0 < tau < math.inf and 0 < sigma < math.inf):
            raise ValueError("step sizes must be positive and finite")
        lsq = 8.0 / spacing**2
        if tau * sigma * lsq > 1.0 + 1e-12:
            raise ValueError(
                f"tau*sigma*L^2 = {tau * sigma * lsq:.6f} exceeds 1")
        return tau, sigma


@dataclass
class SolveResult:
    u: GridImage
    p: DualField
    energy_trace: np.ndarray = field(repr=False)
    lower_bound: float = math.nan          # the dual value of the returned p
    iterations: int = 0
    stop_reason: str = "cap"               # "gap", "stalled" or "cap"

    @property
    def converged(self) -> bool:  # the gap met the tolerance
        return self.stop_reason == "gap"

    @property
    def energy_forward(self) -> float:  # the energy final_gap bounds
        return float(self.energy_trace[-1])

    @property
    def final_gap(self) -> float:  # raw primal-dual gap
        return max(self.energy_forward - self.lower_bound, 0.0)

    @property
    def final_gap_normalized(self) -> float:
        return _normalized_gap(self.energy_forward, self.lower_bound)


def energy(u: GridImage, f: GridImage, lam: float, g: Gauge) -> float:
    """E(u) = TV_phi(u) + lam * |u - f|_L1 (Riemann sums)."""
    _check_same_grid(u, f)
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    fidelity = float(np.abs(u.values - f.values).sum()) * u.spacing**2
    return tv_phi(u, g) + lam * fidelity


def _normalized_gap(e: float, d: float) -> float:
    """max(e - d, 0) / (1 + |e|): the gap of energy e over dual value d."""
    return max(e - d, 0.0) / (1.0 + abs(e))


def _abs_max(a: np.ndarray) -> float:
    """max |a|, without an |a| temporary."""
    return max(float(a.max()), -float(a.min()))


def _is_binary(values: np.ndarray) -> bool:
    return bool(np.all((values == 0.0) | (values == 1.0)))


def _workspace(shapes) -> list[np.ndarray]:
    """Zero-filled float arrays of the given shapes, carved from one
    allocation so that array k of m starts k * PAGE / m bytes past a page
    boundary."""
    sizes = [math.prod(shape) * 8 for shape in shapes]
    stagger = PAGE // len(shapes)
    raw = np.zeros((sum(sizes) + len(shapes) * PAGE) // 8)
    base = raw.__array_interface__["data"][0]
    arrays, start = [], 0
    for k, (shape, size) in enumerate(zip(shapes, sizes)):
        start += (k * stagger - base - start) % PAGE
        arrays.append(raw[start // 8:(start + size) // 8].reshape(shape))
        start += size
    return arrays


def _run(f: GridImage, lam: float, g: Gauge, tau: float, sigma: float,
         max_iterations: int, gap_tolerance: float):
    """Steps from (u, p) = (f, 0); yields (iterations, u, p, energy,
    dual_value, gap_met, stalled) on each check, u and p valid until the
    next step."""
    spacing = f.spacing
    h2 = spacing**2
    plane = (f.height, f.width)
    fv, u, u_bar, step, scratch, div_buf, *duals = _workspace(
        [plane] * 6 + [(2,) + plane] * 2)
    for buf in (fv, u, u_bar):
        buf[...] = f.values
    # (H, W, 2) views of the planar dual iterate and of the buffer the next
    # one forms in; the two swap by name
    p, free = (d.transpose(1, 2, 0) for d in duals)
    box = g.separable
    if box:
        f_lo, f_hi = float(fv.min()), float(fv.max())
        rounding = _is_binary(fv)
        if rounding:  # the 0.5 level set and the comparisons
            level, flags = np.empty(plane, bool), np.empty(plane, bool)
        c0, c1 = (float(c) for c in g(np.eye(2)))  # phi(y) = c0|y0| + c1|y1|

    for k in range(max_iterations):
        iterations = k + 1

        _grad_forward_raw(u_bar, 1.0, out=free)
        planes = free.transpose(2, 0, 1)
        planes *= sigma / spacing
        planes += p.transpose(2, 0, 1)
        p, free = g.project_minus_wulff(free, out=free), p

        # u <- f + shrink(u + tau * div p - f, tau * lam) forms in the step
        # buffer and u_bar = (u - u_prev) + u in the old u's; the three
        # buffers then rotate by name
        _div_adjoint_raw(p, 1.0, out=div_buf)
        np.multiply(div_buf, tau / spacing, out=step)
        step += u
        step -= fv
        step -= np.clip(step, -tau * lam, tau * lam, out=scratch)
        step += fv
        np.subtract(step, u, out=u)
        check = (iterations % MONITOR_EVERY == 0
                 or iterations == max_iterations)
        # the fallback, with u - u_prev in u and the new u in step:
        # max|u - u_prev| <= CHANGE_TOLERANCE * max|u| after the burn-in
        stalled = (check and k > BURN_IN and _abs_max(u)
                   <= CHANGE_TOLERANCE * (_abs_max(step) + 1e-30))
        u += step
        u, u_bar, step = step, u, u_bar
        if not check:
            continue

        np.subtract(u, fv, out=scratch)
        fid = lam * float(np.abs(scratch, out=scratch).sum()) * h2
        grad = _grad_forward_raw(u, spacing, out=free)
        planes = free.transpose(2, 0, 1)
        if box:  # c0|y0| + c1|y1| in place, the bits of g(grad) for w > 0
            y0, y1 = np.abs(planes, out=planes)
            y0 *= c0
            y1 *= c1
            grad_fw = float(np.add(y0, y1, out=y0).sum())
        else:
            grad_fw = float(g(grad).sum())
        e_fwd = grad_fw * h2 + fid

        # dual value of the forward-stencil saddle objective at a scaled
        # (hence feasible: |div| <= lam) copy of p -- a true lower bound
        div_p = np.divide(div_buf, spacing, out=div_buf)  # the kernel's bits
        dmax = _abs_max(div_p)
        scale = min(1.0, lam / dmax) if dmax > 0 else 1.0
        scaled_dual = -float(np.multiply(fv, div_p, out=scratch).sum()) * scale * h2
        energy_value, dual_value, checked_u = e_fwd, scaled_dual, u
        if box:
            # the box dual: per cell -f c - (max f) max(x, 0) - (min f)
            # min(x, 0) with c = clip(div p, -lam, lam) and x = div p - c
            clipped = np.clip(div_p, -lam, lam, out=planes[0])
            fc = float(np.multiply(fv, clipped, out=scratch).sum())
            x = np.subtract(div_p, clipped, out=clipped)
            up = float(np.maximum(x, 0.0, out=scratch).sum())
            down = float(np.minimum(x, 0.0, out=x).sum()) if f_lo else 0.0
            dual_value = max(dual_value, -(fc + f_hi * up + f_lo * down) * h2)
            if rounding:
                # binary f: the 0.5 level set where its energy, counted, is
                # lower, or where u is binary itself
                np.greater(u, 0.5, out=level)
                e_level = _binary_energy(level, fv, lam, c0, c1, spacing, flags)
                if (e_level < e_fwd
                        or not np.not_equal(level, u, out=flags).any()):
                    energy_value, checked_u = e_level, level
        # the guard: the plain gap meets the tolerance too, or p meets
        # certificate condition (a); without a sharper value the two gaps
        # are one
        gap_met = (_normalized_gap(energy_value, dual_value) <= gap_tolerance
                   and (_normalized_gap(e_fwd, scaled_dual) <= gap_tolerance
                        or _meets_div_bound(div_p, p, lam, spacing, scratch)))
        yield iterations, checked_u, p, energy_value, dual_value, gap_met, stalled


def _binary_energy(b: np.ndarray, fv: np.ndarray, lam: float, c0: float,
                   c1: float, spacing: float, flags: np.ndarray) -> float:
    """Forward-stencil energy of a 0/1 image b for phi(y) = c0|y0| + c1|y1|,
    from counts of unequal neighbours and of cells off f; the comparisons
    go to flags, a bool array of b's shape."""
    jumps = (c0 * np.count_nonzero(np.not_equal(b[:, 1:], b[:, :-1], out=flags[:, 1:]))
             + c1 * np.count_nonzero(np.not_equal(b[1:], b[:-1], out=flags[1:])))
    return (jumps * spacing
            + lam * np.count_nonzero(np.not_equal(b, fv, out=flags)) * spacing**2)


def _meets_div_bound(div_p: np.ndarray, p: np.ndarray, lam: float,
                     spacing: float, buf: np.ndarray) -> bool:
    """Condition (a) of check_certificate at its default tolerance 3 h, for
    p with backward divergence div_p, over at least one cell; buf receives
    the forward one."""
    ok, div_inf = _div_bound_cells(div_p, _div_forward_raw(p, spacing, out=buf),
                                   spacing, 0, p.shape[0])
    return ok.any() and max(0.0, div_inf - lam) <= DIV_TOL_SPACINGS * spacing


def solve(f: GridImage, lam: float, g: Gauge,
          cfg: SolverConfig | None = None) -> SolveResult:
    """Minimises E(.; f, lam); returns the minimiser together with the dual
    field that witnesses it."""
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    cfg = cfg or SolverConfig()
    tau, sigma = cfg.steps_for(f.spacing)

    best_energy = math.inf
    # the result's arrays, allocated before the loop's workspace, so that
    # nothing is allocated after it is freed
    best_u = f.values.copy()
    best_p = np.zeros((f.height, f.width, 2))
    best_dual = math.nan
    trace = []
    run = _run(f, lam, g, tau, sigma, cfg.max_iterations, cfg.gap_tolerance)
    for iterations, u, p, e, dual_value, gap_met, stalled in run:
        # the dual value is kept with the returned pair so the gap bounds
        # *its* energy; that pair is the lowest-energy one (of those, the
        # one with the highest dual value), or on a gap stop the one that
        # met the tolerance
        if (gap_met or e < best_energy
                or (e == best_energy and dual_value > best_dual)):
            best_energy = e
            best_u[...] = u
            best_p[...] = p
            best_dual = dual_value
        trace.append(best_energy)
        if gap_met or stalled or iterations == cfg.max_iterations:
            break
    del u, p  # views of the workspace, which closing the run frees
    run.close()
    return SolveResult(
        u=GridImage(best_u, f.spacing),
        p=DualField(best_p, f.spacing),
        energy_trace=np.array(trace),
        lower_bound=best_dual,
        iterations=iterations,
        stop_reason="gap" if gap_met else "stalled" if stalled else "cap",
    )


def threshold_binary(result: SolveResult) -> GridImage:
    """Binary minimiser {u > 0.5}; the canonical output when f was binary."""
    return level_set(result.u, 0.5)


def canonical_minimiser(result: SolveResult, f: GridImage) -> GridImage:
    """The minimiser to write and certify: threshold_binary(result) when f
    is binary, else result.u itself."""
    return threshold_binary(result) if _is_binary(f.values) else result.u


@dataclass
class ContrastInvarianceReport:
    c: float
    lam: float
    symdiff_fraction: float
    energy_scale_error: float
    gap_budget: float
    base: SolveResult = field(repr=False)
    scaled: SolveResult = field(repr=False)


def check_contrast_invariance(f: GridImage, lam: float, g: Gauge, c: float,
                              cfg: SolverConfig | None = None) -> ContrastInvarianceReport:
    """Solves for f and c*f and compares their level sets at the middle of
    f's range, t = (min f + max f) / 2, and c t, and the scaling identity
    E(c u; c f) = c E(u; f)."""
    if c <= 0:
        raise ValueError("c must be positive")
    base = solve(f, lam, g, cfg)
    fc = GridImage(c * f.values, f.spacing)
    scaled = solve(fc, lam, g, cfg)

    span = float(f.values.max() - f.values.min())
    t = float(f.values.min()) + 0.5 * span
    set_base = level_set(base.u, t).values
    set_scaled = level_set(scaled.u, c * t).values
    sym = float(np.abs(set_base - set_scaled).sum())
    denom = max(float(set_base.sum()), 1.0)

    e_base = energy(base.u, f, lam, g)
    e_scaled = energy(scaled.u, fc, lam, g)
    return ContrastInvarianceReport(
        c=c,
        lam=lam,
        symdiff_fraction=sym / denom,
        energy_scale_error=abs(e_scaled - c * e_base),
        gap_budget=scaled.final_gap + c * base.final_gap,
        base=base,
        scaled=scaled,
    )
