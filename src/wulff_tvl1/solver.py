"""Primal-dual solver for the discrete anisotropic TV-L1 energy.

The saddle-point form  min_u max_{p in -W cellwise} <grad u, p> + lam |u - f|_1
is iterated with the classic first-order scheme

    p    <- project_{-W}(p + sigma * grad u_bar)
    u    <- f + shrink(u + tau * div p - f, tau * lam)
    u_bar <- u + (u - u_prev)

whose dual iterate is exactly the certificate field of the optimality
characterisation, so the checker can consume it without any extra
construction.  The reported duality gap uses the scaled-feasible dual
point, hence it is a true upper bound on the suboptimality of the
returned energy.

Two parts carry it out.  The step generator ``_run`` owns the buffers and
the step: it takes differences at unit spacing with the 1/h carried by
the steps (sigma/h, tau/h), forms each new u and u_bar in one of its
operands and rotates the three (H, W) buffers by name, bit for bit the
iterates above.  Every MONITOR_EVERY iterations and on the last one it
tests the relative-change fallback on max|u - u_prev| and yields the
forward-stencil energy e_fwd = sum phi(grad+ u) h^2 + lam |u - f|_1 (the
primal, which the gap bounds) and the dual value, divided by h as the
public kernels divide.

``solve`` is the stop policy over those checks.  It stops at the first
check where the normalised gap meets the tolerance (``gap``, returning
that pair) or the fallback fired (``stalled``), else at the cap (``cap``);
a stalled or capped run returns the checked pair of lowest e_fwd.
``converged`` is ``stop_reason == "gap"``.  ``energy_trace`` holds the
lowest e_fwd so far at each check; reports quote the two-stencil
``energy`` below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gauge import Gauge
# _grad_backward_raw, divergence, forward_gradient: unused here, kept for
# tracers that patch them by name
from .grid import (DualField, GridImage, _check_same_grid, _check_stencil_grid,
                   _div_adjoint_raw, _grad_backward_raw, _grad_forward_raw,
                   divergence, forward_gradient, level_set, tv_phi)

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


@dataclass
class SolverConfig:
    """Step sizes default to tau = sigma = spacing / sqrt(8), which meets
    tau * sigma * L^2 <= 1 for the discrete gradient bound L^2 <= 8 / spacing^2."""

    max_iterations: int = 20000
    tau: float | None = None
    sigma: float | None = None
    gap_tolerance: float = 1e-6       # on the normalized primal-dual gap

    def __post_init__(self):
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
    final_gap: float = math.nan            # raw primal-dual gap
    final_gap_normalized: float = math.nan
    iterations: int = 0
    stop_reason: str = "cap"               # "gap", "stalled" or "cap"

    @property
    def converged(self) -> bool:  # the gap met the tolerance
        return self.stop_reason == "gap"


def energy(u: GridImage, f: GridImage, lam: float, g: Gauge) -> float:
    """E(u) = TV_phi(u) + lam * |u - f|_L1 (Riemann sums)."""
    _check_same_grid(u, f)
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    fidelity = float(np.abs(u.values - f.values).sum()) * u.spacing**2
    return tv_phi(u, g) + lam * fidelity


def _abs_max(a: np.ndarray) -> float:
    """max |a|, without an |a| temporary."""
    return max(float(a.max()), -float(a.min()))


def _run(f: GridImage, lam: float, g: Gauge, tau: float, sigma: float,
         max_iterations: int):
    """Steps from (u, p) = (f, 0); yields (iterations, u, p, e_fwd,
    dual_value, stalled) on each check, u and p valid until the next step."""
    spacing = f.spacing
    h2 = spacing**2
    fv = f.values
    u = fv.copy()
    u_bar = fv.copy()
    # (H, W, 2) views of two contiguous component planes
    planes = (2, f.height, f.width)
    p = np.zeros(planes).transpose(1, 2, 0)
    grad_buf = np.zeros(planes).transpose(1, 2, 0)
    div_buf = np.empty_like(fv)
    step = np.empty_like(fv)
    scratch = np.empty_like(fv)

    for k in range(max_iterations):
        iterations = k + 1

        _grad_forward_raw(u_bar, 1.0, out=grad_buf)
        grad_buf *= sigma / spacing
        grad_buf += p
        p = g.project_minus_wulff(grad_buf)

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
        grad_fw = float(g(_grad_forward_raw(u, spacing, out=grad_buf)).sum())
        e_fwd = grad_fw * h2 + fid

        # dual value of the forward-stencil saddle objective at a scaled
        # (hence feasible: |div| <= lam) copy of p -- a true lower bound
        div_p = np.divide(div_buf, spacing, out=div_buf)  # the kernel's bits
        dmax = _abs_max(div_p)
        scale = min(1.0, lam / dmax) if dmax > 0 else 1.0
        dual_value = -float(np.multiply(fv, div_p, out=scratch).sum()) * scale * h2
        yield iterations, u, p, e_fwd, dual_value, stalled


def solve(f: GridImage, lam: float, g: Gauge,
          cfg: SolverConfig | None = None) -> SolveResult:
    """Minimises E(.; f, lam); returns the minimiser together with the dual
    field that witnesses it."""
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    _check_stencil_grid(f)
    cfg = cfg or SolverConfig()
    tau, sigma = cfg.steps_for(f.spacing)

    best_energy = math.inf
    best_u = f.values.copy()
    best_p = np.zeros((2, f.height, f.width)).transpose(1, 2, 0)
    best_gap = math.nan
    trace = []
    for iterations, u, p, e_fwd, dual_value, stalled in _run(
            f, lam, g, tau, sigma, cfg.max_iterations):
        gap = e_fwd - dual_value
        gap_met = gap / (1.0 + abs(e_fwd)) <= cfg.gap_tolerance
        # the gap is kept with the returned pair so it bounds *its* energy;
        # that pair is the lowest-e_fwd one, or on a gap stop the one that met it
        if gap_met or e_fwd < best_energy:
            best_energy = e_fwd
            best_u[...] = u
            best_p[...] = p
            best_gap = gap
        trace.append(best_energy)
        del p  # so the next projection can reuse this p's memory
        if not (gap_met or stalled or iterations == cfg.max_iterations):
            continue
        # built while the loop's buffers are alive: built after, it left the
        # heap top free to be trimmed, and later solves re-faulted its pages
        gap = max(best_gap, 0.0)
        return SolveResult(
            u=GridImage(best_u, f.spacing),
            p=DualField(np.ascontiguousarray(best_p), f.spacing),
            energy_trace=np.array(trace),
            final_gap=gap,
            final_gap_normalized=gap / (1.0 + abs(best_energy)),
            iterations=iterations,
            stop_reason="gap" if gap_met else "stalled" if stalled else "cap",
        )


def threshold_binary(result: SolveResult, t: float = 0.5) -> GridImage:
    """Binary minimiser {u > t}; the canonical output when f was binary."""
    return level_set(result.u, t).image


def canonical_minimiser(result: SolveResult, f: GridImage) -> GridImage:
    """The minimiser to write and certify: threshold_binary(result) when f
    is binary, else result.u itself."""
    binary = np.all((f.values == 0.0) | (f.values == 1.0))
    return threshold_binary(result) if binary else result.u


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
                              cfg: SolverConfig | None = None,
                              quantile: float = 0.5) -> ContrastInvarianceReport:
    """Solves for f and c*f and compares matched-quantile level sets and the
    scaling identity E(c u; c f) = c E(u; f)."""
    if c <= 0:
        raise ValueError("c must be positive")
    base = solve(f, lam, g, cfg)
    fc = GridImage(c * f.values, f.spacing)
    scaled = solve(fc, lam, g, cfg)

    span = float(f.values.max() - f.values.min())
    t = float(f.values.min()) + quantile * span
    set_base = level_set(base.u, t).image.values
    set_scaled = level_set(scaled.u, c * t).image.values
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
