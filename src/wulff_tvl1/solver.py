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

The convergence monitor runs every iteration and tracks one objective:
the forward-stencil energy  sum phi(grad+ u) h^2 + lam |u - f|_1,  the
primal of the saddle-point form above and the quantity the gap bounds.
It selects the returned pair, fills ``energy_trace`` and normalises
``final_gap``; the two-stencil ``energy`` below is what reports quote.
Every run reports why it stopped: ``gap`` (the normalised gap met the
tolerance; the run returns the pair that met it), ``stalled`` (the
relative-change fallback fired first) or ``cap`` (the iteration cap).
Only ``gap`` counts as converged; a stalled or capped run returns the
pair of lowest forward-stencil energy seen.  The energy trace records
that lowest energy so far and ends at the energy of the returned pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gauge import Gauge
# _grad_backward_raw, divergence, forward_gradient: unused here, kept for
# tracers that patch them by name
from .grid import (DualField, GridImage, _div_adjoint_raw, _grad_backward_raw,
                   _grad_forward_raw, divergence, forward_gradient, level_set,
                   tv_phi)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "ContrastInvarianceReport",
    "energy",
    "solve",
    "threshold_binary",
    "check_contrast_invariance",
]

CHANGE_TOLERANCE = 1e-9  # fallback stop: relative change of u
BURN_IN = 50             # iterations before the fallback may stop the run


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
        if tau <= 0 or sigma <= 0:
            raise ValueError("step sizes must be positive")
        lsq = 8.0 / spacing**2
        if tau * sigma * lsq > 1.0 + 1e-12:
            raise ValueError(
                f"tau*sigma*L^2 = {tau * sigma * lsq:.6f} exceeds 1")
        return tau, sigma

    @classmethod
    def from_json(cls, spec: dict) -> "SolverConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown solver config keys: {sorted(unknown)}")
        return cls(**spec)


@dataclass
class SolveResult:
    u: GridImage
    p: DualField
    energy_trace: np.ndarray = field(repr=False)
    final_gap: float = math.nan            # raw primal-dual gap
    final_gap_normalized: float = math.nan
    iterations: int = 0
    converged: bool = False                # the gap met the tolerance
    stop_reason: str = "cap"               # "gap", "stalled" or "cap"


def energy(u: GridImage, f: GridImage, lam: float, g: Gauge) -> float:
    """E(u) = TV_phi(u) + lam * |u - f|_L1 (Riemann sums)."""
    if u.values.shape != f.values.shape or u.spacing != f.spacing:
        raise ValueError("u and f must live on the same grid")
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    fidelity = float(np.abs(u.values - f.values).sum()) * u.spacing**2
    return tv_phi(u, g) + lam * fidelity


def _abs_max(a: np.ndarray) -> float:
    """max |a|, without an |a| temporary."""
    return max(float(a.max()), -float(a.min()))


def solve(f: GridImage, lam: float, g: Gauge,
          cfg: SolverConfig | None = None) -> SolveResult:
    """Minimises E(.; f, lam); returns the minimiser together with the dual
    field that witnesses it."""
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    if f.height < 2 or f.width < 2:
        raise ValueError("grid must be at least 2x2")
    cfg = cfg or SolverConfig()
    tau, sigma = cfg.steps_for(f.spacing)
    h2 = f.spacing**2

    spacing = f.spacing
    fv = f.values
    u = fv.copy()
    u_prev = np.empty_like(fv)
    u_bar = fv.copy()
    p = np.zeros((f.height, f.width, 2))
    grad_buf = np.zeros_like(p)
    div_buf = np.empty_like(fv)
    step = np.empty_like(fv)
    scratch = np.empty_like(fv)

    best_energy = math.inf
    best_u = u.copy()
    best_p = p.copy()
    best_gap = math.nan
    trace = np.empty(cfg.max_iterations)
    stop_reason = "cap"
    iterations = 0

    for k in range(cfg.max_iterations):
        iterations = k + 1

        _grad_forward_raw(u_bar, spacing, out=grad_buf)
        grad_buf *= sigma
        grad_buf += p
        p = g.project_minus_wulff(grad_buf)

        # u <- f + shrink(u + tau * div p - f, tau * lam), in the buffers
        div_p = _div_adjoint_raw(p, spacing, out=div_buf)
        np.multiply(div_p, tau, out=step)
        step += u
        step -= fv
        np.abs(step, out=scratch)
        scratch -= tau * lam
        np.maximum(scratch, 0.0, out=scratch)
        np.sign(step, out=step)
        step *= scratch
        u, u_prev = u_prev, u
        np.add(fv, step, out=u)
        np.subtract(u, u_prev, out=u_bar)
        change = _abs_max(u_bar)
        u_bar += u

        np.subtract(u, fv, out=scratch)
        fid = lam * float(np.abs(scratch, out=scratch).sum()) * h2
        grad_fw = float(g(_grad_forward_raw(u, spacing, out=grad_buf)).sum())
        e_fwd = grad_fw * h2 + fid

        # dual value of the forward-stencil saddle objective at a scaled
        # (hence feasible: |div| <= lam) copy of p -- a true lower bound
        dmax = _abs_max(div_p)
        scale = min(1.0, lam / dmax) if dmax > 0 else 1.0
        dual_value = -float(np.multiply(fv, div_p, out=scratch).sum()) * scale * h2
        gap = e_fwd - dual_value
        gap_met = gap / (1.0 + abs(e_fwd)) <= cfg.gap_tolerance

        # the gap is kept with the returned pair so it bounds *its* energy;
        # that pair is the lowest-e_fwd one, or on a gap stop the one that met it
        if gap_met or e_fwd < best_energy:
            best_energy = e_fwd
            best_u = u.copy()
            best_p = p.copy()
            best_gap = gap
        trace[k] = best_energy

        if gap_met:
            stop_reason = "gap"
            break
        if k > BURN_IN and change <= CHANGE_TOLERANCE * (_abs_max(u) + 1e-30):
            stop_reason = "stalled"
            break

    gap = max(best_gap, 0.0)
    return SolveResult(
        u=GridImage(best_u, f.spacing),
        p=DualField(best_p, f.spacing),
        energy_trace=trace[:iterations].copy(),
        final_gap=gap,
        final_gap_normalized=gap / (1.0 + abs(best_energy)),
        iterations=iterations,
        converged=stop_reason == "gap",
        stop_reason=stop_reason,
    )


def threshold_binary(result: SolveResult, t: float = 0.5) -> GridImage:
    """Binary minimiser {u > t}; the canonical output when f was binary."""
    return level_set(result.u, t).image


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
