"""Numerical verification of the dual optimality characterisation.

A pair (u0, v) certifies minimality of u0 for E(.; f, lam) when

    (i)   v lies in -W pointwise,
    (ii)  div v is bounded,
    (iii) TV_phi(u0) = -<u0, div v>,
    (a)   |div v| <= lam everywhere,
    (b)   div v = +lam on {u0 > f},
    (c)   div v = -lam on {u0 < f}.

All almost-everywhere statements become cellwise residuals with three
exclusion rules, each reported:

* a band |u0 - f| <= TIE_BAND keeps ties out of the {u0 >< f} sets;
* cells within a 2-cell margin of the discrete level-set boundaries of u0
  and f are dropped from (b)/(c) -- one-sided stencils carry O(1) error
  across jumps of u0;
* cells where the forward- and backward-stencil divergences of v disagree
  by more than one spacing are dropped from (a)-(c): a one-sided stencil
  straddling a kink line of a piecewise-smooth field can pair slopes from
  both sides and overshoot the essential supremum by O(1), independent of
  the spacing;
* a 2-cell frame at the window edge is dropped from (a)-(c): certificate
  fields need not decay, and the difference stencils treat the outside as
  zero, which manufactures an O(1/spacing) divergence sheet there (window
  truncation is not part of the continuum statement being checked).

The verdict therefore means "certified at resolution spacing"; the
convergence of the residuals as spacing -> 0 is the actual evidence.
Condition (ii) fails when the backward divergence of v is not finite in
some cell, as for a finite v whose differences overflow, and when the
violation of (i) is not (a non-finite v, or a dual gauge that overflows);
(a)-(c) then report inf with every cell excluded.  grid._div_bound_cells,
which the solver's stop guard calls too, picks the cells of (a); (a)
fails when it picks none, as a maximum over no cell would read 0.

check_certificate makes one pass over row blocks of at most
grid.BLOCK_CELLS cells (2^16: one block up to 256^2), with the frame placed
in grid rows, and reads u0, f and v only through rows(lo, hi): GridImage
and DualField hand out views, the fileio readers read the rows from their
files.  A block reads v with the one halo row its stencils read, and u0
and f with a halo of BOUNDARY_MARGIN + 1 = 3 rows: the margin plus the row
a difference reaches.  It adds its largest dual-gauge value to (i) and its
partial sums to TV and the pairing (grid._stencil_block: the sums of
grid.tv_phi and grid.dual_pairing, block for block), and while (i) and
(ii) hold it takes the two divergences of v and the cells of (a).  Only a
block with a cell where |u0 - f| > TIE_BAND, the cells (b) and (c) read,
builds their exclusion masks (jump cells of u0 and f, their dilation, the
kept cells).  Blocks merge by max and by counting, so every residual, the
excluded fraction and the verdict equal a whole-grid evaluation bit for
bit.  The inputs' grids are checked once, on entry (a file's when it is
opened).  The slabs read from files go into three buffers of a block and
two halos, and the gradient and then the divergences into a fourth,
allocated once per check and reused block after block: fresh arrays per
block page-fault on every block (about 9500 faults per 1536^2 check from
files, against 1300).  With the other temporaries (about 0.5 MB each at
2^16 cells) a check holds no full-grid array, so from files its memory
does not grow with the grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .gauge import Gauge
# divergence, dual_pairing, forward_divergence, tv_phi: unused here, kept
# for tracers that patch them by name
from .grid import (BOUNDARY_MARGIN, DIV_TOL_SPACINGS, FEASIBILITY_TOL,
                   DualField, GridImage, _Grid, _block_rows, _check_same_grid,
                   _div_adjoint_raw, _div_bound_cells, _div_forward_raw,
                   _row_blocks, _stencil_block, _stencil_totals, cell_centers,
                   divergence, dual_pairing, forward_divergence, tv_phi)
from .solver import SolveResult, SolverConfig, solve

__all__ = [
    "CertificateReport",
    "check_certificate",
    "build_circle_certificate",
    "certify_minimizer",
]

TIE_BAND = 1e-6      # |u0 - f| <= TIE_BAND counts as a tie


@dataclass
class CertificateReport:
    wulff_violation: float
    div_inf_norm: float
    div_bound_residual: float
    div_residual_above: float
    div_residual_below: float
    tv_pairing_gap: float
    tv_value: float
    tolerance: float
    band: float
    excluded_fraction: float
    conditions: dict = field(default_factory=dict)
    passed: bool = False
    strict_uniqueness_hint: bool = False
    note: str = ""

    def residuals(self) -> dict:
        return {
            "wulff_violation": self.wulff_violation,
            "div_bound_residual": self.div_bound_residual,
            "div_residual_above": self.div_residual_above,
            "div_residual_below": self.div_residual_below,
            "tv_pairing_gap": self.tv_pairing_gap,
        }

    def to_json(self) -> dict:
        return asdict(self)

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def _dilate(mask: np.ndarray, margin: int) -> np.ndarray:
    """Dilation by the (2 margin + 1)^2 square window: the window is
    separable, so dilate along the rows, then along the columns."""
    out = mask.copy()
    for d in range(1, margin + 1):
        out[d:] |= mask[:-d]
        out[:-d] |= mask[d:]
    rows = out.copy()
    for d in range(1, margin + 1):
        out[:, d:] |= rows[:, :-d]
        out[:, :-d] |= rows[:, d:]
    return out


def _jump_cells(values: np.ndarray) -> np.ndarray:
    """Cells adjacent to a jump of the image (either one-sided difference
    above 1e-9 in size)."""
    jump = np.zeros(values.shape, dtype=bool)
    dx = np.diff(values, axis=1)
    dx = np.abs(dx, out=dx) > 1e-9
    dy = np.diff(values, axis=0)
    dy = np.abs(dy, out=dy) > 1e-9
    jump[:, :-1] |= dx
    jump[:, 1:] |= dx
    jump[:-1, :] |= dy
    jump[1:, :] |= dy
    return jump


def _slab_reader(source, shape: tuple):
    """source.rows for a grid, which hands out views; for a file reader,
    rows read into the leading rows of one buffer of `shape`, reused from
    block to block."""
    if isinstance(source, _Grid):
        return source.rows
    buf = np.empty(shape)
    return lambda lo, hi: source.rows(lo, hi, out=buf[:hi - lo])


def check_certificate(u0, f, v, lam: float, g: Gauge,
                      tol: float | None = None) -> CertificateReport:
    """Evaluates conditions (i)-(iii), (a)-(c) cellwise and reports every
    residual with the tolerance it was compared against.

    u0 and f are GridImage objects or fileio.PgmReader, v a DualField or a
    fileio.FieldReader: the check reads each through rows(lo, hi) only.
    The default tolerance 3 * spacing matches the first-order accuracy of
    the divergence stencils.
    """
    _check_same_grid(u0, f)
    _check_same_grid(u0, v)
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    spacing = u0.spacing
    if tol is None:
        tol = DIV_TOL_SPACINGS * spacing
    if not 0 <= tol < math.inf:
        raise ValueError("tolerance must be finite and >= 0")

    height, width = u0.height, u0.width
    m = BOUNDARY_MARGIN
    dual_max = -math.inf
    sums = [0.0] * 4  # of TV and the pairing, see grid._stencil_block
    finite = True  # (i) and (ii) so far: while it holds, blocks are checked
    div_inf = res_above = res_below = 0.0
    ok_cells = 0
    # buffers of a block and two halos of m + 1 rows, reused block after
    # block: a file reader's slabs, and `work` for the gradient, then the
    # divergences
    n = min(_block_rows(width) + 2 * (m + 1), height)
    work = None
    v_rows = _slab_reader(v, (n, width, 2))
    u0_rows, f_rows = _slab_reader(u0, (n, width)), _slab_reader(f, (n, width))
    for lo, hi, s0, s1 in _row_blocks(height, width, m + 1):
        # the stencils read one row each side of the block, the masks m + 1
        t0, t1 = max(lo - 1, 0), min(hi + 1, height)
        block, rows = slice(lo - t0, hi - t0), slice(lo - s0, hi - s0)
        # every row of every file is read, whatever the verdict
        slab, u_slab, f_slab = v_rows(t0, t1), u0_rows(s0, s1), f_rows(s0, s1)
        # np.maximum, unlike max, keeps a NaN from any block
        dual_max = np.maximum(dual_max, np.max(g.dual(slab[block])))
        # `work` comes after the first block's dual-gauge temporaries are
        # freed: a one-block check then peaks as separate passes would
        if work is None:
            work = np.empty(2 * n * width)
        kernel_out = work[:2 * (t1 - t0) * width]
        # TV and the pairing run over every block, whatever the verdict
        _stencil_block(u_slab[t0 - s0:t1 - s0], block, spacing, g,
                       slab[block], sums, out=kernel_out.reshape(-1, width, 2))
        finite = finite and math.isfinite(dual_max)  # else (ii) fails outright
        if not finite:
            continue
        # overflow: an inf in div_b fails (ii), in div_b - div_f it excludes
        # the cell; agreeing one-sided stencils bound a kept cell's smearing
        div_b_out, div_f_out = kernel_out.reshape(2, -1, width)
        with np.errstate(over="ignore", invalid="ignore"):
            div_b = _div_adjoint_raw(slab, spacing, div_b_out)[block]
            div_f = _div_forward_raw(slab, spacing, div_f_out)[block]
            finite = math.isfinite(div_b.max()) and math.isfinite(div_b.min())
            if not finite:
                continue
            stencil_ok, block_max = _div_bound_cells(div_b, div_f, spacing,
                                                     lo, height)
        ok_cells += np.count_nonzero(stencil_ok)
        div_inf = max(div_inf, block_max)

        # u0 - f into div_f, scratch since _div_bound_cells
        d = np.subtract(u_slab[rows], f_slab[rows], out=div_f)
        above = d > TIE_BAND
        below = d < -TIE_BAND  # f - u0 > TIE_BAND: f - u0 is exactly -d
        if not (above.any() or below.any()):
            continue  # (b) and (c) read no cell of this block
        boundary = _dilate(_jump_cells(u_slab) | _jump_cells(f_slab), m)[rows]
        kept = ~boundary & stencil_ok
        res_above = float(np.max(np.abs(div_b[above & kept] - lam), initial=res_above))
        res_below = float(np.max(np.abs(div_b[below & kept] + lam), initial=res_below))
    wulff_violation = float(np.maximum(float(dual_max) - 1.0, 0.0))
    tv, pairing = _stencil_totals(sums, spacing)
    if not finite:  # (ii) fails: no residual is evaluated, no cell kept
        div_inf = res_above = res_below = math.inf
        ok_cells = 0
    div_bound_residual = max(0.0, div_inf - lam)
    evaluated = bool(ok_cells)  # else (a) would hold over no cell

    pairing_gap = tv - pairing
    pairing_tol = tol * max(1.0, tv)

    conditions = {
        "i_wulff_membership": wulff_violation <= FEASIBILITY_TOL,
        "ii_bounded_divergence": finite,
        "iii_tv_pairing": abs(pairing_gap) <= pairing_tol,
        "a_div_bound": evaluated and div_bound_residual <= tol,
        "b_div_equals_lambda_above": res_above <= tol,
        "c_div_equals_minus_lambda_below": res_below <= tol,
    }
    return CertificateReport(
        wulff_violation=wulff_violation,
        div_inf_norm=div_inf,
        div_bound_residual=div_bound_residual,
        div_residual_above=res_above,
        div_residual_below=res_below,
        tv_pairing_gap=pairing_gap,
        tv_value=tv,
        tolerance=tol,
        band=TIE_BAND,
        excluded_fraction=float(1.0 - ok_cells / (height * width)),
        conditions=conditions,
        passed=all(conditions.values()),
        # the strict divergence bound holds with margin, hence uniqueness
        strict_uniqueness_hint=bool(evaluated and div_inf < lam - tol),
        note=("cellwise check at resolution spacing; default tolerance "
              "3*spacing from the first-order divergence stencils; kink cells "
              "(one-sided stencils disagreeing by more than one spacing), a "
              "2-cell window frame and a 2-cell margin around level-set "
              "boundaries excluded; pairing gap compared to tol*max(1, TV)"),
    )


def build_circle_certificate(lam: float, width: int, height: int,
                             spacing: float) -> DualField:
    """Samples the explicit certificate field of the unit-disk example at
    the cell centres.

    The scalar profile is w(x1, x2) = clamp(x1 / s) where |x2| >= 1/sqrt(2)
    and clamp(sqrt(2) x1) elsewhere, with s = 1 / lam, and the field is
    v = (-w(x1, x2), -w(x2, x1)); the clamps keep it inside [-1, 1]^2, the
    minus-Wulff body of the 1-norm.
    """
    if not math.sqrt(2.0) <= lam < math.inf:
        raise ValueError("the construction needs finite lambda >= sqrt(2)")
    s = 1.0 / lam
    X, Y = cell_centers(width, height, spacing)

    def w(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        steep = np.clip(a / s, -1.0, 1.0)
        shallow = np.clip(math.sqrt(2.0) * a, -1.0, 1.0)
        return np.where(np.abs(b) >= 1.0 / math.sqrt(2.0), steep, shallow)

    v = np.stack([-w(X, Y), -w(Y, X)], axis=-1)
    return DualField(v, spacing)


def certify_minimizer(f: GridImage, lam: float, g: Gauge,
                      cfg: SolverConfig | None = None,
                      tol: float | None = None
                      ) -> tuple[SolveResult, CertificateReport]:
    """Solves, then feeds the returned minimiser u and the dual iterate p
    into check_certificate."""
    result = solve(f, lam, g, cfg)
    return result, check_certificate(result.u, f, result.p, lam, g, tol=tol)
