"""Discrete scalar and vector fields on uniform 2-D grids.

Conventions (used consistently by the solver, the certificate checker and
the rasterisers):

* cells are indexed [row, col] with physical centres at
  ((col + 0.5) * spacing - width * spacing / 2,
   (row + 0.5) * spacing - height * spacing / 2),
  i.e. the origin sits at the grid centre;
* forward_gradient uses forward differences with a one-sided zero at the
  right/top boundary; divergence is its exact negative adjoint (backward
  differences), so <Du, p> = -<u, div p> holds to machine precision;
* the raw kernels take the x-differences in one pass over the flattened
  plane (the row-wrap entries fall in a boundary column that is
  overwritten), and skip the division at unit spacing, which is exact;
  the bytes equal the 2-D slice formulas;
* point reflection of the grid swaps the forward and the backward stencil,
  so backward_gradient and forward_divergence are not written out: each
  runs the matching forward-stencil kernel (forward_gradient, divergence)
  on the reflected input, reads the result back through the reflection
  and negates it.  There is one stencil and its adjoint;
* the discrete anisotropic TV averages the gauge over the forward and the
  backward gradient stencils.  The two sums coincide for separable gauges
  (e.g. the 1-norm); the average is what makes the reflection identity
  TV(-u) = TV(u(-.)) exact for non-even gauges;
* GridImage and DualField values are row-major float arrays of at least
  2x2 cells from construction; inputs are validated there and by the
  public functions only, and block loops run the raw kernels on slabs;
* grid-wide sums and maxima (tv_phi, dual_pairing, max_dual_value) run
  over row blocks of at most BLOCK_CELLS cells, each with the halo rows
  its stencils need, so no temporary is larger than one block.  Maxima
  are exact; sums over more than one block add the blocks' partial sums
  (_stencil_block), which can differ from a whole-grid sum in the last
  bit.  The certificate check reads grids and files alike by rows(lo, hi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .gauge import Gauge

__all__ = [
    "GridImage", "DualField", "forward_gradient", "backward_gradient",
    "divergence", "forward_divergence", "tv_phi", "tv_phi_dual_gap",
    "dual_pairing", "level_set", "coarea_check", "energy_decompose", "reflect",
    "cell_centers", "rasterize", "raster_disk", "raster_convex_polygon",
]


@dataclass
class _Grid:
    """Values on a uniform grid of at least 2x2 cells, row-major float64."""

    values: np.ndarray
    spacing: float = 1.0

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi), a view: the interface of the fileio readers."""
        return self.values[lo:hi]


@dataclass
class GridImage(_Grid):
    """Scalar field on a uniform grid; values has shape (height, width)."""

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("GridImage values must be 2-D")
        _check_grid(self)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridImage values must be finite")

    def l1_norm(self) -> float:
        """Riemann sum of |u|."""
        return float(np.abs(self.values).sum() * self.spacing**2)


@dataclass
class DualField(_Grid):
    """Vector field collocated with the cells; values has shape
    (height, width, 2) with components (x, y)."""

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[-1] != 2:
            raise ValueError("DualField values must have shape (H, W, 2)")
        _check_grid(self)

    def max_dual_value(self, g: Gauge) -> float:
        """max over cells of phi_dual(p); <= 1 means pointwise in -W."""
        blocks = _row_blocks(self.height, self.width, 0)
        # np.maximum, unlike max, keeps a NaN from any block
        return float(reduce(np.maximum, (np.max(g.dual(self.values[lo:hi]))
                                         for lo, hi, _, _ in blocks)))


FEASIBILITY_TOL = 1e-9  # slack on phi_dual(p) <= 1 for membership in -W
BLOCK_CELLS = 1 << 16  # cells per row block; grids up to 256^2 are one block
BOUNDARY_MARGIN = 2    # cells: the certificate's window frame and jump margin
DIV_TOL_SPACINGS = 3.0  # the certificate's default tolerance, in spacings


def _check_grid(field) -> None:
    """At least 2x2 cells and a positive finite spacing: the rules of every
    grid and fileio reader."""
    if field.height < 2 or field.width < 2:
        raise ValueError("grid must be at least 2x2")
    if not 0 < field.spacing < math.inf:
        raise ValueError("spacing must be positive and finite")


def _check_same_grid(a, b):
    if (a.height, a.width, a.spacing) != (b.height, b.width, b.spacing):
        raise ValueError("grid shapes/spacings do not match")


def _block_rows(width: int) -> int:
    """Rows of a row block: at most BLOCK_CELLS cells, at least one row."""
    return max(1, BLOCK_CELLS // width)


def _row_blocks(height: int, width: int, halo: int):
    """Yields (lo, hi, s0, s1) for consecutive row blocks [lo, hi) of
    _block_rows(width) rows (the last one fewer), with the slab [s0, s1)
    that adds up to `halo` rows on each side within the grid."""
    rows = _block_rows(width)
    for lo in range(0, height, rows):
        hi = min(lo + rows, height)
        yield lo, hi, max(lo - halo, 0), min(hi + halo, height)


# ----------------------------------------------------------------------
# difference operators (raw kernels + validated wrappers)
# ----------------------------------------------------------------------

def _flat(a: np.ndarray) -> np.ndarray:
    """a (2-D) as a 1-D view in row-major order; ValueError when its
    strides allow none (Fortran order, say), so reshape never copies."""
    rows, cols = a.strides
    if rows != a.shape[1] * cols:
        raise ValueError("plane has no row-major view")
    return a.reshape(-1)


def _grad_forward_raw(v: np.ndarray, spacing: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.zeros(v.shape + (2,))
    vf, xf = _flat(v), _flat(out[..., 0])
    np.subtract(vf[1:], vf[:-1], out=xf[:-1])  # row wraps: last column
    out[:, -1, 0] = 0.0
    np.subtract(v[1:, :], v[:-1, :], out=out[:-1, :, 1])
    out[-1, :, 1] = 0.0
    if spacing != 1.0:
        out /= spacing
    return out


def _grad_backward_raw(v: np.ndarray, spacing: float) -> np.ndarray:
    """Backward differences, zero in the first column/row: the forward
    kernel on the reflected field, negated.  0 - x rather than -x keeps
    zero differences +0.0, as a direct backward difference gives them."""
    out = np.empty(v.shape + (2,))
    _grad_forward_raw(v[::-1, ::-1], spacing, out=out[::-1, ::-1])
    return np.subtract(0.0, out, out=out)


def _div_adjoint_raw(p: np.ndarray, spacing: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of
    _grad_forward_raw (the last component column/row is ignored because the
    matching gradient entry is identically zero)."""
    px = p[..., 0]
    py = p[..., 1]
    if out is None:
        out = np.empty(p.shape[:2])
    pf, of = _flat(px), _flat(out)
    np.subtract(pf[1:-1], pf[:-2], out=of[1:-1])  # end columns set next
    out[:, 0] = px[:, 0]
    out[:, -1] = -px[:, -2]
    out[:-1] += py[:-1]
    out[1:] -= py[:-1]
    if spacing != 1.0:
        out /= spacing
    return out


def _div_forward_raw(p: np.ndarray, spacing: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference divergence, the exact negative adjoint of
    _grad_backward_raw (ignores the first component column/row): the
    backward-difference kernel on the reflected field, negated."""
    if out is None:
        out = np.empty(p.shape[:2])
    _div_adjoint_raw(p[::-1, ::-1], spacing, out=out[::-1, ::-1])
    return np.subtract(0.0, out, out=out)


def _div_bound_cells(div_b: np.ndarray, div_f: np.ndarray, spacing: float,
                     lo: int, height: int) -> tuple[np.ndarray, float]:
    """The cells of a row block (first grid row lo, grid height `height`)
    where certificate condition (a) is evaluated, and max |div_b| over them
    (0.0 for none): the two one-sided divergences agree within one spacing,
    and the cell lies outside the BOUNDARY_MARGIN-cell window frame.  A
    non-finite divergence never agrees.  div_f is overwritten."""
    m = BOUNDARY_MARGIN
    width = div_b.shape[1]
    ok = np.abs(np.subtract(div_b, div_f, out=div_f), out=div_f) <= spacing
    ok[:max(m - lo, 0)] = False
    ok[max(height - m - lo, 0):] = False
    ok[:, :m] = False
    ok[:, width - m:] = False
    return ok, float(np.max(np.abs(div_b, out=div_f), where=ok, initial=0.0))


def forward_gradient(u: GridImage) -> DualField:
    """Forward differences / spacing, zero at the right/top boundary."""
    return DualField(_grad_forward_raw(u.values, u.spacing), u.spacing)


def backward_gradient(u: GridImage) -> DualField:
    """Backward differences / spacing, zero at the left/bottom boundary."""
    return DualField(_grad_backward_raw(u.values, u.spacing), u.spacing)


def divergence(p: DualField) -> GridImage:
    """Exact negative adjoint of forward_gradient:
    <forward_gradient(u), p> + <u, divergence(p)> = 0 for all u, p."""
    return GridImage(_div_adjoint_raw(p.values, p.spacing), p.spacing)


def forward_divergence(p: DualField) -> GridImage:
    """Exact negative adjoint of backward_gradient (forward differences of
    the components)."""
    return GridImage(_div_forward_raw(p.values, p.spacing), p.spacing)


# ----------------------------------------------------------------------
# anisotropic total variation
# ----------------------------------------------------------------------

def _stencil_block(slab: np.ndarray, rows: slice, spacing: float,
                   g: Gauge | None, p_block: np.ndarray | None,
                   sums: list, out: np.ndarray | None = None) -> None:
    """Adds the sums of g and of the pairing with p_block over the forward
    and the backward stencil of the block `rows` of `slab` (one halo row
    each side within the grid) to sums[0:2] and sums[2:4].  One gradient
    call, into `out`: b - a is exactly -(a - b), so shifted one cell, its
    buffer holds the backward differences."""
    d = _grad_forward_raw(slab, spacing, out=out)
    block, dx, dy = d[rows], _flat(d[..., 0]), _flat(d[..., 1])
    for k in (0, 1):
        if k:  # one cell back in x and in y, zero in the first column/row
            dx[1:], dy[d.shape[1]:] = dx[:-1], dy[:-d.shape[1]]
            d[:, 0, 0] = d[0, :, 1] = 0.0
        if g is not None:
            sums[k] += g(block).sum()
        if p_block is not None:
            sums[2 + k] += np.einsum("ijk,ijk->", block, p_block)


def _stencil_totals(sums: list, spacing: float) -> tuple[float, float]:
    """(tv_phi, dual_pairing) from the sums of _stencil_block."""
    return tuple(float(0.5 * (a + b) * spacing**2)
                 for a, b in (sums[:2], sums[2:]))


def _stencil_means(values: np.ndarray, spacing: float, g: Gauge | None = None,
                   p_values: np.ndarray | None = None) -> tuple[float, float]:
    """(tv_phi, dual_pairing) of the image `values` against g and the field
    `p_values`, 0.0 for an argument left out, summed by row blocks."""
    sums = [0.0] * 4
    for lo, hi, s0, s1 in _row_blocks(*values.shape, 1):
        _stencil_block(values[s0:s1], slice(lo - s0, hi - s0), spacing, g,
                       None if p_values is None else p_values[lo:hi], sums)
    return _stencil_totals(sums, spacing)


def tv_phi(u: GridImage, g: Gauge) -> float:
    """Discrete TV: spacing^2 times the mean of the gauge over the forward
    and backward stencils (equal for separable gauges), by row blocks."""
    return _stencil_means(u.values, u.spacing, g)[0]


def dual_pairing(u: GridImage, p: DualField) -> float:
    """Stencil-matched pairing spacing^2 * mean of <grad u, p> over the two
    stencils, summed by row blocks like tv_phi; bounded by tv_phi(u)
    whenever p is pointwise in -W."""
    _check_same_grid(u, p)
    return _stencil_means(u.values, u.spacing, p_values=p.values)[1]


def tv_phi_dual_gap(u: GridImage, p: DualField, g: Gauge) -> float:
    """tv_phi(u) minus the dual pairing; nonnegative (up to rounding) for
    feasible p, ~0 exactly when p is an optimal certificate field for u."""
    violation = p.max_dual_value(g) - 1.0
    if not violation <= FEASIBILITY_TOL:  # NaN is no feasible field
        raise ValueError(f"dual field violates the -W constraint by {violation:.3e}")
    _check_same_grid(u, p)
    tv, pairing = _stencil_means(u.values, u.spacing, g, p.values)
    return tv - pairing


# ----------------------------------------------------------------------
# level sets, coarea, energy decomposition
# ----------------------------------------------------------------------

def level_set(u: GridImage, t: float) -> GridImage:
    """The binary image {u > t} (strict inequality)."""
    return GridImage((u.values > t).astype(float), u.spacing)


def _level_weights(levels: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Quadrature weights: length of the Voronoi cell of each level inside
    [lo, hi].  Midpoint levels at unit spacing on integer data give unit
    weights, which is what makes the crystalline coarea checks exact."""
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise ValueError("level list must be nonempty")
    if np.any(np.diff(levels) <= 0):
        raise ValueError("levels must be strictly increasing")
    mids = 0.5 * (levels[:-1] + levels[1:])
    bounds = np.concatenate([[lo], np.clip(mids, lo, hi), [hi]])
    return np.maximum(np.diff(bounds), 0.0)


def coarea_check(u: GridImage, g: Gauge, levels) -> tuple[float, float]:
    """Returns (tv_phi(u), quadrature of tv_phi of the superlevel sets): the
    energy decomposition of u against itself at lambda = 0."""
    return energy_decompose(u, u, 0.0, g, levels)


def energy_decompose(u: GridImage, f: GridImage, lam: float, g: Gauge,
                     levels) -> tuple[float, float]:
    """Total energy of u against f versus the level-wise integral of binary
    energies (symmetric differences of superlevel sets)."""
    _check_same_grid(u, f)
    lo = float(min(u.values.min(), f.values.min()))
    hi = float(max(u.values.max(), f.values.max()))
    weights = _level_weights(levels, lo, hi)
    area = u.spacing**2
    total = tv_phi(u, g) + lam * float(np.abs(u.values - f.values).sum()) * area
    integrated = 0.0
    for t, w in zip(levels, weights):
        if w == 0.0:
            continue
        ut = (u.values > t).astype(float)
        ft = (f.values > t).astype(float)
        sym_diff = float(np.abs(ut - ft).sum()) * area
        integrated += w * (_stencil_means(ut, u.spacing, g)[0] + lam * sym_diff)
    return float(total), float(integrated)


def reflect(u: GridImage) -> GridImage:
    """u(-.) about the grid centre; involutive, maps cell (i, j) to
    (H-1-i, W-1-j)."""
    return GridImage(u.values[::-1, ::-1].copy(), u.spacing)


# ----------------------------------------------------------------------
# geometry helpers and rasterisation
# ----------------------------------------------------------------------

def cell_centers(width: int, height: int, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Physical coordinates (X, Y) of cell centres, origin at the grid
    centre; both arrays have shape (height, width)."""
    x = (np.arange(width) + 0.5) * spacing - width * spacing / 2.0
    y = (np.arange(height) + 0.5) * spacing - height * spacing / 2.0
    return np.meshgrid(x, y)


def rasterize(indicator, width: int, height: int, spacing: float,
              supersample: int = 4, binary: bool = False) -> GridImage:
    """Coverage raster of a set given by indicator(X, Y) -> bool array.

    Each cell is sampled on a supersample x supersample subgrid and the
    covered fraction stored; binary=True thresholds the coverage at 0.5,
    which recovers a clean set with sub-cell-centred boundary placement.
    """
    ss = int(supersample)
    # sample i of cell j sits at (2 ss j + 2 i + 1 - ss n) h / (2 ss): an
    # integer times one step, so mirrored samples are exact negatives and a
    # mirror-symmetric set gives a mirror-symmetric raster
    unit = spacing / (2 * ss)

    def samples(n, i):
        return (2 * ss * np.arange(n) + (2 * i + 1 - ss * n)) * unit

    acc = np.zeros((height, width))
    for i in range(ss):
        for j in range(ss):
            acc += indicator(*np.meshgrid(samples(width, j), samples(height, i)))
    values = acc / (ss * ss)
    if binary:
        values = (values > 0.5).astype(float)
    return GridImage(values, spacing)


def raster_disk(width: int, height: int, spacing: float, radius: float = 1.0,
                supersample: int = 4, binary: bool = False) -> GridImage:
    """The disk of the given radius about the origin, rastered."""
    r2 = radius * radius

    def inside(X, Y):
        return X ** 2 + Y ** 2 <= r2

    return rasterize(inside, width, height, spacing, supersample, binary)


def raster_convex_polygon(vertices, width: int, height: int, spacing: float,
                          supersample: int = 4, binary: bool = False) -> GridImage:
    # normals of edge length keep the test exact for integer vertices
    # (x + y <= 1 on the l1 diamond); unit normals round it differently
    verts = np.asarray(vertices, dtype=float)
    nxt = np.roll(verts, -1, axis=0)
    normals = np.stack([(nxt - verts)[:, 1], -(nxt - verts)[:, 0]], axis=-1)
    offsets = np.einsum("ij,ij->i", normals, verts)

    def inside(X, Y):
        mask = np.ones(X.shape, dtype=bool)
        for n, b in zip(normals, offsets):
            mask &= n[0] * X + n[1] * Y <= b
        return mask

    return rasterize(inside, width, height, spacing, supersample, binary)
