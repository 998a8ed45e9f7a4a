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
* the discrete anisotropic TV averages the gauge over the forward and the
  backward gradient stencils.  The two sums coincide for separable gauges
  (e.g. the 1-norm); the average is what makes the reflection identity
  TV(-u) = TV(u(-.)) exact for non-even gauges, because point reflection
  of the grid swaps the two stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauge import Gauge

__all__ = [
    "GridImage",
    "DualField",
    "LevelSet",
    "forward_gradient",
    "backward_gradient",
    "divergence",
    "forward_divergence",
    "tv_phi",
    "tv_phi_dual_gap",
    "dual_pairing",
    "level_set",
    "coarea_check",
    "energy_decompose",
    "reflect",
    "cell_centers",
    "rasterize",
    "raster_disk",
    "raster_convex_polygon",
]


@dataclass
class GridImage:
    """Scalar field on a uniform grid; values has shape (height, width)."""

    values: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("GridImage values must be 2-D")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridImage values must be finite")
        if not 0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "GridImage":
        return GridImage(self.values.copy(), self.spacing)

    def l1_norm(self) -> float:
        """Riemann sum of |u|."""
        return float(np.abs(self.values).sum() * self.spacing**2)


@dataclass
class DualField:
    """Vector field collocated with the cells; values has shape
    (height, width, 2) with components (x, y)."""

    values: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[-1] != 2:
            raise ValueError("DualField values must have shape (H, W, 2)")
        if not 0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros_like(cls, u: GridImage) -> "DualField":
        return cls(np.zeros((u.height, u.width, 2)), u.spacing)

    def max_dual_value(self, g: Gauge) -> float:
        """max over cells of phi_dual(p); <= 1 means pointwise in -W."""
        return float(np.max(g.dual(self.values)))


@dataclass
class LevelSet:
    """Binary image {u > threshold} (strict inequality)."""

    image: GridImage
    threshold: float


def _check_same_grid(a, b):
    if a.values.shape[:2] != b.values.shape[:2] or a.spacing != b.spacing:
        raise ValueError("grid shapes/spacings do not match")


# ----------------------------------------------------------------------
# difference operators (raw kernels + validated wrappers)
# ----------------------------------------------------------------------

def _grad_forward_raw(v: np.ndarray, spacing: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.zeros(v.shape + (2,))
    np.subtract(v[:, 1:], v[:, :-1], out=out[:, :-1, 0])
    out[:, -1, 0] = 0.0
    np.subtract(v[1:, :], v[:-1, :], out=out[:-1, :, 1])
    out[-1, :, 1] = 0.0
    out /= spacing
    return out


def _grad_backward_raw(v: np.ndarray, spacing: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.zeros(v.shape + (2,))
    np.subtract(v[:, 1:], v[:, :-1], out=out[:, 1:, 0])
    out[:, 0, 0] = 0.0
    np.subtract(v[1:, :], v[:-1, :], out=out[1:, :, 1])
    out[0, :, 1] = 0.0
    out /= spacing
    return out


def _div_adjoint_raw(p: np.ndarray, spacing: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of
    _grad_forward_raw (the last component column/row is ignored because the
    matching gradient entry is identically zero)."""
    px = p[..., 0]
    py = p[..., 1]
    if out is None:
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


def _div_forward_raw(p: np.ndarray, spacing: float) -> np.ndarray:
    """Forward-difference divergence, the exact negative adjoint of
    _grad_backward_raw (ignores the first component column/row)."""
    px = p[..., 0]
    py = p[..., 1]
    out = np.zeros(p.shape[:2])
    out[:, :-2] += px[:, 1:-1]
    out[:, 1:-1] -= px[:, 1:-1]
    out[:, -2] += px[:, -1]
    out[:, -1] -= px[:, -1]
    out[:-2, :] += py[1:-1, :]
    out[1:-1, :] -= py[1:-1, :]
    out[-2, :] += py[-1, :]
    out[-1, :] -= py[-1, :]
    out /= spacing
    return out


def forward_gradient(u: GridImage) -> DualField:
    """Forward differences / spacing, zero at the right/top boundary."""
    if u.height < 2 or u.width < 2:
        raise ValueError("grid must be at least 2x2")
    return DualField(_grad_forward_raw(u.values, u.spacing), u.spacing)


def backward_gradient(u: GridImage) -> DualField:
    """Backward differences / spacing, zero at the left/bottom boundary."""
    if u.height < 2 or u.width < 2:
        raise ValueError("grid must be at least 2x2")
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

def tv_phi(u: GridImage, g: Gauge) -> float:
    """Discrete TV: spacing^2 times the mean of the gauge over the forward
    and backward gradient stencils (they agree for separable gauges)."""
    fw = g(forward_gradient(u).values).sum()
    bw = g(backward_gradient(u).values).sum()
    return float(0.5 * (fw + bw) * u.spacing**2)


def dual_pairing(u: GridImage, p: DualField) -> float:
    """Stencil-matched pairing spacing^2 * mean of <grad u, p> over the two
    stencils; bounded by tv_phi(u) whenever p is pointwise in -W."""
    _check_same_grid(u, p)
    fw = np.einsum("ijk,ijk->", forward_gradient(u).values, p.values)
    bw = np.einsum("ijk,ijk->", backward_gradient(u).values, p.values)
    return float(0.5 * (fw + bw) * u.spacing**2)


def tv_phi_dual_gap(u: GridImage, p: DualField, g: Gauge,
                    feasibility_tol: float = 1e-9) -> float:
    """tv_phi(u) minus the dual pairing; nonnegative (up to rounding) for
    feasible p, ~0 exactly when p is an optimal certificate field for u."""
    violation = p.max_dual_value(g) - 1.0
    if violation > feasibility_tol:
        raise ValueError(f"dual field violates the -W constraint by {violation:.3e}")
    return tv_phi(u, g) - dual_pairing(u, p)


# ----------------------------------------------------------------------
# level sets, coarea, energy decomposition
# ----------------------------------------------------------------------

def level_set(u: GridImage, t: float) -> LevelSet:
    return LevelSet(GridImage((u.values > t).astype(float), u.spacing), t)


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
    """Returns (tv_phi(u), quadrature of tv_phi of the superlevel sets)."""
    levels = np.asarray(levels, dtype=float)
    lo = float(u.values.min())
    hi = float(u.values.max())
    weights = _level_weights(levels, lo, hi)
    rhs = 0.0
    for t, w in zip(levels, weights):
        if w == 0.0:
            continue
        rhs += w * tv_phi(level_set(u, t).image, g)
    return tv_phi(u, g), float(rhs)


def energy_decompose(u: GridImage, f: GridImage, lam: float, g: Gauge,
                     levels) -> tuple[float, float]:
    """Total energy of u against f versus the level-wise integral of binary
    energies (symmetric differences of superlevel sets)."""
    _check_same_grid(u, f)
    levels = np.asarray(levels, dtype=float)
    lo = float(min(u.values.min(), f.values.min()))
    hi = float(max(u.values.max(), f.values.max()))
    weights = _level_weights(levels, lo, hi)
    area = u.spacing**2
    total = tv_phi(u, g) + lam * float(np.abs(u.values - f.values).sum()) * area
    integrated = 0.0
    for t, w in zip(levels, weights):
        if w == 0.0:
            continue
        ut = level_set(u, t).image
        ft = level_set(f, t).image
        sym_diff = float(np.abs(ut.values - ft.values).sum()) * area
        integrated += w * (tv_phi(ut, g) + lam * sym_diff)
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
    X, Y = cell_centers(width, height, spacing)
    ss = int(supersample)
    offs = ((np.arange(ss) + 0.5) / ss - 0.5) * spacing
    acc = np.zeros((height, width))
    for dy in offs:
        for dx in offs:
            acc += indicator(X + dx, Y + dy)
    values = acc / (ss * ss)
    if binary:
        values = (values > 0.5).astype(float)
    return GridImage(values, spacing)


def raster_disk(width: int, height: int, spacing: float, radius: float = 1.0,
                center=(0.0, 0.0), supersample: int = 4,
                binary: bool = False) -> GridImage:
    cx, cy = center
    r2 = radius * radius

    def inside(X, Y):
        return (X - cx) ** 2 + (Y - cy) ** 2 <= r2

    return rasterize(inside, width, height, spacing, supersample, binary)


def raster_convex_polygon(vertices, width: int, height: int, spacing: float,
                          supersample: int = 4, binary: bool = False) -> GridImage:
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
