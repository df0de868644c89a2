"""Coordinate grids, match distributions, warps, and correspondence containers.

Every module in this package works in a resolution-independent frame: the
continuous domain is the square [-1, 1] x [-1, 1], and a grid tiles it with
height x width rectangular cells whose centers carry all discrete quantities.
Cell centers sit at ``-1 + (i + 0.5) * 2 / n`` along an axis with ``n`` cells,
so cells cover the extent with no overlap and no holes. Continuous coordinates
are stored as ``(x, y)`` with ``x`` along columns and ``y`` along rows.

Pixel-unit conversions are deliberately absent here; they happen only in the
metrics module via an explicit reference resolution.

All containers are immutable after construction (frozen dataclasses wrapping
read-only arrays), so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXTENT_MIN = -1.0
EXTENT_MAX = 1.0

# Slack used when checking that coordinates lie inside the extent; guards
# against round-off from coordinate arithmetic, not a semantic widening.
EXTENT_EPS = 1e-9

ROW_SUM_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only float64 array: ``a`` itself if it is one that owns its memory, else a copy."""
    if type(a) is np.ndarray and a.dtype == np.float64 and a.base is None and not a.flags.writeable:
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def in_extent(coords: np.ndarray) -> np.ndarray:
    """Boolean mask of which ``(..., 2)`` coordinates lie inside [-1, 1]^2, within ``EXTENT_EPS``."""
    coords = np.asarray(coords, dtype=float)
    inside = (coords >= EXTENT_MIN - EXTENT_EPS) & (coords <= EXTENT_MAX + EXTENT_EPS)
    return inside[..., 0] & inside[..., 1]  # np.all over a length-2 axis is several times slower


@dataclass(frozen=True)
class GridSpec:
    """A height x width tiling of the [-1, 1]^2 extent."""

    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {self.height}x{self.width}")

    @property
    def n_cells(self) -> int:
        return self.height * self.width

    @property
    def cell_width(self) -> float:
        return 2.0 / self.width

    @property
    def cell_height(self) -> float:
        return 2.0 / self.height

    def axis_centers_x(self) -> np.ndarray:
        return EXTENT_MIN + (np.arange(self.width) + 0.5) * self.cell_width

    def axis_centers_y(self) -> np.ndarray:
        return EXTENT_MIN + (np.arange(self.height) + 0.5) * self.cell_height

    def cell_centers(self) -> np.ndarray:
        """All cell centers as an (n_cells, 2) array in row-major order."""
        xx, yy = np.meshgrid(self.axis_centers_x(), self.axis_centers_y())
        return np.stack([xx.ravel(), yy.ravel()], axis=-1)


def containing_cells(coords: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized cell lookup: (rows, cols) of the cells containing ``coords``."""
    coords = np.asarray(coords, dtype=float)
    cols = np.clip(np.floor((coords[..., 0] - EXTENT_MIN) / grid.cell_width), 0, grid.width - 1)
    rows = np.clip(np.floor((coords[..., 1] - EXTENT_MIN) / grid.cell_height), 0, grid.height - 1)
    return rows.astype(int), cols.astype(int)


def _axis_taps(coord: np.ndarray, n: int):
    """Per-axis bilinear taps ``(i0, i1, f)``: clamped neighbour cells and the fraction from ``i0`` to ``i1``."""
    # Continuous cell coordinate: centers sit at integers 0 .. n-1.
    u = (coord - EXTENT_MIN) / (2.0 / n) - 0.5
    i0 = np.clip(np.floor(u), 0, max(n - 2, 0)).astype(int)
    f = np.clip(u - i0, 0.0, 1.0) if n > 1 else np.zeros_like(u)
    return i0, np.minimum(i0 + 1, n - 1), f


def bilinear_taps(shape: tuple[int, int], x: np.ndarray, y: np.ndarray):
    """The four bilinear corners of ``(x, y)`` on an ``(H, W)`` grid's cell centers.

    Returns ``(flat cell index, weight)`` pairs in the corner order 00, 01,
    10, 11 (row offset, then column offset). ``x`` and ``y`` broadcast. Queries
    outside the hull of cell centers clamp to the edge values, so the weights
    always sum to 1.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("bilinear query coordinates must be finite")
    h, w = shape
    c0, c1, fx = _axis_taps(x, w)
    r0, r1, fy = _axis_taps(y, h)
    return (
        (r0 * w + c0, (1 - fy) * (1 - fx)),
        (r0 * w + c1, (1 - fy) * fx),
        (r1 * w + c0, fy * (1 - fx)),
        (r1 * w + c1, fy * fx),
    )


def bilinear(values: np.ndarray, taps) -> np.ndarray:
    """Interpolate ``(H, W, ...)`` values at :func:`bilinear_taps`: ``((00 + 01) + 10) + 11``."""
    flat, trail = values.reshape(-1, *values.shape[2:]), (1,) * (values.ndim - 2)
    c00, c01, c10, c11 = (np.reshape(w, np.shape(w) + trail) * np.take(flat, i, axis=0) for i, w in taps)
    return ((c00 + c01) + c10) + c11


@dataclass(frozen=True)
class WarpField:
    """Per-cell target coordinate plus certainty over a source grid."""

    grid: GridSpec
    target_coords: np.ndarray  # (H, W, 2)
    certainty: np.ndarray  # (H, W) in [0, 1]

    def __post_init__(self) -> None:
        tc = _readonly(self.target_coords)
        ct = _readonly(self.certainty)
        if tc.shape != (self.grid.height, self.grid.width, 2):
            raise ValueError(f"target_coords shape {tc.shape} does not match grid")
        if ct.shape != (self.grid.height, self.grid.width):
            raise ValueError(f"certainty shape {ct.shape} does not match grid")
        if not np.all(np.isfinite(tc)):
            raise ValueError("target coordinates must be finite")
        if np.any(ct < 0) or np.any(ct > 1) or not np.all(np.isfinite(ct)):
            raise ValueError("certainty must lie in [0, 1]")
        object.__setattr__(self, "target_coords", tc)
        object.__setattr__(self, "certainty", ct)


def bilinear_sample(field: WarpField, coords: np.ndarray):
    """Sample warp coordinates and certainty at continuous query points.

    ``coords`` has shape ``(..., 2)``; returns ``(target (..., 2), certainty (...))``.
    Exact at cell centers, linear between adjacent centers, clamped outside
    the cell-center hull.
    """
    coords = np.asarray(coords, dtype=float)
    taps = bilinear_taps((field.grid.height, field.grid.width), coords[..., 0], coords[..., 1])
    return bilinear(field.target_coords, taps), bilinear(field.certainty, taps)


@dataclass(frozen=True)
class JointMatchDistribution:
    """Joint probability over (source cell, target cell) pairs; total mass 1."""

    source: GridSpec
    target: GridSpec
    probs: np.ndarray  # (source cells, target cells)

    def __post_init__(self) -> None:
        p = _readonly(self.probs)
        expected = (self.source.n_cells, self.target.n_cells)
        if p.shape != expected:
            raise ValueError(f"probs shape {p.shape}, expected {expected}")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite and nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"joint mass must sum to 1, got {total!r}")
        object.__setattr__(self, "probs", p)

    def as_4d(self) -> np.ndarray:
        return self.probs.reshape(
            self.source.height, self.source.width, self.target.height, self.target.width
        )


def normalize_joint(t: np.ndarray, source: GridSpec, target: GridSpec) -> JointMatchDistribution:
    """Normalize a nonnegative tensor into a joint distribution.

    Accepts either the flat ``(S, T)`` layout or the 4D
    ``(H_s, W_s, H_t, W_t)`` layout.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 4:
        t = t.reshape(source.n_cells, target.n_cells)
    if t.shape != (source.n_cells, target.n_cells):
        raise ValueError(f"tensor shape {t.shape} does not match grids")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("tensor entries must be finite and nonnegative")
    total = t.sum()
    if total <= 0:
        raise ValueError("tensor must have at least one strictly positive entry")
    return JointMatchDistribution(source, target, t / total)


@dataclass(frozen=True)
class CorrespondenceSet:
    """Weighted (x_A, x_B) coordinate pairs, both inside the extent."""

    xa: np.ndarray  # (N, 2)
    xb: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,), nonnegative

    def __post_init__(self) -> None:
        xa = _readonly(np.atleast_2d(self.xa))
        xb = _readonly(np.atleast_2d(self.xb))
        w = _readonly(np.atleast_1d(self.weights))
        if xa.ndim != 2 or xa.shape[1] != 2 or xb.shape != xa.shape:
            raise ValueError("xa and xb must both have shape (N, 2)")
        if w.shape != (xa.shape[0],):
            raise ValueError("weights must have shape (N,)")
        if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb)) and np.all(np.isfinite(w))):
            raise ValueError("correspondences must be finite")
        if not (np.all(in_extent(xa)) and np.all(in_extent(xb))):
            raise ValueError("correspondence coordinates must lie inside the extent")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "xa", xa)
        object.__setattr__(self, "xb", xb)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.xa.shape[0]
