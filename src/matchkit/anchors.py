"""Anchor-based output representation for coarse matching.

Instead of regressing target coordinates directly, a coarse matcher can
predict a categorical distribution over K anchors tiling the target extent:
the conditional is then a mixture of uniform patches, one per anchor cell.
Decoding back to a warp takes the argmax anchor and re-centers it with a
softargmax over the anchor and its four axis-aligned neighbors, which
recovers sub-anchor accuracy while staying multimodality-aware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import EXTENT_MIN, ROW_SUM_TOL, GridSpec, WarpField, _axis_taps, _readonly


@dataclass(frozen=True)
class AnchorGrid:
    """Uniform rows x cols anchor tiling of the target extent."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"anchor grid must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def count(self) -> int:
        return self.rows * self.cols

    @property
    def anchors(self) -> np.ndarray:
        """Anchor coordinates, shape (K, 2), row-major."""
        return self.as_grid_spec().cell_centers()

    def as_grid_spec(self) -> GridSpec:
        return GridSpec(self.rows, self.cols)


def build_anchor_grid(rows: int = 64, cols: int = 64) -> AnchorGrid:
    """Uniform anchor tiling; 64x64 is the standard full-scale configuration."""
    return AnchorGrid(rows, cols)


@dataclass(frozen=True)
class AnchorProbs:
    """Per-source-cell anchor probabilities plus a matchability score."""

    source: GridSpec
    pi: np.ndarray  # (source cells, K)
    matchability: np.ndarray  # (source cells,) in [0, 1]

    def __post_init__(self) -> None:
        pi = _readonly(self.pi)
        m = _readonly(np.atleast_1d(self.matchability))
        if pi.ndim != 2 or pi.shape[0] != self.source.n_cells:
            raise ValueError(f"pi shape {pi.shape} does not match source grid")
        if not (pi.min(initial=0.0) >= 0 and pi.max(initial=0.0) < np.inf):  # NaN fails both; no (N, K) mask
            raise ValueError("anchor probabilities must be finite and nonnegative")
        rows = pi.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > ROW_SUM_TOL):
            raise ValueError("every pi row must sum to 1")
        if m.shape != (self.source.n_cells,):
            raise ValueError("matchability must have one entry per source cell")
        if np.any(m < 0) or np.any(m > 1) or not np.all(np.isfinite(m)):
            raise ValueError("matchability must lie in [0, 1]")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "matchability", m)


def closest_anchor(grid: AnchorGrid, x: np.ndarray) -> np.ndarray:
    """Index of the nearest anchor center; ties go to the lower index.

    Works per axis (the tiling is uniform, so the nearest anchor factorizes),
    on the bilinear taps' continuous cell coordinate: the lower tap, unless the
    fraction past it exceeds 1/2. Exact midpoints so go toward the smaller
    coordinate, hence the smaller row-major index.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (2,):
        raise ValueError(f"query points must have shape (..., 2), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("query point must be finite")
    c0, _, fx = _axis_taps(x[..., 0], grid.cols)
    r0, _, fy = _axis_taps(x[..., 1], grid.rows)
    return (r0 + (fy > 0.5)) * grid.cols + c0 + (fx > 0.5)


def to_warp(probs: AnchorProbs, grid: AnchorGrid) -> WarpField:
    """Decode anchor probabilities into a deterministic warp.

    For each source cell: take the argmax anchor k*, gather k* plus its
    left/right/top/bottom neighbors (edge neighbors are dropped), and return
    the probability-weighted mean of their coordinates. Certainty is the
    matchability score.
    """
    if probs.pi.shape[1] != grid.count:
        raise ValueError("pi width does not match anchor count")
    pi = probs.pi
    # First max wins (the tie rule); argmax of the max mask, as argmax copies a read-only pi whole.
    kstar = np.argmax(pi == pi.max(axis=1, keepdims=True), axis=1)
    krow, kcol = kstar // grid.cols, kstar % grid.cols

    anchors = grid.anchors
    num = np.zeros((pi.shape[0], 2))
    den = np.zeros(pi.shape[0])
    offsets = ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0))
    for dr, dc in offsets:
        r, c = krow + dr, kcol + dc
        valid = (r >= 0) & (r < grid.rows) & (c >= 0) & (c < grid.cols)
        idx = np.where(valid, r * grid.cols + c, 0)
        p = np.where(valid, pi[np.arange(pi.shape[0]), idx], 0.0)
        num += p[:, None] * anchors[idx]
        den += p
    coords = num / den[:, None]
    return WarpField(
        probs.source,
        coords.reshape(probs.source.height, probs.source.width, 2),
        probs.matchability.reshape(probs.source.height, probs.source.width),
    )


_erf = np.frompyfunc(math.erf, 1, 1)


def _gauss_cdf(z: np.ndarray, mu: np.ndarray, sigma: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # an infinite u is erf's +-1, its limit
        u = (z - mu) / (sigma * math.sqrt(2.0))
    erf, near = np.sign(u), np.abs(u) < 6.0  # erf(u) is exactly +-1.0 where |u| >= 6: call it only nearer
    erf[near] = _erf(u[near]).astype(float)
    return 0.5 * (1.0 + erf)


def gaussian_anchor_probs(grid: AnchorGrid, means: np.ndarray, sigma: float) -> np.ndarray:
    """Exact per-cell mass of isotropic Gaussians, one row per mean.

    Integrates the Gaussian over each anchor cell (separable erf products)
    and renormalizes the in-extent mass to one, refusing a row that has none
    (a mean ~8 sigma outside, or a sigma so wide that every cell rounds to 0).
    Useful for building synthetic AnchorProbs whose decoding error can be bounded.
    The result is read-only.
    """
    if not 0 < sigma < np.inf:  # also refuses NaN
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    means = np.atleast_2d(np.asarray(means, dtype=float))
    if means.shape[1:] != (2,):
        raise ValueError(f"means must have shape (N, 2), got {means.shape}")
    if not np.all(np.isfinite(means)):
        raise ValueError("means must be finite")
    edges_x = EXTENT_MIN + np.arange(grid.cols + 1) * (2.0 / grid.cols)
    edges_y = EXTENT_MIN + np.arange(grid.rows + 1) * (2.0 / grid.rows)
    cdf_x = _gauss_cdf(edges_x[None, :], means[:, 0:1], sigma)  # (N, cols+1)
    cdf_y = _gauss_cdf(edges_y[None, :], means[:, 1:2], sigma)  # (N, rows+1)
    mass_x = np.diff(cdf_x, axis=1)
    mass_y = np.diff(cdf_y, axis=1)
    pi = np.empty((means.shape[0], grid.count))  # owns its memory, so AnchorProbs keeps it uncopied
    np.multiply(mass_y[:, :, None], mass_x[:, None, :], out=pi.reshape(-1, grid.rows, grid.cols))
    total = pi.sum(axis=1, keepdims=True)
    if np.any(total == 0):
        x, y = means[np.flatnonzero(total == 0)[0]]
        raise ValueError(f"sigma {sigma:g} leaves no mass inside the extent for the mean ({x:g}, {y:g})")
    pi /= total
    pi.setflags(write=False)
    return pi
