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

from .grids import (
    EXTENT_MIN,
    ROW_SUM_TOL,
    GridSpec,
    WarpField,
    _readonly,
    containing_cells,
    in_extent,
)


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
    def cell_area(self) -> float:
        return (2.0 / self.rows) * (2.0 / self.cols)

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
        if np.any(pi < 0) or not np.all(np.isfinite(pi)):
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


def mixture_density(probs: AnchorProbs, grid: AnchorGrid, x_a: int, x_b: np.ndarray) -> float:
    """Evaluate the uniform-mixture conditional density at target point x_b.

    The mixture places probability ``pi_k`` uniformly over anchor cell ``k``,
    so the density at ``x_b`` is ``pi_{cell(x_b)} / cell_area`` and integrates
    to one over the extent.
    """
    if probs.pi.shape[1] != grid.count:
        raise ValueError("pi width does not match anchor count")
    x_b = np.asarray(x_b, dtype=float)
    if not in_extent(x_b):
        raise ValueError(f"target point {x_b} outside extent")
    row, col = containing_cells(x_b, grid.as_grid_spec())
    return float(probs.pi[x_a, row * grid.cols + col] / grid.cell_area)


def closest_anchor(grid: AnchorGrid, x: np.ndarray) -> np.ndarray:
    """Index of the nearest anchor center; ties go to the lower index.

    Works per axis (the tiling is uniform, so the nearest anchor factorizes),
    with exact midpoints resolved toward the smaller coordinate, hence the
    smaller row-major index.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("query point must be finite")
    u = (x[..., 0] - EXTENT_MIN) / (2.0 / grid.cols) - 0.5
    v = (x[..., 1] - EXTENT_MIN) / (2.0 / grid.rows) - 0.5
    col = np.clip(np.ceil(u - 0.5), 0, grid.cols - 1).astype(int)
    row = np.clip(np.ceil(v - 0.5), 0, grid.rows - 1).astype(int)
    return row * grid.cols + col


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
    kstar = np.argmax(pi, axis=1)  # first max wins, matching the tie rule
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
    return 0.5 * (1.0 + _erf((z - mu) / (sigma * math.sqrt(2.0))).astype(float))


def gaussian_anchor_probs(grid: AnchorGrid, means: np.ndarray, sigma: float) -> np.ndarray:
    """Exact per-cell mass of isotropic Gaussians, one row per mean.

    Integrates the Gaussian over each anchor cell (separable erf products)
    and renormalizes the in-extent mass to one. Useful for building synthetic
    AnchorProbs whose decoding error can be bounded.
    """
    if not 0 < sigma < np.inf:  # also refuses NaN
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    means = np.atleast_2d(np.asarray(means, dtype=float))
    if not np.all(np.isfinite(means)):
        raise ValueError("means must be finite")
    edges_x = EXTENT_MIN + np.arange(grid.cols + 1) * (2.0 / grid.cols)
    edges_y = EXTENT_MIN + np.arange(grid.rows + 1) * (2.0 / grid.rows)
    cdf_x = _gauss_cdf(edges_x[None, :], means[:, 0:1], sigma)  # (N, cols+1)
    cdf_y = _gauss_cdf(edges_y[None, :], means[:, 1:2], sigma)  # (N, rows+1)
    mass_x = np.diff(cdf_x, axis=1)
    mass_y = np.diff(cdf_y, axis=1)
    pi = (mass_y[:, :, None] * mass_x[:, None, :]).reshape(means.shape[0], grid.count)
    return pi / pi.sum(axis=1, keepdims=True)
