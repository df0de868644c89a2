"""Balanced match sampling from a dense warp.

Downstream pose solvers want a sparse, well-spread set of correspondences,
but certainty-weighted sampling piles matches onto confidently matched
regions. Reweighting each candidate by the reciprocal of a kernel density
estimate over match coordinates evens the draw out: candidates in crowded
parts of match space are discounted, under-represented ones boosted.

Candidates are the warp cells with positive certainty and an in-extent
target; the KDE runs over their joint 4D coordinates (source, target) by
default, or source-only 2D coordinates with ``joint_coords=False``.
"""

from __future__ import annotations

import numpy as np

from .grids import CorrespondenceSet, GridSpec, WarpField, containing_cells, in_extent

WEIGHT_FLOOR = 1e-12
KDE_BLOCK_ENTRIES = 200_000  # pairwise terms per block: a buffer that stays in cache


def kde_density(points: np.ndarray, h: float) -> np.ndarray:
    """Gaussian-kernel density at each point, self-inclusive.

    The density is ``sum_j exp(-||p_i - p_j||^2 / (2 h^2)) / (2 pi h^2)^(d/2)``
    over all points, so an isolated point has density ``(2 pi h^2)^(-d/2)``
    and duplicated points scale it up by their multiplicity. Pairwise terms
    are formed a row block at a time, in one buffer.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = points.shape
    if m < 1:
        raise ValueError("need at least one point")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    norm = (2.0 * np.pi * h * h) ** (d / 2.0)
    out = np.empty(m)
    sq = (points**2).sum(axis=1)
    rows = max(1, KDE_BLOCK_ENTRIES // m)
    buf = np.empty((min(rows, m), m))
    for start in range(0, m, rows):
        blk = slice(start, start + rows)  # the last block may be shorter
        d2 = np.matmul(2.0 * points[blk], points.T, out=buf[: m - start])
        np.subtract(sq[blk, None], d2, out=d2)
        d2 += sq
        np.maximum(d2, 0.0, out=d2)
        d2 *= -0.5
        d2 /= h * h
        out[blk] = np.exp(d2, out=d2).sum(axis=1)
    return out / norm


def _candidates(warp: WarpField, n: int | None = None):
    """Coordinates and certainties of the cells that can be sampled; checks ``n``."""
    coords_a = warp.grid.cell_centers()
    coords_b = warp.target_coords.reshape(-1, 2)
    cert = warp.certainty.reshape(-1)
    keep = (cert > 0) & in_extent(coords_b)
    if n is not None and not 1 <= n <= keep.sum():
        raise ValueError(f"requested {n} matches; need 1 to {keep.sum()} (the candidates)")
    return coords_a[keep], coords_b[keep], cert[keep]


def _draw_without_replacement(rng: np.random.Generator, weights: np.ndarray, n: int) -> np.ndarray:
    """n successive weighted draws without replacement, in draw order: the n largest
    Efraimidis-Spirakis keys ``log(u) / w``, u uniform on (0, 1], over positive
    weights; equal keys go to the lower index."""
    if n < 1:
        raise ValueError(f"need at least one draw, got n={n}")
    eligible = np.flatnonzero(weights > 0)
    if eligible.size < n:
        raise ValueError("ran out of positive-weight candidates")
    keys = np.log(1.0 - rng.random(eligible.size)) / weights[eligible]
    return eligible[np.argsort(-keys, kind="stable")[:n]]


def balanced_sample(
    warp: WarpField, n: int, h: float = 0.15, seed: int = 0, joint_coords: bool = True
) -> CorrespondenceSet:
    """Sample n matches with certainty / KDE weighting, without replacement.

    Returned weights are the certainties of the chosen cells. Deterministic
    for a fixed seed.
    """
    coords_a, coords_b, cert = _candidates(warp, n)
    pts = np.concatenate([coords_a, coords_b], axis=1) if joint_coords else coords_a
    dens = kde_density(pts, h)
    weights = cert / np.maximum(dens, WEIGHT_FLOOR)
    picks = _draw_without_replacement(np.random.default_rng(seed), weights, n)
    return CorrespondenceSet(coords_a[picks], coords_b[picks], cert[picks])


def certainty_sample(warp: WarpField, n: int, seed: int = 0) -> CorrespondenceSet:
    """Baseline sampler: weights are the certainties alone (no KDE)."""
    coords_a, coords_b, cert = _candidates(warp, n)
    picks = _draw_without_replacement(np.random.default_rng(seed), cert, n)
    return CorrespondenceSet(coords_a[picks], coords_b[picks], cert[picks])


def spatial_entropy(cs: CorrespondenceSet, bins: int = 4) -> float:
    """Shannon entropy (nats) of sampled source points over a bins x bins grid."""
    rows, cols = containing_cells(cs.xa, GridSpec(bins, bins))
    counts = np.bincount(rows * bins + cols, minlength=bins * bins).astype(float)
    p = counts / counts.sum()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())
