"""Exact match distributions, their diffusion over scale, and multimodality.

A scene is a partition of the source extent into regions, each moving by its
own affine map. Rasterizing a scene gives the exact joint match distribution
at infinite resolution: one unit of mass per visible source cell, placed in
the target cell its region maps it to. Observing the scene at a coarser scale
``s`` corresponds to convolving that joint with an isotropic Gaussian of
standard deviation ``s`` over all four coordinates (two source, two target),
truncated at radius ``4 s`` and renormalized.

Where two regions meet, the source-side blur mixes populations moving
differently, so conditionals near such motion boundaries become multimodal as
``s`` grows. ``multimodality_sweep`` quantifies this, and ``fit_comparison``
measures how much better an anchor mixture fits a given conditional than the
best single discretized Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .anchors import AnchorGrid
from .grids import GridSpec, JointMatchDistribution, containing_cells, in_extent, normalize_joint


@dataclass(frozen=True)
class AffineRegion:
    """A membership predicate over the source extent plus an affine motion."""

    contains: Callable[[np.ndarray], np.ndarray]  # (N, 2) -> bool (N,)
    linear: np.ndarray  # (2, 2)
    offset: np.ndarray  # (2,)

    def map_points(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts, dtype=float) @ np.asarray(self.linear, dtype=float).T + np.asarray(
            self.offset, dtype=float
        )


@dataclass(frozen=True)
class SceneSpec:
    """Piecewise-affine motion: regions must partition the source extent."""

    regions: tuple[AffineRegion, ...]

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("scene needs at least one region")

    def region_index(self, pts: np.ndarray) -> np.ndarray:
        """Region id per point; raises if the partition property fails."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        member = np.stack([np.asarray(r.contains(pts), dtype=bool) for r in self.regions])
        counts = member.sum(axis=0)
        if np.any(counts == 0):
            raise ValueError("regions do not cover the source extent")
        if np.any(counts > 1):
            raise ValueError("regions overlap")
        return np.argmax(member, axis=0)

    def map_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx = self.region_index(pts)
        out = np.empty_like(pts)
        for i, region in enumerate(self.regions):
            sel = idx == i
            if np.any(sel):
                out[sel] = region.map_points(pts[sel])
        return out


def affine_scene(linear: np.ndarray, offset: Sequence[float]) -> SceneSpec:
    """One region covering the whole source extent, moved by ``x -> A x + t``."""
    linear = np.asarray(linear, dtype=float)
    offset = np.asarray(offset, dtype=float)
    return SceneSpec((AffineRegion(lambda p: np.ones(len(p), bool), linear, offset),))


def identity_scene() -> SceneSpec:
    return affine_scene(np.eye(2), np.zeros(2))


def translation_scene(offset: Sequence[float]) -> SceneSpec:
    return affine_scene(np.eye(2), offset)


def two_translation_scene(
    offset_left: Sequence[float] = (-0.3, 0.0), offset_right: Sequence[float] = (0.3, 0.0)
) -> SceneSpec:
    """The canonical motion-boundary scene: half planes split at x = 0."""
    return SceneSpec(
        (
            AffineRegion(lambda p: p[:, 0] < 0.0, np.eye(2), np.asarray(offset_left, float)),
            AffineRegion(lambda p: p[:, 0] >= 0.0, np.eye(2), np.asarray(offset_right, float)),
        )
    )


def rasterize_scene(spec: SceneSpec, src: GridSpec, tgt: GridSpec) -> JointMatchDistribution:
    """Exact joint at scale zero: unit mass per source cell at its mapped cell.

    Source cells whose image falls outside the target extent contribute no
    mass (occlusion by the frame); the remaining mass is renormalized.
    """
    centers = src.cell_centers()
    mapped = spec.map_points(centers)
    visible = in_extent(mapped)
    if not np.any(visible):
        raise ValueError("scene maps every source cell outside the target extent")
    joint = np.zeros((src.n_cells, tgt.n_cells))
    trows, tcols = containing_cells(mapped[visible], tgt)
    joint[np.flatnonzero(visible), trows * tgt.width + tcols] = 1.0
    return normalize_joint(joint, src, tgt)


@dataclass(frozen=True)
class DiffusedJoint:
    """A joint distribution observed at scale ``sigma`` (already diffused)."""

    joint: JointMatchDistribution
    sigma: float


def _gaussian_taps(sigma_extent: float, cell_side: float) -> np.ndarray:
    """Sampled 1D Gaussian kernel, truncated at radius 4*sigma, sum 1."""
    radius = int(math.floor(4.0 * sigma_extent / cell_side))
    if radius < 1:
        return np.array([1.0])
    offs = np.arange(-radius, radius + 1) * cell_side
    taps = np.exp(-0.5 * (offs / sigma_extent) ** 2)
    return taps / taps.sum()


def _convolve_axis(arr: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Zero-padded 1D convolution along one axis (mass may leak at edges)."""
    if len(taps) == 1:
        return arr * taps[0]
    moved = np.moveaxis(arr, axis, 0)
    out = np.zeros_like(moved)
    n = moved.shape[0]
    radius = len(taps) // 2
    for tap_idx, weight in enumerate(taps):
        off = tap_idx - radius
        lo = max(0, -off)
        hi = min(n, n - off)
        if lo < hi:
            out[lo:hi] += weight * moved[lo + off : hi + off]
    return np.moveaxis(out, 0, axis)


def diffuse(j: JointMatchDistribution, s: float) -> DiffusedJoint:
    """Convolve the joint with an isotropic Gaussian of std ``s``.

    All four coordinates (two source, two target) are blurred with separable
    1D passes. Kernels are truncated at radius ``4 s`` and the result is
    renormalized, so mass stays exactly one.
    """
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"scale must be finite and nonnegative, got {s}")
    if s == 0:
        return DiffusedJoint(j, 0.0)
    vol = j.as_4d().copy()
    sides = [
        j.source.cell_height,
        j.source.cell_width,
        j.target.cell_height,
        j.target.cell_width,
    ]
    for axis, side in enumerate(sides):
        vol = _convolve_axis(vol, _gaussian_taps(s, side), axis)
    return DiffusedJoint(normalize_joint(vol, j.source, j.target), s)


@dataclass(frozen=True)
class Mode:
    value: float
    centroid: tuple[float, float]  # (row, col), plateau centroid
    cells: tuple[tuple[int, int], ...]


def _checked_grid(cond: np.ndarray) -> np.ndarray:
    """``cond`` as floats; raises unless every entry is finite and nonnegative."""
    cond = np.asarray(cond, dtype=float)
    if not np.all(np.isfinite(cond)) or np.any(cond < 0):
        raise ValueError("grid entries must be finite and nonnegative")
    return cond


def _mode_masks(stack: np.ndarray, rel_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Top cells (no greater 8-neighbor, at least ``rel_threshold`` times a positive
    grid maximum) of each grid in an (n, h, w) stack, and those with an equal
    neighbor: plateau candidates. A top cell without one is a mode on its own."""
    if not (0.0 < rel_threshold < 1.0):
        raise ValueError("rel_threshold must lie in (0, 1)")
    n, h, w = stack.shape
    padded = np.full((n, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = stack
    shifts = [(r, c) for r in range(3) for c in range(3) if (r, c) != (1, 1)]
    views = [padded[:, r : r + h, c : c + w] for r, c in shifts]
    greater = np.any([v > stack for v in views], axis=0)
    equal = np.any([v == stack for v in views], axis=0)
    peak = stack.max(axis=(1, 2), keepdims=True)
    top = ~greater & (stack >= rel_threshold * peak) & (peak > 0)
    return top, top & equal


def _plateaus(cond: np.ndarray, top: np.ndarray) -> list[list[tuple[int, int]]]:
    """Equal-valued 8-connected components of ``cond`` lying wholly in ``top``, in
    row-major order of their first cell (where each one's flood fill starts)."""
    h, w = cond.shape
    seen = np.zeros((h, w), dtype=bool)
    kept = []
    for r0, c0 in zip(*np.nonzero(top)):
        if seen[r0, c0]:
            continue
        seen[r0, c0] = True
        stack, component = [(int(r0), int(c0))], []
        while stack:
            r, c = stack.pop()
            component.append((r, c))
            for rr in range(max(r - 1, 0), min(r + 2, h)):
                for cc in range(max(c - 1, 0), min(c + 2, w)):
                    if not seen[rr, cc] and cond[rr, cc] == cond[r0, c0]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
        if all(top[rc] for rc in component):
            kept.append(component)
    return kept


def _count_modes_stack(stack: np.ndarray, rel_threshold: float) -> np.ndarray:
    """``len(find_modes(grid))`` per grid of a stack; only plateau grids are labelled."""
    top, plateau = _mode_masks(stack, rel_threshold)
    counts = top.sum(axis=(1, 2))
    for i in np.flatnonzero(plateau.any(axis=(1, 2))):
        counts[i] = len(_plateaus(stack[i], top[i]))
    return counts


def find_modes(cond: np.ndarray, rel_threshold: float) -> list[Mode]:
    """Strict local maxima of a 2D grid under 8-connectivity.

    Equal-valued plateaus collapse to a single mode via connected components;
    a component counts only if every outside neighbor is strictly smaller and
    its value reaches ``rel_threshold`` times the global maximum. Modes come in
    row-major order of their first cell. Entries must be finite and nonnegative.
    """
    cond = _checked_grid(cond)
    modes = []
    for cells in _plateaus(cond, _mode_masks(cond[None], rel_threshold)[0][0]):
        rows, cols = zip(*cells)
        centroid = (sum(rows) / len(rows), sum(cols) / len(cols))
        modes.append(Mode(float(cond[cells[0]]), centroid, tuple(sorted(cells))))
    return modes


def boundary_distances(spec: SceneSpec, grid: GridSpec) -> np.ndarray:
    """Distance from each source cell center to the region boundary.

    The boundary is located at midpoints between 4-adjacent cell centers with
    different region memberships; single-region scenes return +inf everywhere.
    """
    centers = grid.cell_centers()
    ids = spec.region_index(centers).reshape(grid.height, grid.width)
    pts = centers.reshape(grid.height, grid.width, 2)
    midpoints = []
    diff_h = ids[:, :-1] != ids[:, 1:]
    if np.any(diff_h):
        midpoints.append(0.5 * (pts[:, :-1][diff_h] + pts[:, 1:][diff_h]))
    diff_v = ids[:-1, :] != ids[1:, :]
    if np.any(diff_v):
        midpoints.append(0.5 * (pts[:-1, :][diff_v] + pts[1:, :][diff_v]))
    if not midpoints:
        return np.full((grid.height, grid.width), np.inf)
    boundary = np.concatenate(midpoints, axis=0)
    d = np.linalg.norm(centers[:, None, :] - boundary[None, :, :], axis=-1)
    return d.min(axis=1).reshape(grid.height, grid.width)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Mode counts of every conditional at every scale.

    ``n_modes[k, i]`` counts the modes of source cell ``i`` at ``scales[k]``;
    it is 0 where ``has_mass[k, i]`` is false (a fully occluded cell).
    """

    scales: np.ndarray  # (S,)
    boundary_distance: np.ndarray  # (N,)
    n_modes: np.ndarray  # (S, N)
    has_mass: np.ndarray  # (S, N)
    cell_side: float

    def fraction_multimodal(self, scale: float, dist_lo: float = 0.0, dist_hi: float = np.inf):
        """(fraction multimodal, n cells) among cells with mass in a distance band."""
        d, at = self.boundary_distance, self.scales == scale
        sel = self.has_mass[at] & (dist_lo <= d) & (d <= dist_hi)
        n = int(sel.sum())
        return (int((sel & (self.n_modes[at] >= 2)).sum()) / n, n) if n else (0.0, 0)

    def table(self) -> list[tuple[float, int, float, int]]:
        """Rows of (scale, distance bin in cells, fraction multimodal, n cells)."""
        side = self.cell_side
        finite = self.boundary_distance[np.isfinite(self.boundary_distance)]
        last = 1 + (int(finite.max() / side) if finite.size else 0)
        out = []
        for s in np.sort(self.scales).tolist():
            for b in range(1, last + 1):
                frac, n = self.fraction_multimodal(s, (b - 1) * side, b * side * (1 - 1e-12))
                if n:
                    out.append((s, b, frac, n))
        return out


def multimodality_sweep(
    spec: SceneSpec,
    src: GridSpec,
    tgt: GridSpec,
    scales: Sequence[float],
    rel_threshold: float = 0.1,
) -> SweepResult:
    """Mode-count every conditional at every (distinct) scale, one stack per scale."""
    return _sweep(spec, src, tgt, scales, rel_threshold)[0]


def _sweep(
    spec: SceneSpec, src: GridSpec, tgt: GridSpec, scales, rel_threshold: float, row: int = 0
) -> tuple[SweepResult, list[np.ndarray]]:
    """``multimodality_sweep`` and, per scale, row ``row`` of the diffused joint."""
    scales = np.asarray(scales, dtype=float)
    if np.unique(scales).size != scales.size:
        raise ValueError(f"scales must be distinct, got {scales.tolist()}")
    base = rasterize_scene(spec, src, tgt)
    n_modes = np.zeros((scales.size, src.n_cells), dtype=int)
    has_mass = np.zeros((scales.size, src.n_cells), dtype=bool)
    rows = []
    for k, s in enumerate(scales.tolist()):
        probs = diffuse(base, s).joint.probs
        rows.append(probs[row].copy())
        mass = probs.sum(axis=1)
        has_mass[k] = live = mass > 0
        cond = (probs[live] / mass[live, None]).reshape(-1, tgt.height, tgt.width)
        n_modes[k, live] = _count_modes_stack(cond, rel_threshold)
    dists = boundary_distances(spec, src).ravel()
    sweep = SweepResult(scales, dists, n_modes, has_mass, min(src.cell_width, src.cell_height))
    return sweep, rows


def _axis_log_likelihood(
    marginal: np.ndarray, centers: np.ndarray, mu: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """``marginal . log g`` per broadcast (mu, sigma) pair, g the normalized
    sampled 1D Gaussian; the log-sum-exp normalization keeps every term finite."""
    z = -0.5 * ((centers - mu[..., None]) / sigma[..., None]) ** 2
    top = z.max(axis=-1, keepdims=True)
    return (z - top - np.log(np.exp(z - top).sum(axis=-1, keepdims=True))) @ marginal


def fit_comparison(cond: np.ndarray, anchor_grid: AnchorGrid) -> tuple[float, float]:
    """KL of a conditional against its best anchor mixture and best Gaussian.

    The anchor mixture projects the conditional onto anchor cells (block sums
    are the exact KL minimizer); the unimodal reference is the best discretized
    isotropic Gaussian found by grid search over all cell centers and 16
    log-spaced sigmas in [0.01, 1], refined by coordinate descent. Returns
    ``(kl_mixture, kl_unimodal)`` in nats. Entries must be finite and >= 0.

    The Gaussian is separable and normalized per axis, so ``KL(p||g) =
    sum p log p - sum p_x log g_x - sum p_y log g_y``, each axis in log space.
    Nothing is clamped: where g underflows under mass of p (only in very poor
    fits) the KL exceeds that of a direct evaluation flooring g at 1e-300.
    """
    cond = _checked_grid(cond)
    h, w = cond.shape
    if h % anchor_grid.rows or w % anchor_grid.cols:
        raise ValueError("anchor grid must evenly divide the conditional grid")
    tgt = GridSpec(h, w)
    if cond.sum() <= 0:
        raise ValueError("conditional has no mass")
    cond = cond / cond.sum()

    p = cond[cond > 0]
    fh, fw = h // anchor_grid.rows, w // anchor_grid.cols
    block = cond.reshape(anchor_grid.rows, fh, anchor_grid.cols, fw).sum(axis=(1, 3))
    mix = np.repeat(np.repeat(block / (fh * fw), fh, axis=0), fw, axis=1)
    kl_mixture = float((p * (np.log(p) - np.log(mix[cond > 0]))).sum())

    neg_entropy = float((p * np.log(p)).sum())
    cx, cy = tgt.axis_centers_x(), tgt.axis_centers_y()
    px, py = cond.sum(axis=0), cond.sum(axis=1)

    def axis_term(params: np.ndarray, axis: int) -> np.ndarray:  # rows of (mu_x, mu_y, log sigma)
        marginal, centers = (px, cx) if axis == 0 else (py, cy)
        return _axis_log_likelihood(marginal, centers, params[:, axis], np.exp(params[:, 2]))

    log_sigmas = np.linspace(math.log(0.01), math.log(1.0), 16)
    sigmas = np.exp(log_sigmas)[:, None]
    ll_x = _axis_log_likelihood(px, cx, cx, sigmas)  # (sigma, mu_x)
    ll_y = _axis_log_likelihood(py, cy, cy, sigmas)
    grid = neg_entropy - ll_x[:, None, :] - ll_y[:, :, None]  # first minimum wins
    i, r, c = np.unravel_index(np.argmin(grid), grid.shape)
    value = float(grid[i, r, c])
    params = np.array([cx[c], cy[r], log_sigmas[i]])
    steps = np.array([tgt.cell_width, tgt.cell_height, log_sigmas[1] - log_sigmas[0]])
    for _ in range(8):  # coordinate descent; both ternary probes in one call
        for axis in range(3):
            lo, hi = params[axis] - steps[axis], params[axis] + steps[axis]
            probes = np.tile(params, (2, 1))
            # A mu_x probe changes only the x term, and a mu_y probe only the y term.
            ll_x, ll_y = axis_term(probes, 0), axis_term(probes, 1)
            for _ in range(40):
                probes[:, axis] = (lo + (hi - lo) / 3, hi - (hi - lo) / 3)
                if axis != 1:
                    ll_x = axis_term(probes, 0)
                if axis != 0:
                    ll_y = axis_term(probes, 1)
                kl1, kl2 = neg_entropy - ll_x - ll_y
                lo, hi = (lo, probes[1, axis]) if kl1 <= kl2 else (probes[0, axis], hi)
            params[axis] = 0.5 * (lo + hi)
        row = params[None]
        new_value = float((neg_entropy - axis_term(row, 0) - axis_term(row, 1))[0])
        if value - new_value < 1e-12:
            break
        value = new_value
    return kl_mixture, min(value, new_value)
