"""Coarse-to-fine warp refinement over a feature pyramid.

A coarse warp estimated on the stride-14 grid is refined through strides
14 -> 8 -> 4 -> 2 -> 1. Between stages the warp is upsampled bilinearly to
the finer grid; each stage then looks up a local correlation patch around the
current target estimate and applies a temperature softargmax to produce a
residual coordinate offset plus a certainty logit increment (the window
maximum). Strides 1 and 2 use window 0 and pass the upsampled warp through.

Stages are strictly isolated: each consumes the previous stage's output as a
fixed input, so recomputing one stage never changes an earlier one.

Real encoder features are out of scope at desk scale; ``synth_pyramid``
builds smooth band-limited random feature fields whose ground-truth warp is
known exactly, which makes end-to-end refinement accuracy measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grids import EXTENT_MIN, GridSpec, WarpField, _axis_taps, containing_cells, in_extent
from .scalespace import SceneSpec

REFINER_STRIDES = (14, 8, 4, 2, 1)
CORR_WINDOWS = {14: 15, 8: 7, 4: 5, 2: 0, 1: 0}

_LOGIT_EPS = 1e-7


@dataclass(frozen=True)
class RefinerSpec:
    stride: int
    corr_window: int

    def __post_init__(self) -> None:
        if self.stride not in REFINER_STRIDES:
            raise ValueError(f"stride must be one of {REFINER_STRIDES}")
        if self.corr_window != 0 and self.corr_window % 2 == 0:
            raise ValueError("correlation window must be odd or zero")


def default_refiners() -> tuple[RefinerSpec, ...]:
    return tuple(RefinerSpec(s, CORR_WINDOWS[s]) for s in REFINER_STRIDES)


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-stride feature grids sharing one base resolution."""

    levels: Mapping[int, tuple[GridSpec, np.ndarray]]

    def __post_init__(self) -> None:
        strides = sorted(self.levels)
        if not strides:
            raise ValueError("pyramid has no levels")
        base_h = {s * self.levels[s][0].height for s in strides}
        base_w = {s * self.levels[s][0].width for s in strides}
        if len(base_h) != 1 or len(base_w) != 1:
            raise ValueError("pyramid level grids are inconsistent with a common base")
        for s in strides:
            grid, feats = self.levels[s]
            if feats.shape[:2] != (grid.height, grid.width):
                raise ValueError(f"features at stride {s} do not match their grid")

    def grid(self, stride: int) -> GridSpec:
        return self.levels[stride][0]

    def features(self, stride: int) -> np.ndarray:
        return self.levels[stride][1]


def validate_base(base: GridSpec) -> None:
    for n in (base.height, base.width):
        if n % 14 or n % 8:
            raise ValueError(f"base resolution {n} must be divisible by 14 and by 8")


class FeatureField:
    """Smooth band-limited random field over the plane, evaluated anywhere.

    Channels come in quadrature pairs ``(cos(w.y + psi), sin(w.y + psi))``
    with one random plane-wave frequency per pair, so the feature norm is
    constant and the cosine similarity between two locations depends only on
    their displacement: ``sum_j cos(w_j . delta) / n_pairs``. That makes
    local correlation surfaces symmetric around the true match with no
    location-dependent fluctuations. ``freq_scale`` is the standard deviation
    of the frequency distribution, i.e. the inverse correlation length.
    """

    def __init__(self, feature_dim: int, seed: int, freq_scale: float = 3.2):
        if feature_dim < 4 or feature_dim % 2:
            raise ValueError("feature_dim must be even and at least 4")
        rng = np.random.default_rng(seed)
        pairs = feature_dim // 2
        self.freqs = rng.normal(0.0, freq_scale, (pairs, 2))
        self.phases = rng.uniform(0.0, 2.0 * np.pi, pairs)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        theta = pts @ self.freqs.T + self.phases
        out = np.empty((pts.shape[0], 2 * self.freqs.shape[0]))
        out[:, 0::2] = np.cos(theta)
        out[:, 1::2] = np.sin(theta)
        return out


def _pool(level1: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:  # a mean over 1 x 1 blocks is the identity
        return level1
    h, w, d = level1.shape
    return level1.reshape(h // factor, factor, w // factor, factor, d).mean(axis=(1, 3))


def synth_pyramid(
    scene: SceneSpec,
    base: GridSpec,
    feature_dim: int = 32,
    seed: int = 0,
    freq_scale: float = 3.2,
) -> tuple[FeaturePyramid, FeaturePyramid]:
    """Build matched source/target pyramids from one random feature field.

    Target features sample the field at target cell centers; source features
    sample it at each source cell's ground-truth warped location (defined even
    outside the extent, mimicking content that left the frame). Coarser levels
    average-pool the stride-1 level.
    """
    if feature_dim < 4:
        raise ValueError("feature_dim must be at least 4")
    validate_base(base)
    field = FeatureField(feature_dim, seed, freq_scale=freq_scale)
    centers = base.cell_centers()
    tgt_level1 = field(centers).reshape(base.height, base.width, feature_dim)
    src_level1 = field(scene.map_points(centers)).reshape(base.height, base.width, feature_dim)
    levels_a = {}
    levels_b = {}
    for stride in REFINER_STRIDES:
        grid = GridSpec(base.height // stride, base.width // stride)
        levels_a[stride] = (grid, _pool(src_level1, stride))
        levels_b[stride] = (grid, _pool(tgt_level1, stride))
    return FeaturePyramid(levels_a), FeaturePyramid(levels_b)


def correlation_windows(
    feats_a: np.ndarray,
    tgt_grid: GridSpec,
    feats_b: np.ndarray,
    coords: np.ndarray,
    window: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosine similarity of each query descriptor against a window of target cells.

    Query ``i`` (row ``i`` of the ``(n, d)`` ``feats_a``) is compared with the
    ``window x window`` target cells centred on the cell containing
    ``coords[i]``; ``feats_b`` holds one descriptor per ``tgt_grid`` cell in
    row-major order. Returns the ``(n, w, w)`` similarities, -1 where a window
    cell falls outside the extent, and the x and y centres of the window
    cells, virtual out-of-extent ones included, shaped ``(n, 1, w)`` and
    ``(n, w, 1)`` so that they broadcast against the similarities.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    feats_a = np.atleast_2d(np.asarray(feats_a, dtype=float))
    feats_b = np.asarray(feats_b, dtype=float).reshape(tgt_grid.n_cells, -1)
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    if feats_b.shape[1] != feats_a.shape[1] or coords.shape[0] != feats_a.shape[0]:
        raise ValueError("need one coordinate per query and features of one width")
    norm_a = np.linalg.norm(feats_a, axis=1)
    norm_b = np.linalg.norm(feats_b, axis=1)
    if np.any(norm_a == 0) or np.any(norm_b == 0):
        raise ValueError("pyramid features contain a zero-norm cell")

    r0, c0 = containing_cells(coords, tgt_grid)
    offs = np.arange(-(window // 2), window // 2 + 1)
    rr = r0[:, None, None] + offs[None, :, None]  # (n, w, 1)
    cc = c0[:, None, None] + offs[None, None, :]  # (n, 1, w)
    valid = (rr >= 0) & (rr < tgt_grid.height) & (cc >= 0) & (cc < tgt_grid.width)
    flat_idx = np.where(valid, rr * tgt_grid.width + cc, 0)

    sims = np.einsum("nd,nijd->nij", feats_a, feats_b[flat_idx]) / (
        norm_a[:, None, None] * norm_b[flat_idx]
    )
    win_x = EXTENT_MIN + (cc + 0.5) * tgt_grid.cell_width
    win_y = EXTENT_MIN + (rr + 0.5) * tgt_grid.cell_height
    return np.where(valid, sims, -1.0), win_x, win_y


def _logit(p: np.ndarray) -> np.ndarray:
    pc = np.clip(p, _LOGIT_EPS, 1.0 - _LOGIT_EPS)
    return np.log(pc) - np.log1p(-pc)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def upsample_warp(field: WarpField, new_grid: GridSpec) -> WarpField:
    """Bilinearly resample a warp (coords and certainty) onto another grid.

    The target map is resampled as a flow (target minus source position) and
    re-anchored at the new grid's cell centers. Inside the cell-center hull
    this is identical to resampling the coordinates directly (bilinear
    interpolation reproduces the linear anchor term exactly); at the clamped
    border it extends the local flow instead of freezing coordinates, so a
    uniform translation stays uniform after upsampling.

    Grid to grid, the interpolation is separable: the taps and fractions are
    computed once per new row and once per new column, each corner is one
    outer-indexed gather of the flow and certainty planes, and its weight is
    an outer product. The corners are summed in the order of the 4-tap
    :func:`bilinear_weights` form, so the result is bit-identical to it.
    """
    old = field.grid
    tc = field.target_coords
    planes = np.stack(
        [tc[..., 0] - old.axis_centers_x(), tc[..., 1] - old.axis_centers_y()[:, None], field.certainty]
    ).reshape(3, -1)
    new_x, new_y = new_grid.axis_centers_x(), new_grid.axis_centers_y()
    c0, c1, fx = _axis_taps(new_x, old.width)
    r0, r1, fy = _axis_taps(new_y, old.height)

    def corner(wy, rows, wx, cols):
        return np.multiply.outer(wy, wx) * np.take(planes, rows[:, None] * old.width + cols, axis=1)

    vals = (
        (corner(1 - fy, r0, 1 - fx, c0) + corner(1 - fy, r0, fx, c1)) + corner(fy, r1, 1 - fx, c0)
    ) + corner(fy, r1, fx, c1)
    return WarpField(
        new_grid,
        np.stack([vals[0] + new_x, vals[1] + new_y[:, None]], axis=-1),
        np.clip(vals[2], 0.0, 1.0),
    )


def analytic_refiner(
    state: WarpField,
    pyr_a: FeaturePyramid,
    pyr_b: FeaturePyramid,
    spec: RefinerSpec,
    temperature: float = 0.05,
) -> WarpField:
    """One correlation-softargmax refinement stage.

    ``state`` must already live on the stride's grid. With window 0 the warp
    passes through unchanged. Otherwise each cell's correlation patch around
    the current target estimate is softargmax-decoded into a corrected target
    coordinate (window cells keep their lattice coordinates, including virtual
    out-of-extent ones, whose similarity of -1 suppresses them), and the
    certainty logit grows by the window's maximum correlation.
    """
    grid = pyr_a.grid(spec.stride)
    if state.grid != grid:
        raise ValueError(f"state grid {state.grid} does not match stride {spec.stride} grid {grid}")
    if spec.corr_window == 0:
        return state
    if temperature <= 0:
        raise ValueError("softargmax temperature must be positive")
    sims, win_x, win_y = correlation_windows(
        pyr_a.features(spec.stride).reshape(grid.n_cells, -1),
        pyr_b.grid(spec.stride),
        pyr_b.features(spec.stride),
        state.target_coords.reshape(-1, 2),
        spec.corr_window,
    )
    n = sims.shape[0]
    peak = sims.reshape(n, -1).max(axis=1)
    soft = np.exp((sims - peak[:, None, None]) / temperature)
    soft /= soft.reshape(n, -1).sum(axis=1)[:, None, None]
    new_x = (soft * win_x).reshape(n, -1).sum(axis=1)
    new_y = (soft * win_y).reshape(n, -1).sum(axis=1)

    new_cert = _sigmoid(_logit(state.certainty.reshape(-1)) + peak)
    return WarpField(
        grid,
        np.stack([new_x, new_y], axis=-1).reshape(grid.height, grid.width, 2),
        new_cert.reshape(grid.height, grid.width),
    )


def run_cascade(
    pyr_a: FeaturePyramid,
    pyr_b: FeaturePyramid,
    coarse_warp: WarpField,
    temperature: float = 0.05,
    refiners: tuple[RefinerSpec, ...] | None = None,
) -> tuple[WarpField, list[tuple[int, WarpField]]]:
    """Refine a stride-14 coarse warp down to stride 1.

    Returns the final warp and the per-stage outputs in refinement order.
    """
    if refiners is None:
        refiners = default_refiners()
    if coarse_warp.grid != pyr_a.grid(refiners[0].stride):
        raise ValueError("coarse warp must live on the first refiner's grid")
    state = coarse_warp
    stages: list[tuple[int, WarpField]] = []
    for spec in refiners:
        grid = pyr_a.grid(spec.stride)
        if state.grid != grid:
            state = upsample_warp(state, grid)
        state = analytic_refiner(state, pyr_a, pyr_b, spec, temperature=temperature)
        stages.append((spec.stride, state))
    return state, stages


def scene_true_warp(scene: SceneSpec, grid: GridSpec) -> WarpField:
    """Ground-truth warp of a scene; certainty 1 where the target is visible."""
    centers = grid.cell_centers()
    mapped = scene.map_points(centers)
    cert = in_extent(mapped).astype(float)
    return WarpField(
        grid,
        mapped.reshape(grid.height, grid.width, 2),
        cert.reshape(grid.height, grid.width),
    )


def matchable_mask(scene: SceneSpec, grid: GridSpec) -> np.ndarray:
    """Boolean (H, W) mask of source cells whose true target is in the extent."""
    return in_extent(scene.map_points(grid.cell_centers())).reshape(grid.height, grid.width)


def warp_epe(pred: WarpField, scene: SceneSpec, matchable_only: bool = True) -> float:
    """Mean end-point error against the scene warp, in extent units."""
    return stage_epes([(1, pred)], scene, matchable_only=matchable_only)[0][1]


def stage_epes(
    stages: list[tuple[int, WarpField]], scene: SceneSpec, matchable_only: bool = True
) -> list[tuple[int, float]]:
    """Per-stage EPE at the base resolution, in extent units.

    Mean errors over grids of different sizes are not comparable, so each
    stage's output is first carried to the finest grid through the same
    bilinear upsampling chain the cascade itself uses. A window-0 stage
    leaves the upsampled warp untouched and therefore preserves this EPE
    exactly. Every stage ends on the last stage's grid, so the scene's truth
    and matchable mask are mapped once, there.
    """
    if not stages:
        return []
    grids = [w.grid for _, w in stages]
    true = scene.map_points(grids[-1].cell_centers())
    keep = in_extent(true) if matchable_only else np.ones(len(true), dtype=bool)
    if not np.any(keep):
        raise ValueError("no matchable cells to evaluate")
    out = []
    for i, (stride, field) in enumerate(stages):
        for grid in grids[i + 1 :]:
            field = upsample_warp(field, grid)
        err = np.linalg.norm(field.target_coords.reshape(-1, 2) - true, axis=1)
        out.append((stride, float(err[keep].mean())))
    return out
