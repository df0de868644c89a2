"""Coarse-to-fine warp refinement over a feature pyramid.

A coarse warp estimated on the stride-14 grid is refined through strides
14 -> 8 -> 4 -> 2 -> 1. ``CORR_WINDOWS`` is the one table of those strides
and their correlation windows. Between stages the warp is upsampled
bilinearly to the finer grid; each stage then looks up a local correlation
patch around the current target estimate and applies a temperature
softargmax to produce a residual coordinate offset plus a certainty logit
increment (the window maximum). Strides 1 and 2 use window 0 and pass the
upsampled warp through.

Stages are strictly isolated: each consumes the previous stage's output as a
fixed input, so recomputing one stage never changes an earlier one.

Two steps split their array work over a thread pool with one worker per CPU
the process may use: ``synth_pyramid`` builds the source and the target
pyramid on separate workers, and ``correlation_windows`` gathers one block
of query rows per worker. numpy releases the interpreter lock inside that
work, each task computes what the serial code computes on disjoint data, and
the results are bit-identical to the serial path. Work too small to repay a
thread runs serially (``PARALLEL_MIN_ELEMENTS``).

Real encoder features are out of scope at desk scale; ``synth_pyramid``
builds smooth band-limited random feature fields whose ground-truth warp is
known exactly, which makes end-to-end refinement accuracy measurable.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .grids import EXTENT_MIN, GridSpec, WarpField, _axis_taps, containing_cells, in_extent
from .scalespace import SceneSpec

# Refiner strides, coarse to fine, each with its correlation window (0: pass-through).
CORR_WINDOWS = {14: 15, 8: 7, 4: 5, 2: 0, 1: 0}
FREQ_SCALE = 3.2  # std of the feature field's frequencies: its inverse correlation length

# Smallest task, in array elements, worth a pool thread. Below it a thread
# costs more than it saves: its own malloc arena raised the peak RSS of the
# all-base-56 `sparse-boundary` benchmark workload from 81 to 87 MB, and its
# ops got slower. Base-56 tasks stay below it (pyramid 0.1M elements, gathers
# at most 0.16M); base-224 ones are above (pyramid 1.6M, gather blocks
# 0.6M-1.3M on two CPUs).
PARALLEL_MIN_ELEMENTS = 1 << 18

_LOGIT_EPS = 1e-7

_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()
_in_worker = threading.local()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _mark_worker() -> None:
    _in_worker.active = True


def _forget_executor() -> None:
    """A forked child inherits the executor object but none of its threads."""
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


def _parallel_map(fn: Callable, items: Sequence, elements: int) -> list:
    """``[fn(x) for x in items]``, on the shared thread pool when that can pay.

    ``elements`` is the size of one task in array elements. The tasks run
    serially when the process may use one CPU, when there is one task, when
    a task is smaller than ``PARALLEL_MIN_ELEMENTS``, or when the caller is
    itself a pool worker (a nested map that waited on the pool could
    deadlock). An exception from a task is raised here, that of the first
    failing task in input order, after every task has finished.
    """
    global _executor
    cpus = _usable_cpus()
    nested = getattr(_in_worker, "active", False)
    if cpus < 2 or len(items) < 2 or elements < PARALLEL_MIN_ELEMENTS or nested:
        return [fn(item) for item in items]
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(cpus, thread_name_prefix="matchkit", initializer=_mark_worker)
        executor = _executor
    futures = [executor.submit(fn, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-stride ``(H, W, D)`` feature arrays sharing one base resolution."""

    levels: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("pyramid has no levels")
        if len({(s * f.shape[0], s * f.shape[1]) for s, f in self.levels.items()}) != 1:
            raise ValueError("pyramid level grids are inconsistent with a common base")

    def grid(self, stride: int) -> GridSpec:
        return GridSpec(*self.levels[stride].shape[:2])

    def features(self, stride: int) -> np.ndarray:
        return self.levels[stride]


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
    location-dependent fluctuations. The frequencies are drawn with standard
    deviation ``FREQ_SCALE``. Points so far out that a phase ``w.y + psi``
    overflows are refused.
    """

    def __init__(self, feature_dim: int, seed: int):
        if feature_dim < 4 or feature_dim % 2:
            raise ValueError("feature_dim must be even and at least 4")
        rng = np.random.default_rng(seed)
        pairs = feature_dim // 2
        self.freqs = rng.normal(0.0, FREQ_SCALE, (pairs, 2))
        self.phases = rng.uniform(0.0, 2.0 * np.pi, pairs)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            theta = pts @ self.freqs.T
            theta += self.phases
        if not np.all(np.isfinite(theta)):
            raise ValueError(
                f"feature field phases are not finite at points of magnitude {np.abs(pts).max():.3g}"
            )
        out = np.empty((*theta.shape, 2))
        np.cos(theta, out=out[..., 0])
        np.sin(theta, out=out[..., 1])
        return out.reshape(theta.shape[0], -1)


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
) -> tuple[FeaturePyramid, FeaturePyramid]:
    """Build matched source/target pyramids from one random feature field.

    Target features sample the field at target cell centers; source features
    sample it at each source cell's ground-truth warped location (defined even
    outside the extent, mimicking content that left the frame). Coarser levels
    average-pool the stride-1 level. The two pyramids are built on separate
    pool workers when they are large enough (see ``_parallel_map``).
    """
    validate_base(base)
    field = FeatureField(feature_dim, seed)
    centers = base.cell_centers()

    def build(pts: np.ndarray) -> FeaturePyramid:
        level1 = field(pts).reshape(base.height, base.width, feature_dim)
        return FeaturePyramid({s: _pool(level1, s) for s in CORR_WINDOWS})

    src, tgt = _parallel_map(build, [scene.map_points(centers), centers], base.n_cells * feature_dim)
    return src, tgt


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
    offs = np.arange(-(window // 2), window // 2 + 1)

    def gather(rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r0, c0 = containing_cells(coords[rows], tgt_grid)
        rr = r0[:, None, None] + offs[None, :, None]  # (n, w, 1)
        cc = c0[:, None, None] + offs[None, None, :]  # (n, 1, w)
        valid = (rr >= 0) & (rr < tgt_grid.height) & (cc >= 0) & (cc < tgt_grid.width)
        flat_idx = np.where(valid, rr * tgt_grid.width + cc, 0)
        sims = np.einsum("nd,nijd->nij", feats_a[rows], feats_b[flat_idx]) / (
            norm_a[rows, None, None] * norm_b[flat_idx]
        )
        win_x = EXTENT_MIN + (cc + 0.5) * tgt_grid.cell_width
        win_y = EXTENT_MIN + (rr + 0.5) * tgt_grid.cell_height
        return np.where(valid, sims, -1.0), win_x, win_y

    # One block of query rows per CPU; rows are independent, so the blocks
    # concatenate to exactly the single-block result.
    n, parts = feats_a.shape[0], _usable_cpus()
    blocks = _parallel_map(
        gather,
        [slice(n * k // parts, n * (k + 1) // parts) for k in range(parts)],
        -(-n // parts) * window**2 * feats_a.shape[1],
    )
    return tuple(np.concatenate(pieces) for pieces in zip(*blocks))


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
    stride: int,
    temperature: float = 0.05,
) -> WarpField:
    """One correlation-softargmax refinement stage at ``stride``.

    ``state`` must already live on the stride's grid. The stride's window
    comes from ``CORR_WINDOWS``; with window 0 the warp passes through
    unchanged. Otherwise each cell's correlation patch around the current
    target estimate is softargmax-decoded into a corrected target
    coordinate. Window cells keep their lattice coordinates, including
    virtual out-of-extent ones, whose similarity of -1 suppresses them. The
    certainty logit grows by the window's maximum correlation.
    """
    if stride not in CORR_WINDOWS:
        raise ValueError(f"stride must be one of {tuple(CORR_WINDOWS)}, got {stride}")
    grid = pyr_a.grid(stride)
    if state.grid != grid:
        raise ValueError(f"state grid {state.grid} does not match stride {stride} grid {grid}")
    window = CORR_WINDOWS[stride]
    if window == 0:
        return state
    if temperature <= 0:
        raise ValueError("softargmax temperature must be positive")
    sims, win_x, win_y = correlation_windows(
        pyr_a.features(stride).reshape(grid.n_cells, -1),
        pyr_b.grid(stride),
        pyr_b.features(stride),
        state.target_coords.reshape(-1, 2),
        window,
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
) -> tuple[WarpField, list[tuple[int, WarpField]]]:
    """Refine a stride-14 coarse warp down to stride 1, through ``CORR_WINDOWS``.

    Returns the final warp and the per-stage outputs in refinement order.
    """
    if coarse_warp.grid != pyr_a.grid(next(iter(CORR_WINDOWS))):
        raise ValueError("coarse warp must live on the first refiner's grid")
    state = coarse_warp
    stages: list[tuple[int, WarpField]] = []
    for stride in CORR_WINDOWS:
        grid = pyr_a.grid(stride)
        if state.grid != grid:
            state = upsample_warp(state, grid)
        state = analytic_refiner(state, pyr_a, pyr_b, stride, temperature=temperature)
        stages.append((stride, state))
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


def stage_epes(stages: list[tuple[int, WarpField]], scene: SceneSpec) -> list[tuple[int, float]]:
    """Per-stage EPE over the matchable cells at the base resolution, in extent units.

    Mean errors over grids of different sizes are not comparable, so each
    stage's output is first carried to the finest grid through the same
    bilinear upsampling chain the cascade itself uses. Every stage ends on
    the last stage's grid, so the scene's truth and matchable mask are
    mapped once, there. When a stage's one-step upsample has the next
    stage's target coordinates, as it does before a window-0 (pass-through)
    stage, the rest of its chain is the next stage's (the upsampled
    coordinates do not depend on the certainty), so it reuses that stage's
    EPE instead of upsampling again; the comparison keeps this exact for any
    stage list.
    """
    if not stages:
        return []
    grids = [w.grid for _, w in stages]
    true = scene.map_points(grids[-1].cell_centers())
    keep = in_extent(true)
    if not np.any(keep):
        raise ValueError("no matchable cells to evaluate")
    epes: list[float] = []  # last stage first
    for i in reversed(range(len(stages))):
        field = stages[i][1]
        if i + 1 < len(stages):
            field = upsample_warp(field, grids[i + 1])
            if np.array_equal(field.target_coords, stages[i + 1][1].target_coords):
                epes.append(epes[-1])  # the rest of the chain is the next stage's
                continue
            for grid in grids[i + 2 :]:
                field = upsample_warp(field, grid)
        err = np.linalg.norm(field.target_coords.reshape(-1, 2) - true, axis=1)
        epes.append(float(err[keep].mean()))
    return [(stride, e) for (stride, _), e in zip(stages, reversed(epes))]
