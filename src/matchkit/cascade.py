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
pyramid on separate workers, and ``analytic_refiner`` gathers and decodes
one block of source rows per worker. numpy releases the interpreter lock
inside that work, each task computes what the serial code computes on
disjoint data, and the results are bit-identical to the serial path. Work
too small to repay a thread runs serially (``PARALLEL_MIN_ELEMENTS``).

Real encoder features are out of scope at desk scale; ``synth_pyramid``
builds smooth band-limited random feature fields (per affine region, row
phasors times column phasors) whose ground-truth warp is known exactly, which
makes end-to-end refinement accuracy measurable.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .grids import EXTENT_MIN, GridSpec, WarpField, _axis_taps, bilinear, bilinear_taps, containing_cells, in_extent
from .scalespace import AffineRegion, SceneSpec, identity_scene

# Refiner strides, coarse to fine, each with its correlation window (0: pass-through).
CORR_WINDOWS = {14: 15, 8: 7, 4: 5, 2: 0, 1: 0}
FREQ_SCALE = 3.2  # std of the feature field's frequencies: its inverse correlation length

# Smallest task, in array elements, worth a pool thread. Below it a thread
# costs more than it saves: its own malloc arena raised the peak RSS of the
# all-base-56 `sparse-boundary` benchmark workload from 81 to 87 MB, and its
# ops got slower. Base-56 tasks stay below it (pyramid 0.1M elements, refiner
# stages at most 0.16M); base-224 ones are above (pyramid 1.6M, refiner row
# blocks 0.6M-1.3M on two CPUs).
PARALLEL_MIN_ELEMENTS = 1 << 18

_LOGIT_EPS = 1e-7

_executor = None  # the concurrent.futures.ThreadPoolExecutor, made (and its module imported) on first use
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
    from concurrent.futures import ThreadPoolExecutor, wait  # ~8 ms: paid by processes that use the pool
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
    deviation ``FREQ_SCALE``. A call evaluates scattered points, ``lattice``
    the cell centres of a grid; a phase ``w.y + psi`` that overflows is refused.
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
        _check_phases(theta, lambda: pts)
        out = np.empty((*theta.shape, 2))
        np.cos(theta, out=out[..., 0])
        np.sin(theta, out=out[..., 1])
        return out.reshape(theta.shape[0], -1)

    def lattice(self, region: AffineRegion, grid: GridSpec, out: np.ndarray, where: np.ndarray):
        """Write the field at ``A p + t``, ``p`` a ``grid`` cell centre, into complex ``out`` where ``where`` holds.

        A pair's phase ``(A^T w).p + w.t + psi`` is affine in ``p``, so it is a row phasor times a column phasor:
        ``H + W`` cos/sin calls per pair, not ``H * W``. ``out.view(float)`` is the call's ``(H, W, D)``, to a few ulp.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # refused below if a cell uses them
            freqs = self.freqs @ region.linear  # row j: (A^T w_j)^T
            theta_x = np.multiply.outer(grid.axis_centers_x(), freqs[:, 0]) + (self.freqs @ region.offset + self.phases)
            theta_y = np.multiply.outer(grid.axis_centers_y(), freqs[:, 1])
            row, col = (np.cos(theta) + 1j * np.sin(theta) for theta in (theta_x, theta_y))
        used = np.concatenate([theta_x[where.any(axis=0)], theta_y[where.any(axis=1)]])
        _check_phases(used, lambda: region.map_points(grid.cell_centers()[where.ravel()]))
        np.multiply(col[:, None], row, out=out, where=where[..., None])


def _check_phases(theta: np.ndarray, points: Callable[[], np.ndarray]) -> None:
    if not np.all(np.isfinite(theta)):
        with np.errstate(over="ignore", invalid="ignore"):
            raise ValueError(f"feature field phases are not finite at points of magnitude {np.abs(points()).max():.3g}")


def _pool(level: np.ndarray, factor: int) -> np.ndarray:
    """Means of ``factor x factor`` blocks: the block's cells summed in row-major order, then divided by factor^2."""
    total = level[::factor, ::factor].copy()
    for k in range(1, factor * factor):
        total += level[k // factor :: factor, k % factor :: factor]
    total /= factor * factor
    return total


def synth_pyramid(
    scene: SceneSpec,
    base: GridSpec,
    feature_dim: int = 32,
    seed: int = 0,
) -> tuple[FeaturePyramid, FeaturePyramid]:
    """Build matched source/target pyramids from one random feature field.

    Target features sample the field at target cell centers; source features
    sample it at each source cell's ground-truth warped location (defined even
    outside the extent, mimicking content that left the frame), evaluated
    region by region with ``FeatureField.lattice``. Each coarser level pools
    the coarsest finer level whose stride divides its own (2 from 1, 4 from 2,
    8 from 4, 14 from 2): a block mean of the stride-1 level up to rounding.
    The two pyramids are built on separate pool workers when they are large
    enough (see ``_parallel_map``).
    """
    validate_base(base)
    field = FeatureField(feature_dim, seed)
    centers = base.cell_centers()

    def build(spec: SceneSpec) -> FeaturePyramid:
        region = spec.region_index(centers).reshape(base.height, base.width)
        level1 = np.empty((base.height, base.width, feature_dim // 2), complex)
        for i, r in enumerate(spec.regions):
            field.lattice(r, base, level1, region == i)
        levels = {1: level1.view(float)}  # (H, W, D): cos and sin interleaved per pair
        for s in sorted(CORR_WINDOWS)[1:]:
            parent = max(t for t in levels if s % t == 0)
            levels[s] = _pool(levels[parent], s // parent)
        return FeaturePyramid({s: levels[s] for s in CORR_WINDOWS})

    return tuple(_parallel_map(build, [scene, identity_scene()], base.n_cells * feature_dim))


def _logit(p: np.ndarray) -> np.ndarray:
    pc = np.clip(p, _LOGIT_EPS, 1.0 - _LOGIT_EPS)
    return np.log(pc) - np.log1p(-pc)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _upsampled_coords(field: WarpField, new_grid: GridSpec):
    """``upsample_warp``'s target coordinates, and the lattice taps that gave them."""
    old, tc = field.grid, field.target_coords
    new_x, new_y = new_grid.axis_centers_x(), new_grid.axis_centers_y()[:, None]
    taps = bilinear_taps((old.height, old.width), new_x, new_y)
    flow_x, flow_y = tc[..., 0] - old.axis_centers_x(), tc[..., 1] - old.axis_centers_y()[:, None]
    return np.stack([bilinear(flow_x, taps) + new_x, bilinear(flow_y, taps) + new_y], axis=-1), taps


def upsample_warp(field: WarpField, new_grid: GridSpec) -> WarpField:
    """Bilinearly resample a warp (coords and certainty) onto another grid.

    The target map is resampled as a flow (target minus source position) and
    re-anchored at the new grid's cell centers. Inside the cell-center hull
    this is identical to resampling the coordinates directly (bilinear
    interpolation reproduces the linear anchor term exactly); at the clamped
    border it extends the local flow instead of freezing coordinates, so a
    uniform translation stays uniform after upsampling. The x-flow, y-flow
    and certainty planes share one set of lattice taps.
    """
    coords, taps = _upsampled_coords(field, new_grid)
    return WarpField(new_grid, coords, np.clip(bilinear(field.certainty, taps), 0.0, 1.0))


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
    unchanged. Otherwise each cell is compared, by cosine similarity, with
    the ``window x window`` target cells centred on the cell containing its
    current target estimate, and that patch is softargmax-decoded into a
    corrected target coordinate. Window cells keep their lattice
    coordinates, including virtual out-of-extent ones, whose similarity of
    -1 suppresses them. The certainty logit grows by the window's maximum
    correlation. One block of source rows per CPU is gathered and decoded
    on the thread pool (see ``_parallel_map``).
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
    tgt = pyr_b.grid(stride)
    feats_a = pyr_a.features(stride).reshape(grid.n_cells, -1)
    feats_b = pyr_b.features(stride).reshape(tgt.n_cells, -1)
    if feats_b.shape[1] != feats_a.shape[1]:
        raise ValueError("source and target features must have one width")
    norm_a = np.linalg.norm(feats_a, axis=1)
    norm_b = np.linalg.norm(feats_b, axis=1)
    if np.any(norm_a == 0) or np.any(norm_b == 0):
        raise ValueError("pyramid features contain a zero-norm cell")
    coords = state.target_coords.reshape(-1, 2)
    offs = np.arange(-(window // 2), window // 2 + 1)

    def refine(rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r0, c0 = containing_cells(coords[rows], tgt)
        rr = r0[:, None, None] + offs[None, :, None]  # (n, w, 1)
        cc = c0[:, None, None] + offs[None, None, :]  # (n, 1, w)
        valid = (rr >= 0) & (rr < tgt.height) & (cc >= 0) & (cc < tgt.width)
        flat_idx = np.where(valid, rr * tgt.width + cc, 0)
        sims = np.einsum("nd,nijd->nij", feats_a[rows], feats_b[flat_idx]) / (
            norm_a[rows, None, None] * norm_b[flat_idx]
        )
        sims = np.where(valid, sims, -1.0)
        peak = sims.max(axis=(1, 2))
        soft = np.exp((sims - peak[:, None, None]) / temperature)
        soft /= soft.reshape(len(soft), -1).sum(axis=1)[:, None, None]
        win_x = EXTENT_MIN + (cc + 0.5) * tgt.cell_width
        win_y = EXTENT_MIN + (rr + 0.5) * tgt.cell_height
        new_x, new_y = ((soft * win).reshape(len(soft), -1).sum(axis=1) for win in (win_x, win_y))
        return new_x, new_y, peak

    # Rows are independent, so the blocks concatenate to exactly the single-block result.
    n, parts = grid.n_cells, _usable_cpus()
    blocks = _parallel_map(
        refine,
        [slice(n * k // parts, n * (k + 1) // parts) for k in range(parts)],
        -(-n // parts) * window**2 * feats_a.shape[1],
    )
    new_x, new_y, peak = (np.concatenate(pieces) for pieces in zip(*blocks))
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


def _axis_resampler(sizes: Sequence[int]) -> np.ndarray:
    """``upsample_warp``'s 2-tap ``_axis_taps`` hops along an axis of ``sizes[0]``, ``sizes[1]``, ... cells, as one matrix."""
    out = np.eye(sizes[0])
    for old, new in zip(sizes, sizes[1:]):
        i0, i1, f = _axis_taps(GridSpec(1, new).axis_centers_x(), old)
        out = (1 - f)[:, None] * out[i0] + f[:, None] * out[i1]
    return out


def stage_epes(stages: list[tuple[int, WarpField]], scene: SceneSpec) -> list[tuple[int, float]]:
    """Per-stage EPE over the matchable cells at the base resolution, in extent units.

    Mean errors over grids of different sizes are not comparable, so each
    stage's output is carried to the last stage's grid, where the scene's
    truth and matchable mask are mapped once. The first hop samples the two
    flow planes as ``upsample_warp`` does. When it has the next stage's target
    coordinates, as before a window-0 (pass-through) stage, the rest of the
    chain is the next stage's, so that EPE is reused, exactly. Otherwise the
    rest of the chain, linear in the flow and separable, is applied as one
    matrix per axis, ``M_y F M_x^T``: equal up to rounding.
    """
    if not stages:
        return []
    grids = [w.grid for _, w in stages]
    centers = grids[-1].cell_centers()
    true = scene.map_points(centers)
    keep = in_extent(true)
    if not np.any(keep):
        raise ValueError("no matchable cells to evaluate")
    epes: list[float] = []  # last stage first
    for i in reversed(range(len(stages))):
        coords = stages[i][1].target_coords
        if i + 1 < len(stages):
            coords = _upsampled_coords(stages[i][1], grids[i + 1])[0]
            if np.array_equal(coords, stages[i + 1][1].target_coords):
                epes.append(epes[-1])  # the rest of the chain is the next stage's
                continue
        if i + 2 < len(stages):
            rest = grids[i + 1 :]
            my, mx = _axis_resampler([g.height for g in rest]), _axis_resampler([g.width for g in rest])
            flow = my @ np.moveaxis(coords - rest[0].cell_centers().reshape(coords.shape), -1, 0) @ mx.T
            coords = np.moveaxis(flow, 0, -1).reshape(-1, 2) + centers
        d = coords.reshape(-1, 2) - true
        err = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])  # np.linalg.norm's bits, without its slow length-2 sum
        epes.append(float(err[keep].mean()))
    return [(stride, e) for (stride, _), e in zip(stages, reversed(epes))]
