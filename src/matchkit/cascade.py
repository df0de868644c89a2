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

Real encoder features are out of scope at desk scale; ``synth_pyramid``
builds smooth band-limited random feature fields (per affine region, row
phasors times column phasors) whose ground-truth warp is known exactly, which
makes end-to-end refinement accuracy measurable. Its pyramids store only the
levels a refining stage reads; ``synth_levels`` builds any strides' levels,
each straight from the regions' per-axis phasors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Mapping

import numpy as np

from .grids import EXTENT_MIN, GridSpec, WarpField, _axis_taps, containing_cells, in_extent
from .scalespace import AffineRegion, SceneSpec, identity_scene

# Refiner strides, coarse to fine, each with its correlation window (0: pass-through).
CORR_WINDOWS = {14: 15, 8: 7, 4: 5, 2: 0, 1: 0}
FREQ_SCALE = 3.2  # std of the feature field's frequencies: its inverse correlation length
_TEMPERATURE = 0.05  # default softargmax temperature of every refining stage

_LOGIT_EPS = 1e-7


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-stride ``(H, W, D)`` feature arrays sharing one base resolution.

    A stride's grid is the common base of the arrays divided by the stride.
    ``grid`` serves every stride of ``CORR_WINDOWS`` whether stored or not,
    since a pass-through stage reads no features; ``features`` only stored
    ones.
    """

    levels: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        bases = {(s * f.shape[0], s * f.shape[1]) for s, f in self.levels.items()}
        if not bases:
            raise ValueError("pyramid stores no levels")
        if len(bases) != 1:
            raise ValueError("pyramid level grids are inconsistent with a common base")
        object.__setattr__(self, "_base", bases.pop())

    def grid(self, stride: int) -> GridSpec:
        if stride not in self.levels and stride not in CORR_WINDOWS:
            raise KeyError(stride)
        return GridSpec(self._base[0] // stride, self._base[1] // stride)

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
    deviation ``FREQ_SCALE``. A call evaluates scattered points, ``phasors``
    the per-axis factors of the field on a grid's cell centres; a phase
    ``w.y + psi`` that overflows is refused.
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

    def phasors(self, region: AffineRegion, grid: GridSpec, where: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row phasors ``(W, pairs)`` and column phasors ``(H, pairs)`` of the field at ``A p + t``.

        ``p`` runs over the cell centres of ``grid``. A pair's phase ``(A^T w).p + w.t + psi`` is affine in ``p``,
        so at cell ``(i, k)`` the pair's ``cos + i sin`` is ``col[i] * row[k]``: ``H + W`` cos/sin calls per pair,
        not ``H * W``. A non-finite phase is refused where a cell of the ``(H, W)`` mask ``where`` uses it.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # refused below if a cell uses them
            freqs = self.freqs @ region.linear  # row j: (A^T w_j)^T
            theta_x = np.multiply.outer(grid.axis_centers_x(), freqs[:, 0]) + (self.freqs @ region.offset + self.phases)
            theta_y = np.multiply.outer(grid.axis_centers_y(), freqs[:, 1])
            row, col = (np.cos(theta) + 1j * np.sin(theta) for theta in (theta_x, theta_y))
        used = np.concatenate([theta_x[where.any(axis=0)], theta_y[where.any(axis=1)]])
        _check_phases(used, lambda: region.map_points(grid.cell_centers()[where.reshape(-1)]))
        return row, col


def _check_phases(theta: np.ndarray, points: Callable[[], np.ndarray]) -> None:
    if not np.all(np.isfinite(theta)):
        with np.errstate(over="ignore", invalid="ignore"):
            raise ValueError(f"feature field phases are not finite at points of magnitude {np.abs(points()).max():.3g}")


def _levels(field: FeatureField, scene: SceneSpec, base: GridSpec, strides: Collection[int]) -> dict[int, np.ndarray]:
    """The field's ``(H, W, D)`` block means over ``base`` at each stride, straight from per-axis phasors.

    A block wholly in region r is the mean of r's column phasors over its rows times the mean of r's row
    phasors over its columns; a block that straddles regions is the explicit mean of its cells, each the
    column x row product of its own region. Only stride 1 allocates a stride-1 array.
    """
    ids = scene.region_index(base.cell_centers()).reshape(base.height, base.width)
    axes = [field.phasors(r, base, ids == i) for i, r in enumerate(scene.regions)]
    ys, xs = np.nonzero(ids[:, 1:] != ids[:, :-1])  # cell (y, x) differs from (y, x + 1)
    yd, xd = np.nonzero(ids[1:] != ids[:-1])  # cell (y, x) differs from (y + 1, x)
    rows, cols = (np.stack(a) for a in zip(*axes))  # (regions, W, pairs), (regions, H, pairs)
    out = {}
    for s in strides:
        first = ids[::s, ::s]  # each block's first cell
        h, w = first.shape
        pure = np.ones((h, w), bool)  # a block straddles when two adjacent cells in it differ
        cut = (xs + 1) % s > 0  # both cells in one block
        pure[ys[cut] // s, xs[cut] // s] = False
        cut = (yd + 1) % s > 0
        pure[yd[cut] // s, xd[cut] // s] = False
        level = np.empty((h, w, field.phases.size), complex)
        with np.errstate(over="ignore", invalid="ignore"):  # phases no cell uses may be non-finite
            for i, (row, col) in enumerate(axes):
                col_mean, row_mean = col.reshape(h, s, -1).mean(axis=1), row.reshape(w, s, -1).mean(axis=1)
                np.multiply(col_mean[:, None], row_mean, out=level, where=(pure & (first == i))[..., None])
        bi, bk = np.nonzero(~pure)
        r = bi[:, None, None] * s + np.arange(s)[:, None]  # (n, s, 1): the rows of each straddling block
        c = bk[:, None, None] * s + np.arange(s)  # (n, 1, s): its columns
        reg = ids[r, c]
        level[bi, bk] = (cols[reg, r] * rows[reg, c]).mean(axis=(1, 2))
        out[s] = level.view(float)  # cos and sin interleaved per pair
    return out


def synth_levels(
    scene: SceneSpec,
    base: GridSpec,
    strides: Collection[int],
    feature_dim: int = 32,
    seed: int = 0,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Matched source/target ``(H, W, D)`` levels at ``strides``, from one random feature field.

    Target features sample the field at target cell centers; source features
    sample it at each source cell's ground-truth warped location (defined even
    outside the extent, mimicking content that left the frame). Every level
    is the block mean of that stride-1 field, computed by ``_levels`` from each
    region's per-axis phasors (``FeatureField.phasors``), to a few ulp. A
    level does not depend on which other strides are asked for.
    """
    validate_base(base)
    field = FeatureField(feature_dim, seed)
    return _levels(field, scene, base, strides), _levels(field, identity_scene(), base, strides)


def synth_pyramid(
    scene: SceneSpec,
    base: GridSpec,
    feature_dim: int = 32,
    seed: int = 0,
) -> tuple[FeaturePyramid, FeaturePyramid]:
    """Source/target pyramids of ``synth_levels`` at the strides a refining stage reads (14, 8 and 4).

    That is 1.07 MB per pyramid at base 224 and D = 32, instead of 17.1 MB
    for all five strides.
    """
    stored = [s for s, window in CORR_WINDOWS.items() if window]
    levels_a, levels_b = synth_levels(scene, base, stored, feature_dim, seed)
    return FeaturePyramid(levels_a), FeaturePyramid(levels_b)


def _logit(p: np.ndarray) -> np.ndarray:
    pc = np.clip(p, _LOGIT_EPS, 1.0 - _LOGIT_EPS)
    return np.log(pc) - np.log1p(-pc)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _blend(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``(1 - f)·a + f·b``, computed in place in the fresh gathers ``a`` and ``b``."""
    a *= 1 - f
    b *= f
    a += b
    return a


def _hop(old: GridSpec, new: GridSpec, x: np.ndarray, y: np.ndarray, *values: np.ndarray) -> np.ndarray:
    """Bilinearly carry target coordinates ``x``, ``y`` (and value planes) from ``old``'s cell centres to ``new``'s.

    The coordinates travel as a flow (target minus source position) and are
    re-anchored at the new centres. All planes are stacked and share each
    axis's two ``_axis_taps`` taps, computed once; rows are blended first,
    then columns, each as ``(1 - f)·a + f·b``. Returns the ``2 + len(values)``
    planes on ``new``, stacked.
    """
    r0, r1, fy = _axis_taps(new.axis_centers_y(), old.height)
    c0, c1, fx = _axis_taps(new.axis_centers_x(), old.width)
    planes = np.stack([x - old.axis_centers_x(), y - old.axis_centers_y()[:, None], *values])
    rows = _blend(np.take(planes, r0, axis=-2), np.take(planes, r1, axis=-2), fy[:, None])
    out = _blend(np.take(rows, c0, axis=-1), np.take(rows, c1, axis=-1), fx)
    out[0] += new.axis_centers_x()
    out[1] += new.axis_centers_y()[:, None]
    return out


def upsample_warp(field: WarpField, new_grid: GridSpec) -> WarpField:
    """Bilinearly resample a warp (coords and certainty) onto another grid.

    The target map is resampled as a flow (target minus source position) and
    re-anchored at the new grid's cell centers. Inside the cell-center hull
    this is identical to resampling the coordinates directly (bilinear
    interpolation reproduces the linear anchor term exactly); at the clamped
    border it extends the local flow instead of freezing coordinates, so a
    uniform translation stays uniform after upsampling. The x-flow, y-flow
    and certainty planes go through one separable hop (``_hop``).
    """
    tc = field.target_coords
    x, y, cert = _hop(field.grid, new_grid, tc[..., 0], tc[..., 1], field.certainty)
    return WarpField(new_grid, np.stack([x, y], axis=-1), np.clip(cert, 0.0, 1.0))


def analytic_refiner(
    state: WarpField,
    pyr_a: FeaturePyramid,
    pyr_b: FeaturePyramid,
    stride: int,
    temperature: float = _TEMPERATURE,
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
    correlation.

    Both sides are normalized once. Each source row is one gemm against
    its target-row band (every target row its windows touch), from which
    each window's entries are picked.
    """
    if stride not in CORR_WINDOWS:
        raise ValueError(f"stride must be one of {tuple(CORR_WINDOWS)}, got {stride}")
    grid = pyr_a.grid(stride)
    if state.grid != grid:
        raise ValueError(f"state grid {state.grid} does not match stride {stride} grid {grid}")
    window = CORR_WINDOWS[stride]
    if window == 0:
        return state
    if not temperature > 0:  # also refuses NaN
        raise ValueError(f"softargmax temperature must be positive, got {temperature}")
    tgt = pyr_b.grid(stride)
    feats_a = pyr_a.features(stride).reshape(grid.n_cells, -1)
    feats_b = pyr_b.features(stride).reshape(tgt.n_cells, -1)
    if feats_b.shape[1] != feats_a.shape[1]:
        raise ValueError("source and target features must have one width")
    norm_a = np.linalg.norm(feats_a, axis=1)
    norm_b = np.linalg.norm(feats_b, axis=1)
    if np.any(norm_a == 0) or np.any(norm_b == 0):
        raise ValueError("pyramid features contain a zero-norm cell")
    fa, fb = feats_a / norm_a[:, None], feats_b / norm_b[:, None]
    r0, c0 = containing_cells(state.target_coords.reshape(-1, 2), tgt)
    offs = np.arange(-(window // 2), window // 2 + 1)
    rr = r0[:, None, None] + offs[None, :, None]  # (n, w, 1)
    cc = c0[:, None, None] + offs[None, None, :]  # (n, 1, w)
    by_row = r0.reshape(grid.height, grid.width)
    lows = np.maximum(by_row.min(axis=1) - window // 2, 0).tolist()  # each source row's target-row band
    highs = np.minimum(by_row.max(axis=1) + window // 2 + 1, tgt.height).tolist()
    # Each window's flat target cells, clamped into the extent (a band ends at the edge where a window leaves it).
    flat = (np.clip(rr, 0, tgt.height - 1) * tgt.width + np.clip(cc, 0, tgt.width - 1)).reshape(grid.n_cells, -1)
    sims = np.empty((grid.n_cells, window * window))
    for y, (lo, hi) in enumerate(zip(lows, highs)):
        cells = slice(y * grid.width, (y + 1) * grid.width)
        band = fa[cells] @ fb[lo * tgt.width : hi * tgt.width].T
        sims[cells] = np.take_along_axis(band, flat[cells] - lo * tgt.width, axis=1)
    sims = sims.reshape(-1, window, window)
    sims[(rr < 0) | (rr >= tgt.height) | (cc < 0) | (cc >= tgt.width)] = -1.0  # cells beyond the extent
    peak = sims.max(axis=(1, 2))
    with np.errstate(over="ignore"):  # a weight that overflows to -inf is exp's 0, its limit
        soft = np.exp((sims - peak[:, None, None]) / temperature)
    soft /= soft.reshape(len(soft), -1).sum(axis=1)[:, None, None]
    win_x = EXTENT_MIN + (cc + 0.5) * tgt.cell_width
    win_y = EXTENT_MIN + (rr + 0.5) * tgt.cell_height
    new_x, new_y = ((soft * win).reshape(len(soft), -1).sum(axis=1) for win in (win_x, win_y))
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
    temperature: float = _TEMPERATURE,
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
    stage's target coordinates are carried to the last stage's grid through
    the chain of ``_hop``s that ``upsample_warp`` would take (coordinates
    only), and compared there with the scene's truth, mapped once. Stages
    are walked from finest to coarsest: when a stage's first hop equals the
    next stage's coordinates bit for bit (a pass-through stage is its
    predecessor's first hop), the rest of its chain is the next stage's, so
    it takes that stage's EPE.
    """
    if not stages:
        return []
    grids = [w.grid for _, w in stages]
    true = scene.map_points(grids[-1].cell_centers())
    keep = in_extent(true)
    if not np.any(keep):
        raise ValueError("no matchable cells to evaluate")
    epes: list[float] = []  # finest stage first
    for i in reversed(range(len(stages))):
        tc = stages[i][1].target_coords
        x, y = tc[..., 0], tc[..., 1]
        if i + 1 < len(stages):
            x, y = _hop(grids[i], grids[i + 1], x, y)
            finer = stages[i + 1][1].target_coords
            if np.array_equal(x, finer[..., 0]) and np.array_equal(y, finer[..., 1]):
                epes.append(epes[-1])
                continue
            for old, new in zip(grids[i + 1 :], grids[i + 2 :]):
                x, y = _hop(old, new, x, y)
        dx, dy = x.reshape(-1) - true[:, 0], y.reshape(-1) - true[:, 1]
        err = np.sqrt(dx * dx + dy * dy)  # np.linalg.norm's bits, without its slow length-2 sum
        epes.append(float(err[keep].mean()))
    return [(stride, epe) for (stride, _), epe in zip(stages, reversed(epes))]
