import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matchkit import (
    GridSpec,
    build_anchor_grid,
    diffuse,
    entropy,
    fit_comparison,
    identity_scene,
    multimodality_sweep,
    normalize_joint,
    rasterize_scene,
    translation_scene,
    two_translation_scene,
)
from matchkit import scalespace
from matchkit.scalespace import (
    Mode,
    _axis_log_likelihood,
    _count_modes_stack,
    _gaussian_taps,
    _sweep,
    boundary_distances,
    find_modes,
)

# Fixed examples, no example database: every run checks the same cases.
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def test_rasterize_identity_is_diagonal():
    g = GridSpec(6, 6)
    j = rasterize_scene(identity_scene(), g, g)
    assert np.allclose(j.probs, np.eye(36) / 36)


def test_rasterize_translation_one_cell():
    g = GridSpec(8, 8)
    j = rasterize_scene(translation_scene((2 / 8, 0.0)), g, g)
    # Every source cell except the last column lands exactly one cell right.
    mat = j.probs
    for row in range(8):
        for col in range(7):
            s = row * 8 + col
            assert mat[s, row * 8 + col + 1] > 0
    # Last column maps outside the extent: dropped.
    for row in range(8):
        assert mat[row * 8 + 7].sum() == 0
    assert np.isclose(mat.sum(), 1.0)


def test_rasterize_two_regions_matches_per_cell_placement():
    src = GridSpec(10, 10)
    tgt = GridSpec(10, 10)
    scene = two_translation_scene((-0.2, 0.0), (0.2, 0.0))
    j = rasterize_scene(scene, src, tgt)
    expect = np.zeros((100, 100))
    centers = src.cell_centers()
    for s, (x, y) in enumerate(centers):
        ox = -0.2 if x < 0 else 0.2
        mx, my = x + ox, y
        if not (-1 <= mx <= 1 and -1 <= my <= 1):
            continue
        col = min(int((mx + 1) / (2 / 10)), 9)
        row = min(int((my + 1) / (2 / 10)), 9)
        expect[s, row * 10 + col] = 1.0
    expect /= expect.sum()
    assert np.allclose(j.probs, expect)


def region_index_oracle(spec, pts):
    """The first region holding each point, from the whole ``(regions, N)`` membership stack."""
    return np.argmax(np.stack([r.contains(pts) for r in spec.regions]), axis=0)


def test_region_index_matches_the_membership_argmax():
    from matchkit.scalespace import AffineRegion, SceneSpec, affine_scene

    strips = SceneSpec(
        tuple(
            AffineRegion(inside, np.eye(2), np.zeros(2))
            for inside in (
                lambda p: p[:, 1] < -0.3,
                lambda p: (p[:, 1] >= -0.3) & (p[:, 1] < 0.4),
                lambda p: p[:, 1] >= 0.4,
            )
        )
    )
    pts = np.concatenate([GridSpec(56, 56).cell_centers(), np.random.default_rng(3).uniform(-1, 1, (500, 2))])
    for spec, regions in [
        (affine_scene(np.eye(2), (0.1, 0.0)), 1),
        (two_translation_scene((-0.2, 0.0), (0.2, 0.05)), 2),
        (strips, 3),
    ]:
        ids = spec.region_index(pts)
        assert ids.dtype == np.intp and np.array_equal(ids, region_index_oracle(spec, pts))
        assert set(ids.tolist()) == set(range(regions))


def test_region_index_names_a_gap_or_an_overlap():
    from matchkit.scalespace import AffineRegion, SceneSpec

    pts = GridSpec(8, 8).cell_centers()
    for halves, message in [
        ((lambda p: p[:, 0] < -0.5, lambda p: p[:, 0] > 0.5), "regions do not cover the source extent"),
        ((lambda p: p[:, 0] < 0.5, lambda p: p[:, 0] > -0.5), "regions overlap"),
    ]:
        spec = SceneSpec(tuple(AffineRegion(h, np.eye(2), np.zeros(2)) for h in halves))
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec.region_index(pts)


def test_rasterize_rejects_broken_partitions():
    from matchkit.scalespace import AffineRegion, SceneSpec

    g = GridSpec(4, 4)
    overlapping = SceneSpec(
        (
            AffineRegion(lambda p: p[:, 0] < 0.5, np.eye(2), np.zeros(2)),
            AffineRegion(lambda p: p[:, 0] > -0.5, np.eye(2), np.zeros(2)),
        )
    )
    with pytest.raises(ValueError, match="overlap"):
        rasterize_scene(overlapping, g, g)
    gapped = SceneSpec(
        (
            AffineRegion(lambda p: p[:, 0] < -0.5, np.eye(2), np.zeros(2)),
            AffineRegion(lambda p: p[:, 0] > 0.5, np.eye(2), np.zeros(2)),
        )
    )
    with pytest.raises(ValueError, match="cover"):
        rasterize_scene(gapped, g, g)


def delta_joint(src, tgt, s_cell, t_cell):
    raw = np.zeros((src.n_cells, tgt.n_cells))
    raw[s_cell, t_cell] = 1.0
    return normalize_joint(raw, src, tgt)


def test_diffuse_zero_scale_is_identity():
    g = GridSpec(5, 5)
    rng = np.random.default_rng(40)
    j = normalize_joint(rng.uniform(0, 1, (25, 25)), g, g)
    d = diffuse(j, 0.0)
    assert d.sigma == 0.0
    assert np.array_equal(d.joint.probs, j.probs)


def test_diffuse_delta_marginals_match_1d_gaussian_table():
    g = GridSpec(16, 16)
    cell = 2 / 16
    s = cell  # one source-cell side
    center = 8 * 16 + 8
    q = diffuse(delta_joint(g, g, center, center), s)
    vol = q.joint.as_4d()

    # Independent 1D oracle: sampled Gaussian, truncated at 4s, normalized.
    radius = int(np.floor(4 * s / cell))
    offs = np.arange(-radius, radius + 1)
    table = np.exp(-0.5 * (offs * cell / s) ** 2)
    table /= table.sum()

    for axis in range(4):
        marg = vol.sum(axis=tuple(a for a in range(4) if a != axis))
        want = np.zeros(16)
        want[8 + offs] = table
        tv = 0.5 * np.abs(marg - want).sum()
        assert tv < 1e-6


def test_diffuse_conserves_mass():
    rng = np.random.default_rng(41)
    src, tgt = GridSpec(8, 8), GridSpec(8, 8)
    j = normalize_joint(rng.uniform(0, 1, (64, 64)), src, tgt)
    for s in (0.05, 0.1, 0.2):
        q = diffuse(j, s)
        assert abs(q.joint.probs.sum() - 1.0) < 1e-9


def test_diffuse_rejects_negative_scale():
    g = GridSpec(4, 4)
    j = delta_joint(g, g, 0, 0)
    with pytest.raises(ValueError):
        diffuse(j, -0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_diffuse_rejects_nonfinite_scale(bad):
    g = GridSpec(4, 4)
    with pytest.raises(ValueError, match="scale must be finite and nonnegative"):
        diffuse(delta_joint(g, g, 0, 0), bad)


def test_diffuse_entropy_monotone_in_scale():
    src = GridSpec(16, 16)
    base = rasterize_scene(two_translation_scene(), src, src)
    values = [entropy(diffuse(base, s).joint.probs) for s in (0.0, 0.05, 0.1, 0.2)]
    for lo, hi in zip(values[:-1], values[1:]):
        assert hi >= lo - 1e-9


def strided_convolve_axis(arr, taps, axis):
    """Oracle: every tap of the kernel, added in order over a strided view of the axis."""
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


def strided_diffuse(j, s):
    vol = j.as_4d().copy()
    sides = [j.source.cell_height, j.source.cell_width, j.target.cell_height, j.target.cell_width]
    for axis, side in enumerate(sides):
        vol = strided_convolve_axis(vol, _gaussian_taps(s, side, vol.shape[axis]), axis)
    return normalize_joint(vol, j.source, j.target).probs


def full_kernel_diffuse(j, s, chunk=1 << 20):
    """Oracle: each axis blurred by the whole radius-4s kernel, normalised over all of its taps.

    Taps past the axis reach no cell, so only the 2n - 1 central ones are convolved;
    the normalising sum runs over every tap, in chunks to bound memory."""
    vol = j.as_4d().copy()
    for axis, n in enumerate(vol.shape):
        side = 2.0 / n
        radius = int(4.0 * s / side)
        gauss = lambda offs: np.exp(-0.5 * (offs * side / s) ** 2)
        total = sum(gauss(np.arange(lo, min(lo + chunk, radius + 1))).sum() for lo in range(-radius, radius + 1, chunk))
        reach = min(radius, n - 1)
        vol = strided_convolve_axis(vol, gauss(np.arange(-reach, reach + 1)) / total, axis)
    return normalize_joint(vol, j.source, j.target).probs


DIFFUSE_CASES = [
    *(("two-translation 16x16", (16, 16), (16, 16), s) for s in (0.05, 0.1, 0.2)),
    *(("two-translation 12x16->8x24", (12, 16), (8, 24), s) for s in (0.05, 0.1, 0.2)),
    *(("two-translation 5x7->9x3", (5, 7), (9, 3), s) for s in (0.05, 0.1, 0.2)),
    *(("random 5x7->9x3", (5, 7), (9, 3), s) for s in (0.1, 0.3)),
    # Radius 32,000 cells, cut to the 31 taps per axis that reach the grid.
    ("two-translation 16x16, radius past the axis", (16, 16), (16, 16), 1e3),
]


@pytest.mark.parametrize(
    "name, src_shape, tgt_shape, s", DIFFUSE_CASES, ids=[f"{c[0]} s={c[3]}" for c in DIFFUSE_CASES]
)
def test_diffuse_matches_strided_loop_oracle(name, src_shape, tgt_shape, s):
    src, tgt = GridSpec(*src_shape), GridSpec(*tgt_shape)
    if name.startswith("random"):
        rng = np.random.default_rng(45)
        j = normalize_joint(rng.uniform(0, 1, (src.n_cells, tgt.n_cells)), src, tgt)
    else:
        j = rasterize_scene(two_translation_scene(), src, tgt)
    assert np.array_equal(diffuse(j, s).joint.probs, strided_diffuse(j, s))


@pytest.mark.parametrize("s", [1.0, 1e3, 1e5])
def test_diffuse_past_the_axis_matches_full_kernel_oracle(s):
    # Radius 32 to 3.2 million cells on 16-cell axes: the library builds only the 31 taps that reach.
    g = GridSpec(16, 16)
    j = rasterize_scene(two_translation_scene(), g, g)
    np.testing.assert_allclose(diffuse(j, s).joint.probs, full_kernel_diffuse(j, s), rtol=1e-12, atol=0)


def gaussian_bump(g, mu, sigma):
    cx = g.axis_centers_x()
    cy = g.axis_centers_y()
    gx = np.exp(-0.5 * ((cx - mu[0]) / sigma) ** 2)
    gy = np.exp(-0.5 * ((cy - mu[1]) / sigma) ** 2)
    out = np.outer(gy, gx)
    return out / out.sum()


def test_count_modes_single_and_double_bumps():
    g = GridSpec(16, 16)
    single = gaussian_bump(g, (0.0, 0.0), 0.2)
    assert len(find_modes(single, 0.1)) == 1
    double = gaussian_bump(g, (-0.5, 0.0), 0.15) + gaussian_bump(g, (0.5, 0.0), 0.15)
    assert len(find_modes(double / double.sum(), 0.1)) == 2


def exhaustive_mode_scan(grid, rel_threshold):
    """Oracle for plateau-free grids: strict cell-wise maxima over 8 neighbors."""
    h, w = grid.shape
    peak = grid.max()
    count = 0
    for r in range(h):
        for c in range(w):
            strictly_max = True
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and grid[rr, cc] >= grid[r, c]:
                        strictly_max = False
            if strictly_max and grid[r, c] >= rel_threshold * peak:
                count += 1
    return count


def test_count_modes_hand_built_grids():
    corner_peaks = np.array(
        [
            [9.0, 1.0, 1.0, 1.0, 8.0],
            [1.0, 0.5, 0.5, 0.5, 1.0],
            [1.0, 0.5, 0.2, 0.5, 1.0],
            [1.0, 0.5, 0.5, 0.5, 1.0],
            [7.0, 1.0, 1.0, 1.0, 6.0],
        ]
    )
    assert len(find_modes(corner_peaks, 0.1)) == 4
    assert len(find_modes(corner_peaks, 0.9)) == 1  # only the 9 survives a 90% cut

    rng = np.random.default_rng(43)
    for _ in range(50):
        grid = rng.uniform(0.01, 1.0, (5, 5))  # continuous draws: no plateaus
        assert len(find_modes(grid, 0.1)) == exhaustive_mode_scan(grid, 0.1)


def test_count_modes_collapses_plateaus():
    grid = np.zeros((5, 5))
    grid[2, 1:4] = 1.0  # three connected equal maxima form one mode
    assert len(find_modes(grid, 0.5)) == 1
    assert len(find_modes(grid, 0.5)[0].cells) == 3


def loop_find_modes(cond, rel_threshold):
    """Oracle: per-cell flood fill over every equal-valued plateau of a grid."""
    cond = np.asarray(cond, dtype=float)
    h, w = cond.shape
    peak = float(cond.max())
    if peak <= 0:
        return []
    seen = np.zeros((h, w), dtype=bool)
    modes = []
    neighborhood = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    for r0 in range(h):
        for c0 in range(w):
            if seen[r0, c0]:
                continue
            value = cond[r0, c0]
            stack = [(r0, c0)]
            seen[r0, c0] = True
            component = []
            is_max = True
            while stack:
                r, c = stack.pop()
                component.append((r, c))
                for dr, dc in neighborhood:
                    rr, cc = r + dr, c + dc
                    if not (0 <= rr < h and 0 <= cc < w):
                        continue
                    if cond[rr, cc] == value:
                        if not seen[rr, cc]:
                            seen[rr, cc] = True
                            stack.append((rr, cc))
                    elif cond[rr, cc] > value:
                        is_max = False
            if is_max and value >= rel_threshold * peak:
                rows = [rc[0] for rc in component]
                cols = [rc[1] for rc in component]
                modes.append(
                    Mode(
                        value=float(value),
                        centroid=(sum(rows) / len(rows), sum(cols) / len(cols)),
                        cells=tuple(sorted(component)),
                    )
                )
    return modes


# Quarter thresholds put plateaus exactly on the cut of an integer grid.
thresholds = st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.01, 0.99)
shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))


@PROPERTY
@given(
    shapes.flatmap(lambda shape: arrays(float, shape, elements=st.integers(0, 4).map(float))),
    thresholds,
)
def test_find_modes_matches_loop_oracle_on_plateau_grids(grid, rel_threshold):
    # Small integers force equal-valued plateaus, touching ones included.
    assert find_modes(grid, rel_threshold) == loop_find_modes(grid, rel_threshold)


@PROPERTY
@given(
    st.integers(1, 5).flatmap(
        lambda n: shapes.flatmap(
            lambda shape: arrays(float, (n, *shape), elements=st.floats(0.0, 1.0))
        )
    ),
    thresholds,
)
def test_stacked_count_matches_loop_oracle(stack, rel_threshold):
    want = [len(loop_find_modes(grid, rel_threshold)) for grid in stack]
    assert _count_modes_stack(stack, rel_threshold).tolist() == want


def test_sweep_counts_match_loop_oracle():
    # Wide offsets push some cells out of the frame: occluded rows at s = 0.
    g = GridSpec(10, 10)
    scene = two_translation_scene((-0.45, 0.1), (0.45, 0.0))
    scales = (0.2, 0.0, 0.05, 0.1, 0.3)
    sweep = multimodality_sweep(scene, g, g, scales, rel_threshold=0.1)
    assert sweep.scales.tolist() == list(scales)
    assert np.array_equal(sweep.boundary_distance, boundary_distances(scene, g).ravel())
    # The diffuse command's snapshots come from the same pass.
    again, rows = _sweep(scene, g, g, scales, 0.1, row=44)
    assert np.array_equal(again.n_modes, sweep.n_modes)
    base = rasterize_scene(scene, g, g)
    for k, s in enumerate(scales):
        probs = diffuse(base, s).joint.probs
        assert np.array_equal(rows[k], probs[44])
        mass = probs.sum(axis=1)
        assert np.array_equal(sweep.has_mass[k], mass > 0)
        want = [
            len(loop_find_modes((row / m).reshape(10, 10), 0.1)) if m > 0 else 0
            for row, m in zip(probs, mass)
        ]
        assert sweep.n_modes[k].tolist() == want
    assert not sweep.has_mass[scales.index(0.0)].all()


def test_sweep_rejects_duplicate_scales():
    g = GridSpec(8, 8)
    with pytest.raises(ValueError, match="distinct"):
        multimodality_sweep(two_translation_scene(), g, g, [0.1, 0.1])
    with pytest.raises(ValueError, match="distinct"):
        multimodality_sweep(two_translation_scene(), g, g, [0.0, -0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
def test_find_modes_rejects_nonfinite_or_negative(bad):
    grid = np.zeros((4, 4))
    grid[1, 2] = 1.0  # a clear peak the bad entry must not hide
    grid[3, 0] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        find_modes(grid, 0.1)


def test_boundary_distances_two_translation():
    g = GridSpec(16, 16)
    d = boundary_distances(two_translation_scene(), g)
    # Boundary sits at x = 0; columns 7 and 8 are half a cell away.
    assert np.allclose(d[:, 7], 0.0625)
    assert np.allclose(d[:, 8], 0.0625)
    assert np.allclose(d[:, 0], 0.0625 + 7 * 0.125)
    assert np.all(np.isinf(boundary_distances(identity_scene(), g)))


def test_sweep_single_region_never_multimodal():
    g = GridSpec(12, 12)
    sweep = multimodality_sweep(translation_scene((0.1, 0.0)), g, g, [0.0, 0.05, 0.1, 0.2])
    for s in (0.0, 0.05, 0.1, 0.2):
        frac, n = sweep.fraction_multimodal(s)
        assert n > 0
        assert frac == 0.0


def test_sweep_cells_beyond_truncation_radius_stay_unimodal():
    g = GridSpec(16, 16)
    sweep = multimodality_sweep(two_translation_scene(), g, g, [0.05, 0.1, 0.2])
    for s in (0.05, 0.1, 0.2):
        frac, n = sweep.fraction_multimodal(s, dist_lo=4 * s + 1e-9)
        assert n > 0
        assert frac == 0.0


def test_sweep_boundary_cells_bimodal_with_wide_separation():
    # Offsets 0.9 apart exceed 8s at s = 0.1, and the cross-boundary kernel
    # mass at one cell's distance is far above the 0.1 mode threshold.
    g = GridSpec(16, 16)
    scene = two_translation_scene((-0.45, 0.0), (0.45, 0.0))
    sweep = multimodality_sweep(scene, g, g, [0.1])
    frac, n = sweep.fraction_multimodal(0.1, dist_hi=0.125)
    assert n == 32
    assert frac == 1.0


def test_sweep_fraction_nondecreasing_near_boundary():
    g = GridSpec(16, 16)
    sweep = multimodality_sweep(two_translation_scene(), g, g, [0.05, 0.1, 0.2])
    fracs = [sweep.fraction_multimodal(s, dist_hi=s)[0] for s in (0.05, 0.1, 0.2)]
    assert fracs == sorted(fracs)


def test_fit_comparison_delta_on_anchor_cell():
    g = build_anchor_grid(8, 8)
    cond = np.zeros((8, 8))
    cond[3, 4] = 1.0
    kl_mix, kl_uni = fit_comparison(cond, g)
    assert kl_mix == 0.0
    assert kl_uni >= -1e-12


def test_fit_comparison_gaussian_within_tolerance():
    g = GridSpec(16, 16)
    sigma = float(np.exp(np.linspace(np.log(0.01), np.log(1.0), 16)[8]))
    cond = gaussian_bump(g, tuple(g.cell_centers()[7 * 16 + 6]), sigma)
    kl_mix, kl_uni = fit_comparison(cond, build_anchor_grid(16, 16))
    assert abs(kl_uni - kl_mix) < 0.05


def test_fit_comparison_bimodal_prefers_mixture():
    g = GridSpec(16, 16)
    double = gaussian_bump(g, (-0.4, 0.1), 0.12) + gaussian_bump(g, (0.5, -0.2), 0.12)
    double /= double.sum()
    kl_mix, kl_uni = fit_comparison(double, build_anchor_grid(16, 16))
    assert kl_mix < kl_uni
    # Coarser anchors still beat the single Gaussian on a bimodal target.
    kl_mix8, kl_uni8 = fit_comparison(double, build_anchor_grid(8, 8))
    assert kl_mix8 < kl_uni8
    assert kl_uni8 == pytest.approx(kl_uni, abs=1e-9)


def test_fit_comparison_mixture_never_much_worse():
    # Same-resolution anchors represent any conditional exactly, so the
    # mixture KL can never exceed the unimodal KL by more than round-off.
    rng = np.random.default_rng(44)
    g = GridSpec(12, 12)
    for _ in range(10):
        cond = rng.uniform(0, 1, (12, 12)) ** 3
        cond /= cond.sum()
        kl_mix, kl_uni = fit_comparison(cond, build_anchor_grid(12, 12))
        assert kl_mix <= kl_uni + 0.05


def clamped_kl(p, q):
    mask = p > 0
    return float((p[mask] * (np.log(p[mask]) - np.log(np.maximum(q[mask], 1e-300)))).sum())


def brute_force_fit(cond, anchor_grid):
    """Oracle: 2D grid search over every (center, sigma) pair of full Gaussian
    grids, then the same coordinate descent, with q floored at 1e-300.

    Returns ``(kl_mixture, kl_unimodal, (mu, sigma))`` of the best fit."""
    h, w = cond.shape
    g = GridSpec(h, w)
    cond = cond / cond.sum()
    fh, fw = h // anchor_grid.rows, w // anchor_grid.cols
    block = cond.reshape(anchor_grid.rows, fh, anchor_grid.cols, fw).sum(axis=(1, 3))
    kl_mixture = clamped_kl(cond, np.repeat(np.repeat(block / (fh * fw), fh, 0), fw, 1))

    def objective(params):
        return clamped_kl(cond, gaussian_bump(g, params[:2], math.exp(params[2])))

    log_sigmas = np.linspace(math.log(0.01), math.log(1.0), 16)
    starts = [np.array([*mu, ls]) for ls in log_sigmas for mu in g.cell_centers()]
    kl_best, params = min(((objective(x), x) for x in starts), key=lambda pair: pair[0])
    steps = np.array([g.cell_width, g.cell_height, log_sigmas[1] - log_sigmas[0]])
    value = kl_best
    for _ in range(8):
        for axis in range(3):
            lo, hi = params[axis] - steps[axis], params[axis] + steps[axis]
            for _ in range(40):
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                p1, p2 = params.copy(), params.copy()
                p1[axis], p2[axis] = m1, m2
                if objective(p1) <= objective(p2):
                    hi = m2
                else:
                    lo = m1
            params[axis] = 0.5 * (lo + hi)
        new_value = objective(params)
        if value - new_value < 1e-12:
            value = min(value, new_value)
            break
        value = new_value
    return kl_mixture, min(kl_best, value), (params[:2], math.exp(params[2]))


@settings(PROPERTY, max_examples=30)
@given(
    st.tuples(st.integers(2, 6), st.integers(2, 6)).flatmap(
        lambda shape: arrays(float, shape, elements=st.floats(0.02, 1.0))
    ),
    st.integers(1, 4),
)
def test_separable_fit_matches_brute_force(cond, power):
    cond = cond**power
    anchors = build_anchor_grid(*cond.shape)
    want_mix, want_uni, (mu, sigma) = brute_force_fit(cond, anchors)
    q = gaussian_bump(GridSpec(*cond.shape), mu, sigma)
    assume(q.min() > 1e-300)  # the floor never touched the oracle's best fit
    kl_mix, kl_uni = fit_comparison(cond, anchors)
    assert kl_mix == want_mix
    assert abs(kl_uni - want_uni) <= 1e-8


def boundary_conditional(s, cell):
    """Row ``cell`` of the 16x16 two-translation joint diffused at ``s``, as a grid."""
    g = GridSpec(16, 16)
    row = diffuse(rasterize_scene(two_translation_scene(), g, g), s).joint.probs[cell]
    return (row / row.sum()).reshape(16, 16)


# The benchmark's regime: cells 119 and 120 straddle the boundary at x = 0
# (columns 7 and 8), cell 56 sits on it three rows up, and cell 0 is the far
# corner, whose own image leaves the frame.
@pytest.mark.parametrize("s", [0.1, 0.2])
@pytest.mark.parametrize("cell", [119, 120, 56, 0])
def test_fit_comparison_matches_brute_force_on_boundary_conditionals(s, cell):
    cond = boundary_conditional(s, cell)
    anchors = build_anchor_grid(16, 16)
    want_mix, want_uni, (mu, sigma) = brute_force_fit(cond, anchors)
    assert gaussian_bump(GridSpec(16, 16), mu, sigma).min() > 1e-300  # the floor is not hit
    kl_mix, kl_uni = fit_comparison(cond, anchors)
    assert kl_mix == want_mix
    assert abs(kl_uni - want_uni) <= 1e-8


def test_fit_comparison_line_search_call_count(monkeypatch):
    # Work pinned as a count, not a time: 8 full descent rounds of three line
    # searches, each shrinking its bracket 6 times with one call per axis term.
    calls = []

    def counting(*args):
        calls.append(None)
        return _axis_log_likelihood(*args)

    monkeypatch.setattr(scalespace, "_axis_log_likelihood", counting)
    fit_comparison(boundary_conditional(0.2, 56), build_anchor_grid(16, 16))
    assert len(calls) <= 300, len(calls)


def test_axis_log_likelihood_exact_where_gaussian_underflows():
    # exp(-5000) and exp(-31250) underflow; a floor at 1e-300 would give -690.8.
    centers = np.array([-0.5, 0.5])
    mu, sigma = np.array([-0.5, 3.0]), np.array([0.01, 0.01])
    assert _axis_log_likelihood(np.array([0.0, 1.0]), centers, mu, sigma).tolist() == [-5000.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
def test_fit_comparison_rejects_nonfinite_or_negative(bad):
    cond = np.full((4, 4), 1 / 16)
    cond[0, 3] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        fit_comparison(cond, build_anchor_grid(4, 4))


def map_points_masked(spec, pts):
    """Every region through the boolean gather and scatter, as ``SceneSpec.map_points`` first did."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    idx = spec.region_index(pts)
    out = np.empty_like(pts)
    for i, region in enumerate(spec.regions):
        sel = idx == i
        if np.any(sel):
            out[sel] = region.map_points(pts[sel])
    return out


def test_map_points_one_region_fast_path_keeps_the_masked_bits():
    from matchkit.scalespace import affine_scene

    rng = np.random.default_rng(21)
    wide = rng.uniform(-1.0, 1.0, (3001, 6))
    centers = GridSpec(224, 224).cell_centers()
    inputs = {
        "grid centres": centers,
        "column-strided": wide[:, 1:5:3],
        "row-strided": wide[::3, :2],
        "fortran": np.asfortranarray(wide[:, :2]),
        "list": [[0.1, -0.2], [0.3, 0.4]],
        "one point": np.array([0.5, 0.25]),
        "none": np.empty((0, 2)),
    }
    scenes = {
        "affine": affine_scene([[1.02, -0.031], [0.027, 0.97]], (0.113, -0.071)),
        "identity": identity_scene(),
        "two-translation": two_translation_scene((-0.2, 0.0), (0.2, 0.05)),
    }
    for scene_name, scene in scenes.items():
        for name, pts in inputs.items():
            got, want = scene.map_points(pts), map_points_masked(scene, pts)
            assert got.shape == want.shape and got.dtype == want.dtype, (scene_name, name)
            assert got.tobytes() == want.tobytes(), (scene_name, name)
    # Every point in the second region of two: the fast path maps them with that region.
    scene = scenes["two-translation"]
    for right in (np.abs(wide[:, 2:4]), np.abs(wide)[:, 2::2]):  # x >= 0; contiguous, then strided
        assert np.all(scene.region_index(right) == 1)
        assert scene.map_points(right).tobytes() == map_points_masked(scene, right).tobytes()
