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
from matchkit.scalespace import (
    Mode,
    _axis_log_likelihood,
    _count_modes_stack,
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
