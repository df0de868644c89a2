import numpy as np
import pytest

from matchkit import (
    REFINER_STRIDES,
    GridSpec,
    WarpField,
    analytic_refiner,
    bilinear_weights,
    correlation_windows,
    default_refiners,
    in_extent,
    run_cascade,
    scene_true_warp,
    synth_pyramid,
    upsample_warp,
    warp_epe,
)
from matchkit.cascade import FeatureField, RefinerSpec, stage_epes, validate_base
from matchkit.scalespace import affine_scene, identity_scene, translation_scene, two_translation_scene

BASE = GridSpec(56, 56)
FINE = 2 / 56


def random_affine_scene(rng, max_offset=0.2, max_angle=0.05, max_log_scale=0.04):
    offset = rng.uniform(-max_offset * 0.7, max_offset * 0.7, 2)
    ang = rng.uniform(-max_angle, max_angle)
    scale = 1.0 + rng.uniform(-max_log_scale, max_log_scale)
    c, s = np.cos(ang), np.sin(ang)
    return affine_scene(scale * np.array([[c, -s], [s, c]]), offset)


def random_translation_scene(rng, max_offset=0.2):
    offset = rng.uniform(-max_offset, max_offset, 2)
    return translation_scene(offset)


def test_refiner_spec_windows():
    specs = default_refiners()
    assert [r.stride for r in specs] == [14, 8, 4, 2, 1]
    assert [r.corr_window for r in specs] == [15, 7, 5, 0, 0]
    with pytest.raises(ValueError):
        RefinerSpec(4, 4)
    with pytest.raises(ValueError):
        RefinerSpec(3, 5)


def test_validate_base():
    validate_base(BASE)
    with pytest.raises(ValueError):
        validate_base(GridSpec(48, 48))  # divisible by 8 but not by 14


def test_synth_identity_features_match():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=1)
    assert np.allclose(pyrA.features(1), pyrB.features(1))


def test_synth_translation_features_shifted():
    # Shift by exactly 7 fine cells: source features equal target features
    # displaced by 7 columns wherever both exist.
    shift_cells = 7
    scene = translation_scene((shift_cells * FINE, 0.0))
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=2)
    fa = pyrA.features(1)
    fb = pyrB.features(1)
    assert np.allclose(fa[:, : 56 - shift_cells], fb[:, shift_cells:], atol=1e-10)


def test_synth_pooling_consistency():
    pyrA, _ = synth_pyramid(identity_scene(), BASE, seed=3)
    lvl1 = pyrA.features(1)
    lvl2 = pyrA.features(2)
    children = lvl1[:2, :2].mean(axis=(0, 1))
    assert np.allclose(lvl2[0, 0], children, atol=1e-12)
    lvl14 = pyrA.features(14)
    assert np.allclose(lvl14[0, 0], lvl1[:14, :14].mean(axis=(0, 1)), atol=1e-12)


def test_synth_pyramid_matches_pooling_oracle():
    # Every level, stride 1 included, is the mean over stride x stride blocks
    # of the field sampled at the base cell centers.
    scene = random_affine_scene(np.random.default_rng(4))
    pyrA, pyrB = synth_pyramid(scene, BASE, feature_dim=8, seed=4)
    field = FeatureField(8, 4)
    centers = BASE.cell_centers()
    for pyr, pts in ((pyrA, scene.map_points(centers)), (pyrB, centers)):
        level1 = field(pts).reshape(56, 56, 8)
        for s in REFINER_STRIDES:
            want = level1.reshape(56 // s, s, 56 // s, s, 8).mean(axis=(1, 3))
            assert np.array_equal(pyr.features(s), want)


def local_correlation(f_a, tgt_grid, tgt_feats, center, window):
    """Loop oracle for one row of ``correlation_windows``.

    Cosine similarity of one descriptor against the ``window x window``
    target cells centred on the cell containing ``center``; positions outside
    the extent carry -1.
    """
    r0 = int(np.clip(np.floor((center[1] + 1.0) / tgt_grid.cell_height), 0, tgt_grid.height - 1))
    c0 = int(np.clip(np.floor((center[0] + 1.0) / tgt_grid.cell_width), 0, tgt_grid.width - 1))
    half = window // 2
    out = np.full((window, window), -1.0)
    for i in range(window):
        for j in range(window):
            rr, cc = r0 - half + i, c0 - half + j
            if 0 <= rr < tgt_grid.height and 0 <= cc < tgt_grid.width:
                f_b = tgt_feats[rr, cc]
                out[i, j] = float(f_a @ f_b) / (np.linalg.norm(f_a) * np.linalg.norm(f_b))
    return out


def test_local_correlation_window_one():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=4)
    grid = pyrB.grid(4)
    feats = pyrB.features(4)
    f = feats[3, 5]
    center = np.array(
        [-1 + (5 + 0.5) * grid.cell_width, -1 + (3 + 0.5) * grid.cell_height]
    )
    sims, win_x, win_y = correlation_windows(f[None], grid, feats, center[None], 1)
    assert sims.shape == (1, 1, 1)
    assert np.isclose(sims[0, 0, 0], 1.0)
    assert np.allclose([win_x[0, 0, 0], win_y[0, 0, 0]], center)


def test_local_correlation_orthogonal_construction():
    grid = GridSpec(2, 2)
    feats = np.eye(4).reshape(2, 2, 4)
    center = np.array([[-0.5, -0.5]])
    sims, win_x, win_y = correlation_windows(np.eye(4)[:1], grid, feats, center, 3)
    out = sims[0]
    # Window centered on cell (0, 0): out-of-extent ring is -1, matching cell
    # is 1, other in-grid cells are orthogonal.
    assert out[1, 1] == 1.0
    assert out[1, 2] == 0.0 and out[2, 1] == 0.0 and out[2, 2] == 0.0
    assert np.all(out[0, :] == -1.0) and np.all(out[:, 0] == -1.0)
    # The lattice keeps going past the extent: the corner is a virtual cell.
    assert win_x.shape == (1, 1, 3) and win_y.shape == (1, 3, 1)
    assert np.allclose(win_x[0, 0], [-1.5, -0.5, 0.5])
    assert np.allclose(win_y[0, :, 0], [-1.5, -0.5, 0.5])


def test_local_correlation_matches_brute_loop():
    rng = np.random.default_rng(50)
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=5)
    for stride, window in ((14, 15), (8, 7), (4, 5)):
        grid = pyrB.grid(stride)
        feats = pyrB.features(stride)
        # Random centres plus the four corner cells and points on the extent
        # boundary, where most of a window falls outside the grid.
        centers = np.concatenate(
            [
                rng.uniform(-1, 1, (20, 2)),
                [[-1, -1], [1, 1], [-1, 1], [1, -1], [0.999, -0.999], [0.0, 1.0]],
            ]
        )
        queries = rng.normal(size=(len(centers), feats.shape[-1]))
        sims, win_x, win_y = correlation_windows(queries, grid, feats, centers, window)
        assert sims.shape == (len(centers), window, window)
        offs = np.arange(window) - window // 2
        for f, center, got, xs, ys in zip(queries, centers, sims, win_x[:, 0], win_y[..., 0]):
            assert np.allclose(got, local_correlation(f, grid, feats, center, window), atol=1e-12)
            # The lattice is one cell apart, centred on the cell holding `center`.
            mid_x, mid_y = xs[window // 2], ys[window // 2]
            assert abs(mid_x - center[0]) <= grid.cell_width / 2 + 1e-12
            assert abs(mid_y - center[1]) <= grid.cell_height / 2 + 1e-12
            assert np.allclose(xs - mid_x, offs * grid.cell_width)
            assert np.allclose(ys - mid_y, offs * grid.cell_height)
    with pytest.raises(ValueError, match="odd"):
        correlation_windows(queries, grid, feats, centers, 4)


def test_refiner_window_zero_is_passthrough():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=6)
    grid = pyrA.grid(2)
    rng = np.random.default_rng(51)
    state = WarpField(grid, rng.uniform(-1, 1, (28, 28, 2)), rng.uniform(0, 1, (28, 28)))
    out = analytic_refiner(state, pyrA, pyrB, RefinerSpec(2, 0))
    assert out is state


def test_refiner_identity_scene_keeps_identity():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=7)
    grid = pyrA.grid(4)
    ident = scene_true_warp(identity_scene(), grid)
    state = WarpField(grid, ident.target_coords, np.full((14, 14), 0.5))
    out = analytic_refiner(state, pyrA, pyrB, RefinerSpec(4, 5))
    # Interior cells recover their own centers almost exactly.
    err = np.linalg.norm(out.target_coords - ident.target_coords, axis=-1)
    assert err[2:-2, 2:-2].max() < 0.05 * grid.cell_width


def test_refiner_recovers_one_cell_offset():
    rng = np.random.default_rng(52)
    scene = translation_scene((0.11, -0.07))
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=8)
    grid = pyrA.grid(4)
    true4 = scene_true_warp(scene, grid)
    off = rng.uniform(-1, 1, (14, 14, 2))
    off *= grid.cell_width / np.maximum(np.linalg.norm(off, axis=-1, keepdims=True), 1e-9)
    state = WarpField(grid, true4.target_coords + off, np.full((14, 14), 0.5))
    out = analytic_refiner(state, pyrA, pyrB, RefinerSpec(4, 5))
    err = np.linalg.norm(out.target_coords - true4.target_coords, axis=-1)
    mask = true4.certainty > 0
    assert np.median(err[mask]) < 0.25 * grid.cell_width


def test_refiner_certainty_increases_on_match():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=9)
    grid = pyrA.grid(8)
    ident = scene_true_warp(identity_scene(), grid)
    state = WarpField(grid, ident.target_coords, np.full((7, 7), 0.5))
    out = analytic_refiner(state, pyrA, pyrB, RefinerSpec(8, 7))
    assert np.all(out.certainty > 0.5)
    assert np.all(out.certainty <= 1.0)


def test_upsample_preserves_uniform_translation():
    scene = translation_scene((0.13, 0.06))
    coarse = scene_true_warp(scene, GridSpec(4, 4))
    up = upsample_warp(coarse, GridSpec(28, 28))
    want = scene_true_warp(scene, GridSpec(28, 28))
    assert np.allclose(up.target_coords, want.target_coords, atol=1e-12)


def upsample_oracle(field, new_grid):
    """The 4-tap upsample: ``bilinear_weights`` at every new cell center, one gather."""
    old = field.grid
    flow = field.target_coords - old.cell_centers().reshape(old.height, old.width, 2)
    centers = new_grid.cell_centers()
    rows, cols, w = bilinear_weights(old, centers)
    flow_vals = (w[..., None] * flow[rows, cols]).sum(axis=-2)
    cert = (w * field.certainty[rows, cols]).sum(axis=-1)
    return WarpField(
        new_grid,
        (centers + flow_vals).reshape(new_grid.height, new_grid.width, 2),
        np.clip(cert, 0.0, 1.0).reshape(new_grid.height, new_grid.width),
    )


@pytest.mark.parametrize(
    "src, dst",
    [
        ((16, 16), (28, 28)),
        ((28, 28), (56, 56)),
        ((112, 112), (224, 224)),
        ((5, 9), (14, 6)),  # non-square
        ((1, 7), (3, 13)),  # 1 x n
        ((7, 1), (13, 3)),  # n x 1
        ((1, 1), (4, 4)),
        ((30, 30), (10, 10)),  # downsample
    ],
)
def test_upsample_matches_four_tap_oracle(src, dst):
    rng = np.random.default_rng(src[0] * 1000 + dst[1])
    # Targets beyond the extent and certainties at both ends of [0, 1].
    cert = rng.uniform(0.0, 1.0, src)
    cert.flat[:2] = [0.0, 1.0][: cert.size]
    field = WarpField(GridSpec(*src), rng.uniform(-1.3, 1.3, (*src, 2)), cert)
    got = upsample_warp(field, GridSpec(*dst))
    want = upsample_oracle(field, GridSpec(*dst))
    assert np.array_equal(got.target_coords, want.target_coords)
    assert np.array_equal(got.certainty, want.certainty)


def stage_epes_oracle(stages, scene, matchable_only):
    """Per-stage EPE as it was computed: the 4-tap chain, then the truth mapped per stage."""
    grids = [w.grid for _, w in stages]
    out = []
    for i, (stride, field) in enumerate(stages):
        for grid in grids[i + 1 :]:
            field = upsample_oracle(field, grid)
        true = scene.map_points(field.grid.cell_centers())
        err = np.linalg.norm(field.target_coords.reshape(-1, 2) - true, axis=1)
        if matchable_only:
            err = err[in_extent(true)]
        out.append((stride, float(err.mean())))
    return out


@pytest.mark.parametrize("base", [56, 224])
@pytest.mark.parametrize("kind", ["affine", "translation", "two-translation"])
def test_cascade_and_stage_epes_match_four_tap_oracle(base, kind):
    rng = np.random.default_rng(base + len(kind))
    scene = {
        "affine": random_affine_scene(rng),
        "translation": translation_scene((0.45, -0.3)),  # cells leave the extent
        "two-translation": two_translation_scene((-0.2, 0.0), (0.2, 0.05)),
    }[kind]
    grid = GridSpec(base, base)
    pyrA, pyrB = synth_pyramid(scene, grid, seed=base)
    g14 = GridSpec(base // 14, base // 14)
    true14 = scene_true_warp(scene, g14)
    pert = rng.uniform(-0.5, 0.5, (g14.height, g14.width, 2)) * g14.cell_width
    coarse = WarpField(g14, np.clip(true14.target_coords + pert, -1, 1), np.full((g14.height, g14.width), 0.5))
    _, stages = run_cascade(pyrA, pyrB, coarse)
    # The cascade chain itself, one stage at a time, with the oracle upsample.
    state = coarse
    for (stride, got), spec in zip(stages, default_refiners()):
        if state.grid != got.grid:
            state = upsample_oracle(state, got.grid)
        state = analytic_refiner(state, pyrA, pyrB, spec)
        assert np.array_equal(got.target_coords, state.target_coords)
        assert np.array_equal(got.certainty, state.certainty)
    for matchable_only in (True, False):
        assert stage_epes(stages, scene, matchable_only) == stage_epes_oracle(stages, scene, matchable_only)


def test_stage_epes_without_matchable_cells_is_rejected():
    scene = translation_scene((3.0, 0.0))  # every target leaves the extent
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=5)
    _, stages = run_cascade(pyrA, pyrB, scene_true_warp(scene, GridSpec(4, 4)))
    with pytest.raises(ValueError, match="no matchable cells"):
        stage_epes(stages, scene)
    assert stage_epes([], scene) == []
    assert len(stage_epes(stages, scene, matchable_only=False)) == len(stages)


def test_cascade_identity_scene_identity_warp():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=10)
    g14 = GridSpec(4, 4)
    coarse = scene_true_warp(identity_scene(), g14)
    final, stages = run_cascade(pyrA, pyrB, coarse)
    assert final.grid == GridSpec(56, 56)
    assert warp_epe(final, identity_scene()) < 0.5 * FINE


def test_cascade_grid_mismatch_rejected():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=11)
    bad = scene_true_warp(identity_scene(), GridSpec(7, 7))
    with pytest.raises(ValueError, match="first refiner"):
        run_cascade(pyrA, pyrB, bad)


def test_cascade_stage_isolation():
    # Earlier stages are pure functions of their inputs: rerunning the prefix
    # of the cascade reproduces stage outputs bitwise, no matter what later
    # stages would have done.
    scene = translation_scene((0.09, 0.04))
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=12)
    coarse = scene_true_warp(scene, GridSpec(4, 4))
    _, stages_full = run_cascade(pyrA, pyrB, coarse)
    _, stages_prefix = run_cascade(
        pyrA, pyrB, coarse, refiners=default_refiners()[:2]
    )
    for (s1, w1), (s2, w2) in zip(stages_full[:2], stages_prefix):
        assert s1 == s2
        assert np.array_equal(w1.target_coords, w2.target_coords)
        assert np.array_equal(w1.certainty, w2.certainty)


def test_cascade_certainty_stays_in_unit_interval():
    rng = np.random.default_rng(53)
    scene = random_affine_scene(rng)
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=13)
    g14 = GridSpec(4, 4)
    true14 = scene_true_warp(scene, g14)
    coarse = WarpField(g14, true14.target_coords, rng.uniform(0.1, 0.9, (4, 4)))
    _, stages = run_cascade(pyrA, pyrB, coarse)
    for _, w in stages:
        assert np.all(w.certainty >= 0.0) and np.all(w.certainty <= 1.0)


def test_cascade_monotone_epe_on_random_scenes():
    # Coarse warps perturbed by up to one stride-14 cell refine monotonically
    # (per-stage EPE at the base resolution) on translation and affine scenes.
    n_scenes = 12
    failures = 0
    for trial in range(n_scenes):
        rng = np.random.default_rng(3000 + trial)
        scene = (
            random_translation_scene(rng) if trial % 2 == 0 else random_affine_scene(rng)
        )
        pyrA, pyrB = synth_pyramid(scene, BASE, seed=3000 + trial)
        g14 = GridSpec(4, 4)
        true14 = scene_true_warp(scene, g14)
        pert = rng.uniform(-0.5, 0.5, (4, 4, 2))
        coarse = WarpField(
            g14, np.clip(true14.target_coords + pert, -1, 1), np.full((4, 4), 0.5)
        )
        _, stages = run_cascade(pyrA, pyrB, coarse)
        epes = [e for _, e in stage_epes(stages, scene)]
        if not all(b <= a + 1e-9 for a, b in zip(epes[:-1], epes[1:])):
            failures += 1
        if epes[-1] >= 0.5 * FINE:
            failures += 1
    assert failures == 0
