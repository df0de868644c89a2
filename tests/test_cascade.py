import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from matchkit import (
    CORR_WINDOWS,
    GridSpec,
    WarpField,
    analytic_refiner,
    in_extent,
    run_cascade,
    scene_true_warp,
    synth_pyramid,
    upsample_warp,
)
from matchkit import cascade
from matchkit.cascade import FeatureField, FeaturePyramid, stage_epes, validate_base
from matchkit.grids import _axis_taps
from matchkit.scalespace import (
    AffineRegion,
    SceneSpec,
    affine_scene,
    identity_scene,
    translation_scene,
    two_translation_scene,
)

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
    # CORR_WINDOWS is the cascade's one stride table, ordered coarse to fine.
    assert list(CORR_WINDOWS.items()) == [(14, 15), (8, 7), (4, 5), (2, 0), (1, 0)]
    assert all(w == 0 or w % 2 == 1 for w in CORR_WINDOWS.values())


def test_refiner_rejects_stride_outside_table():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=1)
    state = scene_true_warp(identity_scene(), GridSpec(18, 18))
    with pytest.raises(ValueError, match=r"stride must be one of \(14, 8, 4, 2, 1\), got 3"):
        analytic_refiner(state, pyrA, pyrB, 3)


def test_feature_pyramid_grids_come_from_the_arrays():
    pyrA, _ = synth_pyramid(identity_scene(), BASE, seed=1)
    for s in CORR_WINDOWS:
        assert pyrA.grid(s) == GridSpec(56 // s, 56 // s)
    assert FeaturePyramid({2: np.zeros((3, 5, 4)), 1: np.zeros((6, 10, 4))}).grid(2) == GridSpec(3, 5)
    with pytest.raises(ValueError, match="common base"):
        FeaturePyramid({2: np.zeros((3, 5, 4)), 1: np.zeros((6, 9, 4))})
    with pytest.raises(ValueError, match="no levels"):
        FeaturePyramid({})


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


def block_mean_oracle(level, factor):
    """Block means one block at a time: the cells summed in row-major order, then divided by factor^2."""
    h, w, d = level.shape
    out = np.empty((h // factor, w // factor, d))
    for r in range(h // factor):
        for c in range(w // factor):
            total = np.zeros(d)
            for i in range(factor):
                for j in range(factor):
                    total = total + level[r * factor + i, c * factor + j]
            out[r, c] = total / factor**2
    return out


# Each level pools the coarsest finer level whose stride divides its own.
POOL_PARENT = {1: 1, 2: 1, 4: 2, 8: 4, 14: 2}


def test_synth_pyramid_levels_are_block_means_of_its_stride_1_level():
    scene = random_affine_scene(np.random.default_rng(4))
    assert set(POOL_PARENT) == set(CORR_WINDOWS)
    for pyr in synth_pyramid(scene, BASE, feature_dim=8, seed=4):
        level1 = pyr.features(1)
        for s, parent in POOL_PARENT.items():
            got = pyr.features(s)
            assert np.array_equal(got, block_mean_oracle(pyr.features(parent), s // parent))
            want = level1.reshape(56 // s, s, 56 // s, s, 8).mean(axis=(1, 3))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def three_strip_scene():
    """Three horizontal strips, each with its own affine motion."""
    return SceneSpec(
        (
            AffineRegion(lambda p: p[:, 1] < -0.3, np.array([[1.03, 0.02], [0.0, 0.97]]), np.array([0.05, 0.1])),
            AffineRegion(lambda p: (p[:, 1] >= -0.3) & (p[:, 1] < 0.4), np.eye(2), np.array([-0.12, 0.0])),
            AffineRegion(lambda p: p[:, 1] >= 0.4, np.array([[0.95, -0.04], [0.04, 0.95]]), np.array([0.0, -0.2])),
        )
    )


@pytest.mark.parametrize("feature_dim", [4, 32])
@pytest.mark.parametrize("base", [56, 224])
@pytest.mark.parametrize(
    "scene",
    [
        random_affine_scene(np.random.default_rng(4)),
        affine_scene([[1.02, 0.03], [-0.03, 0.98]], (0.1, -0.05)),
        two_translation_scene((-0.2, 0.0), (0.2, 0.05)),  # its boundary x = 0 falls between cells
        three_strip_scene(),
        translation_scene((2.5, -1.5)),  # every target outside the extent
    ],
    ids=["affine-random", "affine", "two-translation", "three-strip", "out-of-extent"],
)
def test_synth_pyramid_stride_1_matches_the_field_at_mapped_centers(scene, base, feature_dim):
    # The lattice path multiplies per-axis phasors; the scattered call is its oracle.
    grid = GridSpec(base, base)
    field = FeatureField(feature_dim, seed=base + feature_dim)
    centers = grid.cell_centers()
    pyrA, pyrB = synth_pyramid(scene, grid, feature_dim=feature_dim, seed=base + feature_dim)
    for pyr, pts in ((pyrA, scene.map_points(centers)), (pyrB, centers)):
        got = pyr.features(1)
        assert got.shape == (base, base, feature_dim) and got.flags.c_contiguous
        np.testing.assert_allclose(got.reshape(-1, feature_dim), field(pts), rtol=0, atol=1e-12)


def feature_field_oracle(field, pts):
    """The field as first written: whole cos and sin arrays copied into alternate columns."""
    theta = np.atleast_2d(pts) @ field.freqs.T + field.phases
    out = np.empty((theta.shape[0], 2 * field.freqs.shape[0]))
    out[:, 0::2] = np.cos(theta)
    out[:, 1::2] = np.sin(theta)
    return out


@pytest.mark.parametrize("feature_dim", [4, 32])
@pytest.mark.parametrize("n", [1, 7, 333, 224 * 224 + 1])
def test_feature_field_matches_interleaving_oracle(feature_dim, n):
    rng = np.random.default_rng(n + feature_dim)
    field = FeatureField(feature_dim, seed=n)
    pts = rng.uniform(-3.0, 3.0, (n, 2))
    got = field(pts)
    assert got.shape == (n, feature_dim) and got.flags.c_contiguous
    assert np.array_equal(got, feature_field_oracle(field, pts))
    assert np.array_equal(field(pts[0]), feature_field_oracle(field, pts[:1]))


@pytest.mark.parametrize("bad", [1e308, np.inf, np.nan])
def test_feature_field_refuses_non_finite_phases(bad):
    pts = np.array([[0.1, 0.2], [bad, 0.0], [0.3, -0.4]])
    with pytest.raises(ValueError, match=r"^feature field phases are not finite at points of magnitude "):
        FeatureField(32, seed=1)(pts)


@pytest.mark.parametrize(
    "scene, magnitude",
    [
        (translation_scene((1e308, 0.0)), "1e+308"),
        (translation_scene((np.inf, 0.0)), "inf"),
        (affine_scene([[np.nan, 0.0], [0.0, 1.0]], (0.0, 0.0)), "nan"),
        (two_translation_scene((-0.2, 0.0), (0.0, -1e308)), "1e+308"),  # one region only
    ],
)
def test_synth_pyramid_refuses_non_finite_phases(scene, magnitude):
    message = f"feature field phases are not finite at points of magnitude {magnitude}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synth_pyramid(scene, BASE, seed=1)


def test_lattice_skips_phases_no_region_cell_uses():
    # A region that holds no cell centre may have any motion: the lattice never reads it.
    scene = SceneSpec(
        (
            AffineRegion(lambda p: np.abs(p[:, 0]) > 1e-3, np.eye(2), np.zeros(2)),
            AffineRegion(lambda p: np.abs(p[:, 0]) <= 1e-3, np.eye(2), np.array([np.inf, 0.0])),
        )
    )
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=1)
    assert np.array_equal(pyrA.features(1), pyrB.features(1))


def refiner_cell_oracle(pyr_a, pyr_b, state, stride, cell, temperature, outside=-1.0):
    """Loop oracle for one cell of ``analytic_refiner``: its new ``(x, y, certainty)``.

    Cosine similarity of the cell's descriptor against the ``window x window``
    target cells centred on the cell containing its estimate (``outside`` for
    cells beyond the extent), a softargmax over the window's lattice
    coordinates, virtual cells included, and the certainty-logit update.
    """
    window = CORR_WINDOWS[stride]
    tgt = pyr_b.grid(stride)
    f_a = pyr_a.features(stride).reshape(-1, pyr_a.features(stride).shape[-1])[cell]
    feats_b = pyr_b.features(stride)
    x, y = state.target_coords.reshape(-1, 2)[cell]
    r0 = int(np.clip(np.floor((y + 1.0) / tgt.cell_height), 0, tgt.height - 1))
    c0 = int(np.clip(np.floor((x + 1.0) / tgt.cell_width), 0, tgt.width - 1))
    half = window // 2
    sims, xs, ys = [], [], []
    for i in range(window):
        for j in range(window):
            rr, cc = r0 - half + i, c0 - half + j
            if 0 <= rr < tgt.height and 0 <= cc < tgt.width:
                f_b = feats_b[rr, cc]
                sims.append(float(f_a @ f_b) / (np.linalg.norm(f_a) * np.linalg.norm(f_b)))
            else:
                sims.append(outside)
            xs.append(-1.0 + (cc + 0.5) * tgt.cell_width)
            ys.append(-1.0 + (rr + 0.5) * tgt.cell_height)
    peak = max(sims)
    weights = [np.exp((s - peak) / temperature) for s in sims]
    total = sum(weights)
    new_x = sum(w * v for w, v in zip(weights, xs)) / total
    new_y = sum(w * v for w, v in zip(weights, ys)) / total
    p = min(max(float(state.certainty.reshape(-1)[cell]), 1e-7), 1.0 - 1e-7)
    return new_x, new_y, 1.0 / (1.0 + np.exp(-(np.log(p) - np.log1p(-p) + peak)))


@pytest.mark.parametrize("temperature", [0.05, 1.0])
@pytest.mark.parametrize("stride", [14, 8, 4])
def test_refiner_matches_cell_loop_oracle(stride, temperature):
    rng = np.random.default_rng(50 + stride)
    scene = random_affine_scene(rng)
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=5)
    grid = pyrA.grid(stride)
    # Random estimates, plus the four corners and points on the extent
    # boundary, where most of a window falls outside the grid.
    edges = [[-1, -1], [1, 1], [-1, 1], [1, -1], [0.999, -0.999], [0.0, 1.0], [-1.0, 0.3]]
    coords = np.concatenate([edges, rng.uniform(-1, 1, (grid.n_cells - len(edges), 2))])
    state = WarpField(grid, coords.reshape(grid.height, grid.width, 2), rng.uniform(0, 1, (grid.height, grid.width)))
    out = analytic_refiner(state, pyrA, pyrB, stride, temperature)
    got = np.column_stack([out.target_coords.reshape(-1, 2), out.certainty.reshape(-1)])
    want = np.array([refiner_cell_oracle(pyrA, pyrB, state, stride, c, temperature) for c in range(grid.n_cells)])
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    if temperature == 1.0:
        # The -1 entries beyond the extent, at their virtual lattice
        # coordinates, move a corner estimate: dropping them would show.
        dropped = [refiner_cell_oracle(pyrA, pyrB, state, stride, c, temperature, -np.inf) for c in range(4)]
        assert np.all(np.abs(np.array(dropped)[:, :2] - got[:4, :2]) > 1e-3)


def test_refiner_orthogonal_construction():
    # Four orthogonal unit descriptors on a 2x2 stride-4 grid, matched to
    # themselves: the stride-4 window of 5 around each cell holds its match
    # (1), three orthogonal cells (0) and 21 cells beyond the extent (-1).
    pyr = FeaturePyramid({4: np.eye(4).reshape(2, 2, 4)})
    grid = pyr.grid(4)
    state = WarpField(grid, grid.cell_centers().reshape(2, 2, 2), np.full((2, 2), 0.5))
    sims = np.full((5, 5), -1.0)
    sims[2:4, 2:4] = [[1.0, 0.0], [0.0, 0.0]]
    lattice = np.arange(-2, 3) - 0.5  # cell (0, 0)'s window, centred on -0.5, past the extent
    for temperature in (0.05, 1.0):
        out = analytic_refiner(state, pyr, pyr, 4, temperature)
        w = np.exp((sims - 1.0) / temperature)
        expected = (w * lattice[None, :]).sum() / w.sum()
        assert np.allclose(out.target_coords[0, 0], [expected, expected], rtol=0, atol=1e-15)
        # Every cell sees the same patch, mirrored.
        assert np.allclose(out.target_coords[1, 1], [-expected, -expected], rtol=0, atol=1e-15)
        assert np.allclose(out.target_coords[0, 1], [-expected, expected], rtol=0, atol=1e-15)
        assert np.allclose(out.certainty, 1.0 / (1.0 + np.exp(-1.0)), rtol=0, atol=1e-15)
    inside = np.where(sims > -1, w, 0.0)  # T = 1: without the virtual ring the estimate would move
    assert abs((inside * lattice[None, :]).sum() / inside.sum() - expected) > 0.1


def test_refiner_refuses_zero_norm_cells_and_mismatched_widths():
    grid = GridSpec(2, 2)
    state = WarpField(grid, grid.cell_centers().reshape(2, 2, 2), np.full((2, 2), 0.5))
    good = FeaturePyramid({4: np.eye(4).reshape(2, 2, 4)})
    zero = FeaturePyramid({4: (np.eye(4) * [1, 1, 1, 0]).reshape(2, 2, 4)})
    with pytest.raises(ValueError, match="zero-norm cell"):
        analytic_refiner(state, good, zero, 4)
    with pytest.raises(ValueError, match="zero-norm cell"):
        analytic_refiner(state, zero, good, 4)
    with pytest.raises(ValueError, match="one width"):
        analytic_refiner(state, good, FeaturePyramid({4: np.ones((2, 2, 6))}), 4)


def test_refiner_window_zero_is_passthrough():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=6)
    grid = pyrA.grid(2)
    rng = np.random.default_rng(51)
    state = WarpField(grid, rng.uniform(-1, 1, (28, 28, 2)), rng.uniform(0, 1, (28, 28)))
    out = analytic_refiner(state, pyrA, pyrB, 2)
    assert out is state


def test_refiner_identity_scene_keeps_identity():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=7)
    grid = pyrA.grid(4)
    ident = scene_true_warp(identity_scene(), grid)
    state = WarpField(grid, ident.target_coords, np.full((14, 14), 0.5))
    out = analytic_refiner(state, pyrA, pyrB, 4)
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
    out = analytic_refiner(state, pyrA, pyrB, 4)
    err = np.linalg.norm(out.target_coords - true4.target_coords, axis=-1)
    mask = true4.certainty > 0
    assert np.median(err[mask]) < 0.25 * grid.cell_width


def test_refiner_certainty_increases_on_match():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=9)
    grid = pyrA.grid(8)
    ident = scene_true_warp(identity_scene(), grid)
    state = WarpField(grid, ident.target_coords, np.full((7, 7), 0.5))
    out = analytic_refiner(state, pyrA, pyrB, 8)
    assert np.all(out.certainty > 0.5)
    assert np.all(out.certainty <= 1.0)


def test_upsample_preserves_uniform_translation():
    scene = translation_scene((0.13, 0.06))
    coarse = scene_true_warp(scene, GridSpec(4, 4))
    up = upsample_warp(coarse, GridSpec(28, 28))
    want = scene_true_warp(scene, GridSpec(28, 28))
    assert np.allclose(up.target_coords, want.target_coords, atol=1e-12)


def four_tap_weights(grid, coords):
    """Stacked bilinear corners of ``(..., 2)`` points: ``(rows, cols, weights)``, each ``(..., 4)``."""
    c0, c1, fx = _axis_taps(coords[..., 0], grid.width)
    r0, r1, fy = _axis_taps(coords[..., 1], grid.height)
    rows = np.stack([r0, r0, r1, r1], axis=-1)
    cols = np.stack([c0, c1, c0, c1], axis=-1)
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx], axis=-1)
    return rows, cols, weights


def upsample_oracle(field, new_grid):
    """The 4-tap upsample: ``four_tap_weights`` at every new cell center, one gather."""
    old = field.grid
    flow = field.target_coords - old.cell_centers().reshape(old.height, old.width, 2)
    centers = new_grid.cell_centers()
    rows, cols, w = four_tap_weights(old, centers)
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


def assert_epes_match(got, want):
    """Same strides; values equal up to the rounding of composing the upsample hops."""
    assert [s for s, _ in got] == [s for s, _ in want]
    np.testing.assert_allclose([e for _, e in got], [e for _, e in want], rtol=1e-12, atol=0)


def stage_epes_oracle(stages, scene):
    """Per-stage EPE as it was computed: the 4-tap chain, then the truth mapped per stage."""
    grids = [w.grid for _, w in stages]
    out = []
    for i, (stride, field) in enumerate(stages):
        for grid in grids[i + 1 :]:
            field = upsample_oracle(field, grid)
        true = scene.map_points(field.grid.cell_centers())
        err = np.linalg.norm(field.target_coords.reshape(-1, 2) - true, axis=1)
        out.append((stride, float(err[in_extent(true)].mean())))
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
    assert [s for s, _ in stages] == list(CORR_WINDOWS)
    for stride, got in stages:
        if state.grid != got.grid:
            state = upsample_oracle(state, got.grid)
        state = analytic_refiner(state, pyrA, pyrB, stride)
        assert np.array_equal(got.target_coords, state.target_coords)
        assert np.array_equal(got.certainty, state.certainty)
    assert_epes_match(stage_epes(stages, scene), stage_epes_oracle(stages, scene))


def test_stage_epes_without_matchable_cells_is_rejected():
    scene = translation_scene((3.0, 0.0))  # every target leaves the extent
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=5)
    _, stages = run_cascade(pyrA, pyrB, scene_true_warp(scene, GridSpec(4, 4)))
    with pytest.raises(ValueError, match="no matchable cells"):
        stage_epes(stages, scene)
    assert stage_epes([], scene) == []


def test_stage_epes_reuse_needs_the_next_warp_to_be_the_upsample():
    # A hand-built stage list: the window-0 stages are *not* the upsample of
    # the stage before, so no EPE may be carried over from the next stage.
    scene = random_affine_scene(np.random.default_rng(11))
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=11)
    _, stages = run_cascade(pyrA, pyrB, scene_true_warp(scene, GridSpec(4, 4)))
    rng = np.random.default_rng(12)
    nudged = []
    for stride, w in stages:
        if CORR_WINDOWS[stride] == 0:
            shift = rng.uniform(-0.5, 0.5, w.target_coords.shape) * 2 / w.grid.width
            w = WarpField(w.grid, w.target_coords + shift, w.certainty)
        nudged.append((stride, w))
    got = stage_epes(nudged, scene)
    assert_epes_match(got, stage_epes_oracle(nudged, scene))
    assert len({e for _, e in got[2:]}) == 3  # strides 4, 2 and 1 now differ
    # Run-cascade output: strides 4, 2 and 1 share one EPE, as the oracle says.
    got = stage_epes(stages, scene)
    assert_epes_match(got, stage_epes_oracle(stages, scene))
    assert got[2][1] == got[3][1] == got[4][1]


def test_stage_epes_first_hop_is_upsample_warp_to_the_byte():
    # On a two-stage list the first stage's EPE is its first hop's alone, so it
    # must be the EPE of upsample_warp's target coordinates, bit for bit.
    scene = random_affine_scene(np.random.default_rng(13))
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=13)
    _, stages = run_cascade(pyrA, pyrB, scene_true_warp(scene, GridSpec(4, 4)))
    rng = np.random.default_rng(14)
    nudged = [(s, WarpField(w.grid, w.target_coords + rng.uniform(-0.02, 0.02, w.target_coords.shape), w.certainty))
              for s, w in stages]
    for chain in (stages, nudged):
        for (s0, w0), (s1, w1) in zip(chain, chain[1:]):
            true = scene.map_points(w1.grid.cell_centers())
            hop = upsample_warp(w0, w1.grid).target_coords.reshape(-1, 2)
            want = float(np.linalg.norm(hop - true, axis=1)[in_extent(true)].mean())
            got = stage_epes([(s0, w0), (s1, w1)], scene)[0][1]
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (s0, s1)


@pytest.mark.parametrize(
    "sizes",
    [
        [(4, 4), (7, 7), (14, 14), (28, 28)],
        [(3, 5), (7, 4), (14, 9), (15, 20)],  # non-square, uneven ratios
        [(1, 6), (2, 6), (5, 1), (9, 12)],  # single rows and columns
        [(12, 12), (6, 6), (6, 6), (18, 18)],  # a downsample, then the same grid twice
    ],
)
def test_stage_epes_composed_hops_match_the_upsample_chain(sizes):
    # Hand-built stages with no pass-through: every stage takes the composed path.
    rng = np.random.default_rng(sum(h * w for h, w in sizes))
    scene = random_affine_scene(rng)
    stages = []
    for k, (h, w) in enumerate(sizes):
        grid = GridSpec(h, w)
        true = scene_true_warp(scene, grid).target_coords
        stages.append((k, WarpField(grid, true + rng.normal(0.0, 0.1, true.shape), rng.uniform(0, 1, (h, w)))))
    assert_epes_match(stage_epes(stages, scene), stage_epes_oracle(stages, scene))


def test_cascade_identity_scene_identity_warp():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=10)
    g14 = GridSpec(4, 4)
    coarse = scene_true_warp(identity_scene(), g14)
    final, stages = run_cascade(pyrA, pyrB, coarse)
    assert final.grid == GridSpec(56, 56)
    assert stage_epes([(1, final)], identity_scene())[0][1] < 0.5 * FINE


def test_cascade_grid_mismatch_rejected():
    pyrA, pyrB = synth_pyramid(identity_scene(), BASE, seed=11)
    bad = scene_true_warp(identity_scene(), GridSpec(7, 7))
    with pytest.raises(ValueError, match="first refiner"):
        run_cascade(pyrA, pyrB, bad)


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


# --- the thread pool behind synth_pyramid and analytic_refiner -----------


def run_with_timeout(fn, seconds=60):
    """Run ``fn`` on one helper thread; fail instead of hanging if it never returns."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), "call did not finish: deadlock?"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.fixture
def two_cpus(monkeypatch):
    """Take the threaded path on any machine."""
    monkeypatch.setattr(cascade, "_usable_cpus", lambda: 2)


BIG = cascade.PARALLEL_MIN_ELEMENTS


def test_parallel_map_keeps_input_order(two_cpus):
    def task(k):
        time.sleep(0.05 if k == 0 else 0.0)  # the first task finishes last
        return k, threading.current_thread().name

    got = cascade._parallel_map(task, range(4), BIG)
    assert [k for k, _ in got] == [0, 1, 2, 3]
    assert all(name.startswith("matchkit") for _, name in got)


@pytest.mark.parametrize("cpus, elements", [(1, BIG), (2, BIG - 1)])
def test_parallel_map_runs_serially_on_one_cpu_or_small_tasks(monkeypatch, cpus, elements):
    monkeypatch.setattr(cascade, "_usable_cpus", lambda: cpus)
    names = cascade._parallel_map(lambda k: threading.current_thread().name, range(3), elements)
    assert names == [threading.current_thread().name] * 3


def test_parallel_map_reraises_the_first_failure_in_input_order(two_cpus):
    class Boom(Exception):
        pass

    done = []

    def task(k):
        time.sleep({1: 0.05, 3: 0.15}.get(k, 0.0))  # task 2 fails first, task 3 ends last
        if k in (1, 2):
            raise Boom(f"task {k} failed")
        done.append(k)
        return k

    with pytest.raises(Boom, match=r"^task 1 failed$"):
        cascade._parallel_map(task, range(4), BIG)
    assert sorted(done) == [0, 3]  # every task ran before the error surfaced


def test_nested_parallel_map_runs_serially_without_deadlock(two_cpus):
    def inner(k):
        return k, threading.current_thread().name

    def outer(k):
        return cascade._parallel_map(inner, [k, k + 10, k + 20], BIG)

    got = run_with_timeout(lambda: cascade._parallel_map(outer, range(4), BIG))
    assert [[k for k, _ in row] for row in got] == [[k, k + 10, k + 20] for k in range(4)]
    for row in got:  # each inner map stayed on its outer task's thread
        assert len({name for _, name in row}) == 1 and row[0][1].startswith("matchkit")


def test_concurrent_first_use_creates_one_pool(monkeypatch, two_cpus):
    # Eight callers race to create the pool, with frequent thread switches.
    monkeypatch.setattr(cascade, "_executor", None)
    workers, results = set(), []
    lock = threading.Lock()

    def task(k):
        with lock:
            workers.add(threading.get_ident())
        return k * k

    def caller(c):
        got = cascade._parallel_map(task, range(c, c + 6), BIG)
        with lock:
            results.append((c, got))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(c,)) for c in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(old_interval)
        if cascade._executor is not None:
            cascade._executor.shutdown()
    assert sorted(results) == [(c, [k * k for k in range(c, c + 6)]) for c in range(8)]
    assert len(workers) <= 2  # one pool of two workers served every caller


def serial_and_threaded(monkeypatch, fn, threshold=False):
    """``fn()`` with one usable CPU (or a threshold above every task) and with two."""
    if threshold:
        monkeypatch.setattr(cascade, "PARALLEL_MIN_ELEMENTS", 1 << 62)
    monkeypatch.setattr(cascade, "_usable_cpus", lambda: 2 if threshold else 1)
    serial = fn()
    monkeypatch.setattr(cascade, "PARALLEL_MIN_ELEMENTS", BIG)
    monkeypatch.setattr(cascade, "_usable_cpus", lambda: 2)
    return serial, run_with_timeout(fn)


@pytest.mark.parametrize("threshold", [False, True])
@pytest.mark.parametrize(
    "scene",
    [affine_scene([[1.02, 0.03], [-0.03, 0.98]], (0.1, -0.05)), two_translation_scene((-0.2, 0.0), (0.2, 0.05))],
)
def test_synth_pyramid_threads_are_bit_identical_to_serial(monkeypatch, scene, threshold):
    base = GridSpec(224, 224)
    assert base.n_cells * 32 >= BIG  # the threaded run really uses the pool
    serial, threaded = serial_and_threaded(monkeypatch, lambda: synth_pyramid(scene, base, seed=7), threshold)
    for got, want in zip(threaded, serial):
        assert list(got.levels) == list(want.levels)
        for s in CORR_WINDOWS:
            assert np.array_equal(got.features(s), want.features(s))


@pytest.mark.parametrize("threshold", [False, True])
@pytest.mark.parametrize("stride", [14, 8, 4])
def test_analytic_refiner_threads_are_bit_identical_to_serial(monkeypatch, stride, threshold):
    base = GridSpec(224, 224)
    scene = random_affine_scene(np.random.default_rng(stride))
    pyrA, pyrB = synth_pyramid(scene, base, seed=stride)
    grid, window = pyrA.grid(stride), CORR_WINDOWS[stride]
    assert grid.n_cells * window**2 * 32 // 2 >= BIG  # each of two blocks is large enough
    # Estimates near the truth, and some beyond the extent.
    coords = scene_true_warp(scene, grid).target_coords
    coords = coords + np.random.default_rng(1).uniform(-0.1, 0.1, coords.shape)
    state = WarpField(grid, coords, np.random.default_rng(2).uniform(0, 1, coords.shape[:2]))
    serial, threaded = serial_and_threaded(monkeypatch, lambda: analytic_refiner(state, pyrA, pyrB, stride), threshold)
    assert np.array_equal(threaded.target_coords, serial.target_coords)
    assert np.array_equal(threaded.certainty, serial.certainty)


SRC = str(Path(cascade.__file__).resolve().parents[1])


def run_fresh(code):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_small_work_starts_no_thread():
    # Base-56 work stays below PARALLEL_MIN_ELEMENTS, so it never pays for a
    # pool thread (and the memory arena that comes with one), even with two CPUs.
    counts = run_fresh(
        """
import threading
import numpy as np
import matchkit as mk
from matchkit import cascade
from matchkit.scalespace import affine_scene
cascade._usable_cpus = lambda: 2
print(threading.active_count())
scene = affine_scene([[1.01, 0.02], [-0.02, 0.99]], (0.05, -0.03))
pa, pb = mk.synth_pyramid(scene, mk.GridSpec(56, 56))
true14 = mk.scene_true_warp(scene, mk.GridSpec(4, 4))
mk.run_cascade(pa, pb, mk.WarpField(true14.grid, true14.target_coords, np.full((4, 4), 0.5)))
print(threading.active_count())
mk.synth_pyramid(scene, mk.GridSpec(224, 224))
print(threading.active_count())
"""
    )
    assert counts[:2] == ["1", "1"]
    assert int(counts[2]) > 1  # large work does use the pool


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_a_working_pool():
    # The child of a fork inherits the pool object but not its threads; it
    # must start its own instead of waiting forever on the inherited queue.
    out = run_fresh(
        """
import os
import matchkit as mk
from matchkit import cascade
from matchkit.scalespace import translation_scene
cascade._usable_cpus = lambda: 2
base, scene = mk.GridSpec(224, 224), translation_scene((0.1, 0.0))
want = mk.synth_pyramid(scene, base)[0].features(1)
pid = os.fork()
if pid == 0:
    got = mk.synth_pyramid(scene, base)[0].features(1)
    os._exit(0 if (got == want).all() else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    )
    assert out == ["0"]


def test_import_defers_the_thread_pool_module():
    # concurrent.futures costs every process milliseconds; only a pool needs it.
    assert run_fresh("import sys, matchkit; print('concurrent.futures' in sys.modules)") == ["False"]
