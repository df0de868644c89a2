import math
import os
import re
import subprocess
import sys
import tracemalloc
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
    synth_levels,
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
    with pytest.raises(KeyError):
        pyrA.grid(3)


def test_feature_pyramid_stores_plain_arrays():
    level4, level2 = np.ones((3, 5, 4)), np.zeros((6, 10, 4))
    pyr = FeaturePyramid({4: level4, 2: level2})
    assert pyr.features(4) is level4 and pyr.features(2) is level2  # stored, not rebuilt or copied
    assert pyr.grid(1) == GridSpec(12, 20)  # a stride of CORR_WINDOWS it does not store still has a grid
    with pytest.raises(KeyError):
        pyr.features(1)
    with pytest.raises(KeyError):
        pyr.features(14)


def test_validate_base():
    validate_base(BASE)
    with pytest.raises(ValueError):
        validate_base(GridSpec(48, 48))  # divisible by 8 but not by 14


def test_synth_identity_features_match():
    levelsA, levelsB = synth_levels(identity_scene(), BASE, (1,), seed=1)
    assert np.allclose(levelsA[1], levelsB[1])


def test_synth_translation_features_shifted():
    # Shift by exactly 7 fine cells: source features equal target features
    # displaced by 7 columns wherever both exist.
    shift_cells = 7
    scene = translation_scene((shift_cells * FINE, 0.0))
    levelsA, levelsB = synth_levels(scene, BASE, (1,), seed=2)
    fa = levelsA[1]
    fb = levelsB[1]
    assert np.allclose(fa[:, : 56 - shift_cells], fb[:, shift_cells:], atol=1e-10)


def test_synth_pooling_consistency():
    levels, _ = synth_levels(identity_scene(), BASE, (14, 2, 1), seed=3)
    lvl1 = levels[1]
    lvl2 = levels[2]
    children = lvl1[:2, :2].mean(axis=(0, 1))
    assert np.allclose(lvl2[0, 0], children, atol=1e-12)
    lvl14 = levels[14]
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


# A level entry is a mean of at most 14² = 196 terms of magnitude <= 1, each
# within an ulp of its value, so two orders of summation differ by at most
# 196 · 2⁻⁵³ ≈ 2.2e-14.
LEVEL_ATOL = 2.5e-14


def test_synth_levels_do_not_depend_on_the_other_strides_asked_for():
    scene = random_affine_scene(np.random.default_rng(6))
    every = synth_levels(scene, BASE, CORR_WINDOWS, feature_dim=8, seed=6)
    for strides in [(2,), (14, 1), (4, 8)]:
        some = synth_levels(scene, BASE, strides, feature_dim=8, seed=6)
        for levels_some, levels_every in zip(some, every):
            assert sorted(levels_some) == sorted(strides)
            assert all(np.array_equal(levels_some[s], levels_every[s]) for s in strides)


def test_synth_pyramid_levels_are_block_means_of_its_stride_1_level():
    scene = random_affine_scene(np.random.default_rng(4))
    for levels in synth_levels(scene, BASE, CORR_WINDOWS, feature_dim=8, seed=4):
        for s in CORR_WINDOWS:
            np.testing.assert_allclose(levels[s], block_mean_oracle(levels[1], s), rtol=0, atol=LEVEL_ATOL)


def three_strip_scene():
    """Three horizontal strips, each with its own affine motion."""
    return SceneSpec(
        (
            AffineRegion(lambda p: p[:, 1] < -0.3, np.array([[1.03, 0.02], [0.0, 0.97]]), np.array([0.05, 0.1])),
            AffineRegion(lambda p: (p[:, 1] >= -0.3) & (p[:, 1] < 0.4), np.eye(2), np.array([-0.12, 0.0])),
            AffineRegion(lambda p: p[:, 1] >= 0.4, np.array([[0.95, -0.04], [0.04, 0.95]]), np.array([0.0, -0.2])),
        )
    )


def two_halves_scene():
    """Top and bottom halves with their own motion, split at y = 0: a block edge at every stride and base."""
    return SceneSpec(
        (
            AffineRegion(lambda p: p[:, 1] < 0.0, np.array([[1.02, 0.0], [0.01, 0.99]]), np.array([0.1, 0.0])),
            AffineRegion(lambda p: p[:, 1] >= 0.0, np.eye(2), np.array([-0.1, 0.05])),
        )
    )


# Strides 14, 8 and 4 at base 224 and D = 32: (16² + 28² + 56²) · 32 · 8 bytes.
STORED_BYTES_224 = 1_069_056


def test_a_base_224_pair_retains_only_the_levels_a_stage_reads():
    scene = two_translation_scene((-0.2, 0.0), (0.2, 0.05))
    synth_pyramid(scene, GridSpec(224, 224), seed=3)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        pair = synth_pyramid(scene, GridSpec(224, 224), seed=3)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for pyr in pair:
        assert sum(f.nbytes for f in pyr.levels.values()) == STORED_BYTES_224
    assert retained <= 2 * STORED_BYTES_224 + 16_384  # the level arrays plus a few small objects


def test_the_cascade_never_builds_a_pass_through_level():
    base = GridSpec(224, 224)
    scene = random_affine_scene(np.random.default_rng(21))
    pyrA, pyrB = synth_pyramid(scene, base, seed=21)
    for pyr in (pyrA, pyrB):
        assert list(pyr.levels) == [14, 8, 4]  # the levels a refining stage reads
        assert [pyr.grid(s) for s in CORR_WINDOWS] == [GridSpec(224 // s, 224 // s) for s in CORR_WINDOWS]
        with pytest.raises(KeyError):
            pyr.features(2)
    for pyr, levels in zip((pyrA, pyrB), synth_levels(scene, base, (14, 8, 4), seed=21)):
        assert all(np.array_equal(pyr.features(s), levels[s]) for s in (14, 8, 4))
    states = {s: scene_true_warp(scene, pyrA.grid(s)) for s, w in CORR_WINDOWS.items() if w == 0}
    assert all(analytic_refiner(w, pyrA, pyrB, s) is w for s, w in states.items())
    run_cascade(pyrA, pyrB, scene_true_warp(scene, pyrA.grid(14)))
    # Building a pass-through level allocates no stride-1 array either.
    tracemalloc.start()
    try:
        assert synth_levels(scene, base, (2,), seed=21)[0][2].shape == (112, 112, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < base.n_cells * 32 * 8, peak


def diagonal_scene():
    """Two regions split along the diagonal x + y = 0.1: the boundary cuts blocks at every stride."""
    below = lambda p: p[:, 0] + p[:, 1] < 0.1
    return SceneSpec(
        (
            AffineRegion(below, np.array([[1.02, 0.01], [0.0, 0.98]]), np.array([0.05, -0.1])),
            AffineRegion(lambda p: ~below(p), np.eye(2), np.array([-0.1, 0.05])),
        )
    )


def disc_scene():
    """A rotating disc over a translating background."""
    inside = lambda p: p[:, 0] ** 2 + (p[:, 1] - 0.1) ** 2 < 0.35
    return SceneSpec(
        (
            AffineRegion(inside, np.array([[0.97, -0.03], [0.03, 0.97]]), np.array([0.1, 0.0])),
            AffineRegion(lambda p: ~inside(p), np.eye(2), np.array([-0.05, 0.02])),
        )
    )


@pytest.mark.parametrize("base", [56, 112, 224])
@pytest.mark.parametrize(
    "scene",
    [
        affine_scene([[1.02, 0.03], [-0.03, 0.98]], (0.1, -0.05)),
        two_translation_scene((-0.2, 0.0), (0.2, 0.05)),
        three_strip_scene(),
        two_halves_scene(),
        translation_scene((2.5, -1.5)),  # every target outside the extent
        diagonal_scene(),
        disc_scene(),
    ],
    ids=["affine", "two-translation", "three-strip", "two-halves", "out-of-extent", "diagonal", "disc"],
)
def test_every_level_is_a_block_mean_of_the_field_at_mapped_centers(scene, base):
    grid = GridSpec(base, base)
    field = FeatureField(32, seed=base)
    centers = grid.cell_centers()
    pair = synth_levels(scene, grid, CORR_WINDOWS, seed=base)
    for levels, pts in zip(pair, (scene.map_points(centers), centers)):
        level1 = field(pts).reshape(base, base, 32)
        for s in CORR_WINDOWS:
            got = levels[s]
            assert got.shape == (base // s, base // s, 32) and got.flags.c_contiguous
            want = level1.reshape(base // s, s, base // s, s, 32).mean(axis=(1, 3))
            np.testing.assert_allclose(got, want, rtol=0, atol=LEVEL_ATOL)


@pytest.mark.parametrize("scene", [diagonal_scene(), disc_scene()], ids=["diagonal", "disc"])
@pytest.mark.parametrize("base", [56, 112, 224])
def test_the_curved_boundaries_cut_stored_blocks(scene, base):
    # The oracle test above then covers blocks that straddle regions.
    grid = GridSpec(base, base)
    ids = scene.region_index(grid.cell_centers()).reshape(base, base)
    for s in (14, 8, 4):
        blocks = ids.reshape(base // s, s, base // s, s)
        assert np.any(blocks.min(axis=(1, 3)) != blocks.max(axis=(1, 3))), s


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
    # The level multiplies per-axis phasors; the scattered call is its oracle.
    grid = GridSpec(base, base)
    field = FeatureField(feature_dim, seed=base + feature_dim)
    centers = grid.cell_centers()
    levelsA, levelsB = synth_levels(scene, grid, (1,), feature_dim=feature_dim, seed=base + feature_dim)
    for levels, pts in ((levelsA, scene.map_points(centers)), (levelsB, centers)):
        got = levels[1]
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


def test_phasors_skip_phases_no_region_cell_uses():
    # A region that holds no cell centre may have any motion: no level reads its phasors.
    scene = SceneSpec(
        (
            AffineRegion(lambda p: np.abs(p[:, 0]) > 1e-3, np.eye(2), np.zeros(2)),
            AffineRegion(lambda p: np.abs(p[:, 0]) <= 1e-3, np.eye(2), np.array([np.inf, 0.0])),
        )
    )
    levelsA, levelsB = synth_levels(scene, BASE, CORR_WINDOWS, seed=1)
    assert np.array_equal(levelsA[1], levelsB[1])


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
    want = np.array([refiner_cell_oracle(pyrA, pyrB, state, stride, c, temperature) for c in range(grid.n_cells)])
    out = analytic_refiner(state, pyrA, pyrB, stride, temperature)  # the random estimates' bands span the grid
    got = np.column_stack([out.target_coords.reshape(-1, 2), out.certainty.reshape(-1)])
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    if temperature == 1.0:
        # The -1 entries beyond the extent, at their virtual lattice
        # coordinates, move a corner estimate: dropping them would show.
        dropped = [refiner_cell_oracle(pyrA, pyrB, state, stride, c, temperature, -np.inf) for c in range(4)]
        assert np.all(np.abs(np.array(dropped)[:, :2] - got[:4, :2]) > 1e-3)


def test_refiner_with_narrow_bands_matches_cell_loop_oracle():
    # Estimates near the truth give each source row a band of a few target rows.
    rng = np.random.default_rng(57)
    scene = random_affine_scene(rng)
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=5)
    grid = pyrA.grid(4)
    coords = scene_true_warp(scene, grid).target_coords + rng.uniform(-0.1, 0.1, (grid.height, grid.width, 2))
    state = WarpField(grid, coords, rng.uniform(0, 1, (grid.height, grid.width)))
    out = analytic_refiner(state, pyrA, pyrB, 4)
    got = np.column_stack([out.target_coords.reshape(-1, 2), out.certainty.reshape(-1)])
    want = np.array([refiner_cell_oracle(pyrA, pyrB, state, 4, c, 0.05) for c in range(grid.n_cells)])
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_refiner_with_mixed_bands_matches_cell_loop_oracle():
    # Source rows whose bands differ: near-truth rows of a few target rows,
    # one row spread over the whole target grid, and rows whose estimates sit
    # on the top and bottom edges, where the band is clipped to the grid.
    rng = np.random.default_rng(58)
    scene = random_affine_scene(rng)
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=7)
    grid = pyrA.grid(4)
    coords = scene_true_warp(scene, grid).target_coords + rng.uniform(-0.1, 0.1, (grid.height, grid.width, 2))
    coords[3] = rng.uniform(-1, 1, (grid.width, 2))
    coords[6, :, 1] = -1.0
    coords[9, :, 1] = 0.999
    state = WarpField(grid, coords, rng.uniform(0, 1, (grid.height, grid.width)))
    out = analytic_refiner(state, pyrA, pyrB, 4)
    got = np.column_stack([out.target_coords.reshape(-1, 2), out.certainty.reshape(-1)])
    want = np.array([refiner_cell_oracle(pyrA, pyrB, state, 4, c, 0.05) for c in range(grid.n_cells)])
    assert np.allclose(got, want, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("temperature", [float("nan"), 0.0, -1.0])
def test_refiner_refuses_a_temperature_that_is_not_positive(temperature):
    pyr = FeaturePyramid({4: np.eye(4).reshape(2, 2, 4)})
    grid = pyr.grid(4)
    state = WarpField(grid, grid.cell_centers().reshape(2, 2, 2), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match=f"^softargmax temperature must be positive, got {temperature}$"):
        analytic_refiner(state, pyr, pyr, 4, temperature)


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


def axis_tap(coord, n):
    """One query's bilinear taps along an axis of ``n`` cell centres: ``(i0, i1, f)``, clamped at the edges."""
    u = (coord + 1.0) / (2.0 / n) - 0.5
    i0 = min(max(math.floor(u), 0), max(n - 2, 0))
    f = min(max(u - i0, 0.0), 1.0) if n > 1 else 0.0
    return i0, min(i0 + 1, n - 1), f


def upsample_oracle(field, new_grid):
    """The separable upsample, one new cell at a time: along rows, then columns, each as ``(1 - f)·a + f·b``."""
    old = field.grid
    tc = field.target_coords
    planes = [
        (tc[..., 0] - old.axis_centers_x()).tolist(),
        (tc[..., 1] - old.axis_centers_y()[:, None]).tolist(),
        field.certainty.tolist(),
    ]
    new_x, new_y = new_grid.axis_centers_x(), new_grid.axis_centers_y()
    out = np.empty((3, new_grid.height, new_grid.width))
    for i, y in enumerate(new_y.tolist()):
        r0, r1, fy = axis_tap(y, old.height)
        for j, x in enumerate(new_x.tolist()):
            c0, c1, fx = axis_tap(x, old.width)
            for k, p in enumerate(planes):
                a = (1 - fy) * p[r0][c0] + fy * p[r1][c0]
                b = (1 - fy) * p[r0][c1] + fy * p[r1][c1]
                out[k, i, j] = (1 - fx) * a + fx * b
    coords = np.stack([out[0] + new_x, out[1] + new_y[:, None]], axis=-1)
    return WarpField(new_grid, coords, np.clip(out[2], 0.0, 1.0))


def four_tap_weights(grid, coords):
    """Stacked bilinear corners of ``(..., 2)`` points: ``(rows, cols, weights)``, each ``(..., 4)``."""
    c0, c1, fx = _axis_taps(coords[..., 0], grid.width)
    r0, r1, fy = _axis_taps(coords[..., 1], grid.height)
    rows = np.stack([r0, r0, r1, r1], axis=-1)
    cols = np.stack([c0, c1, c0, c1], axis=-1)
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx], axis=-1)
    return rows, cols, weights


def four_tap_upsample(field, new_grid):
    """The upsample by another route: ``four_tap_weights`` at every new cell center, one gather."""
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
def test_upsample_matches_loop_and_four_tap_oracles(src, dst):
    rng = np.random.default_rng(src[0] * 1000 + dst[1])
    # Targets beyond the extent and certainties at both ends of [0, 1].
    cert = rng.uniform(0.0, 1.0, src)
    cert.flat[:2] = [0.0, 1.0][: cert.size]
    field = WarpField(GridSpec(*src), rng.uniform(-1.3, 1.3, (*src, 2)), cert)
    got = upsample_warp(field, GridSpec(*dst))
    want = upsample_oracle(field, GridSpec(*dst))
    assert np.array_equal(got.target_coords, want.target_coords)
    assert np.array_equal(got.certainty, want.certainty)
    # The 4-tap sum rounds differently, by no more than an ulp or two.
    four = four_tap_upsample(field, GridSpec(*dst))
    np.testing.assert_allclose(got.target_coords, four.target_coords, rtol=0, atol=1e-15)
    np.testing.assert_allclose(got.certainty, four.certainty, rtol=0, atol=1e-15)


def stage_epes_oracle(stages, scene):
    """Per-stage EPE: the chain of loop-oracle upsamples, then the truth mapped per stage."""
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
def test_cascade_and_stage_epes_match_loop_oracle(base, kind):
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
    assert stage_epes(stages, scene) == stage_epes_oracle(stages, scene)


def test_stage_epes_without_matchable_cells_is_rejected():
    scene = translation_scene((3.0, 0.0))  # every target leaves the extent
    pyrA, pyrB = synth_pyramid(scene, BASE, seed=5)
    _, stages = run_cascade(pyrA, pyrB, scene_true_warp(scene, GridSpec(4, 4)))
    with pytest.raises(ValueError, match="no matchable cells"):
        stage_epes(stages, scene)
    assert stage_epes([], scene) == []


def pass_through_stages():
    """A cascade's stages, and a copy whose window-0 stages are nudged off the upsample of the stage before."""
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
    return scene, stages, nudged


def test_stage_epes_of_pass_through_stages_are_equal_only_when_untouched():
    # The nudged window-0 stages are *not* the upsample of the stage before,
    # so their EPEs must differ from their neighbours'.
    scene, stages, nudged = pass_through_stages()
    got = stage_epes(nudged, scene)
    assert got == stage_epes_oracle(nudged, scene)
    assert len({e for _, e in got[2:]}) == 3  # strides 4, 2 and 1 now differ
    # Run-cascade output: strides 4, 2 and 1 share one EPE, as the oracle says.
    got = stage_epes(stages, scene)
    assert got == stage_epes_oracle(stages, scene)
    assert got[2][1] == got[3][1] == got[4][1]


def test_stage_epes_reuses_the_chain_of_a_pass_through_stage(monkeypatch):
    # Only strides 14 and 8 hop into the last grid, plus stride 2's first hop,
    # which finds stride 1's coordinates; stride 4's first hop finds stride 2's.
    scene, stages, nudged = pass_through_stages()
    last = stages[-1][1].grid
    into_last = []

    def counting_hop(old, new, *planes):
        into_last.append(new == last)
        return hop(old, new, *planes)

    hop = cascade._hop
    monkeypatch.setattr(cascade, "_hop", counting_hop)
    for chain, hops in ((stages, 3), (nudged, 4)):
        into_last.clear()
        stage_epes(chain, scene)
        assert sum(into_last) == hops


def test_stage_epes_one_hop_is_upsample_warp_to_the_byte():
    # On a two-stage list the first stage's EPE is that of one hop, so it
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
def test_stage_epes_is_the_upsample_chain_on_uneven_grids(sizes):
    # Hand-built stages with no pass-through, on grids no cascade makes.
    rng = np.random.default_rng(sum(h * w for h, w in sizes))
    scene = random_affine_scene(rng)
    stages = []
    for k, (h, w) in enumerate(sizes):
        grid = GridSpec(h, w)
        true = scene_true_warp(scene, grid).target_coords
        stages.append((k, WarpField(grid, true + rng.normal(0.0, 0.1, true.shape), rng.uniform(0, 1, (h, w)))))
    assert stage_epes(stages, scene) == stage_epes_oracle(stages, scene)


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


def test_a_base_224_cascade_peaks_below_8_mb():
    # Gathering every window's target vectors took n x window² x D floats: 20 MB at stride 4 alone.
    scene = random_affine_scene(np.random.default_rng(7))
    pyrA, pyrB = synth_pyramid(scene, GridSpec(224, 224), seed=7)
    coarse = scene_true_warp(scene, pyrA.grid(14))
    run_cascade(pyrA, pyrB, coarse)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        run_cascade(pyrA, pyrB, coarse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_a_base_224_cascade_starts_no_thread():
    code = """
import threading
def refuse(thread):
    raise AssertionError(f"thread {thread.name} started")
threading.Thread.start = refuse
import matchkit as mk
from matchkit.scalespace import affine_scene
scene = affine_scene([[1.01, 0.02], [-0.02, 0.99]], (0.05, -0.03))
pa, pb = mk.synth_pyramid(scene, mk.GridSpec(224, 224))
print(len(mk.run_cascade(pa, pb, mk.scene_true_warp(scene, pa.grid(14)))[1]))
"""
    assert run_fresh(code) == ["5"]


def run_fresh(code):
    env = {**os.environ, "PYTHONPATH": str(Path(cascade.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_a_working_pool():
    # The child of a fork inherits the parent's memory but not BLAS's worker
    # threads; its banded gemms must still run and give the parent's result.
    out = run_fresh(
        """
import os
import matchkit as mk
from matchkit.scalespace import translation_scene
base, scene = mk.GridSpec(224, 224), translation_scene((0.1, 0.0))
pa, pb = mk.synth_pyramid(scene, base)
coarse = mk.scene_true_warp(scene, pa.grid(14))
want = mk.run_cascade(pa, pb, coarse)[0].target_coords
pid = os.fork()
if pid == 0:
    got = mk.run_cascade(pa, pb, coarse)[0].target_coords
    os._exit(0 if (got == want).all() else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    )
    assert out == ["0"]


def test_import_defers_the_thread_pool_module():
    # concurrent.futures costs every process milliseconds, and nothing in matchkit needs a pool.
    code = "import sys, matchkit; print('concurrent.futures' in sys.modules)"
    assert run_fresh(code) == ["False"]
