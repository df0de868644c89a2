import math
import tracemalloc

import numpy as np
import pytest

from matchkit import (
    AnchorProbs,
    GridSpec,
    build_anchor_grid,
    closest_anchor,
    gaussian_anchor_probs,
    to_warp,
)
from matchkit.grids import containing_cells, in_extent


def mixture_density(probs, grid, x_a, x_b):
    """Oracle: the uniform-mixture conditional density of source cell ``x_a`` at
    target point ``x_b``, ``pi_{cell(x_b)}`` over the anchor cell's area
    ``(2 / rows) * (2 / cols)``; it integrates to one over the extent."""
    if probs.pi.shape[1] != grid.count:
        raise ValueError("pi width does not match anchor count")
    x_b = np.asarray(x_b, dtype=float)
    if not in_extent(x_b):
        raise ValueError(f"target point {x_b} outside extent")
    row, col = containing_cells(x_b, grid.as_grid_spec())
    return float(probs.pi[x_a, row * grid.cols + col] / ((2.0 / grid.rows) * (2.0 / grid.cols)))


def random_probs(rng, source, k):
    pi = rng.uniform(0.01, 1.0, (source.n_cells, k))
    pi /= pi.sum(axis=1, keepdims=True)
    return AnchorProbs(source, pi, rng.uniform(0, 1, source.n_cells))


def test_build_anchor_grid_small():
    g1 = build_anchor_grid(1, 1)
    assert g1.count == 1
    assert np.allclose(g1.anchors, [[0.0, 0.0]])

    g2 = build_anchor_grid(2, 2)
    assert sorted(map(tuple, g2.anchors.tolist())) == [
        (-0.5, -0.5),
        (-0.5, 0.5),
        (0.5, -0.5),
        (0.5, 0.5),
    ]


def test_build_anchor_grid_paper_scale():
    g = build_anchor_grid(64, 64)
    assert g.count == 4096
    # Uniform tight cover: cell side 2/64 on both axes.
    spec = g.as_grid_spec()
    assert spec.cell_width == spec.cell_height == 2 / 64
    assert np.isclose(g.anchors[0, 0], -1 + 1 / 64)


def test_build_anchor_grid_rejects_zero():
    with pytest.raises(ValueError):
        build_anchor_grid(0, 4)


def test_mixture_density_delta_and_uniform():
    grid = build_anchor_grid(2, 2)
    src = GridSpec(1, 1)
    delta = np.zeros((1, 4))
    delta[0, 3] = 1.0
    probs = AnchorProbs(src, delta, np.array([1.0]))
    assert mixture_density(probs, grid, 0, np.array([0.5, 0.5])) == 1.0
    assert mixture_density(probs, grid, 0, np.array([-0.5, 0.5])) == 0.0

    uniform = AnchorProbs(src, np.full((1, 4), 0.25), np.array([1.0]))
    for xb in ([0.1, 0.9], [-0.9, -0.9], [0.3, -0.2]):
        assert np.isclose(mixture_density(uniform, grid, 0, np.array(xb)), 0.25)


def test_mixture_density_integrates_to_one():
    # Quadrature oracle: midpoint rule on a fine grid aligned with anchors.
    rng = np.random.default_rng(7)
    grid = build_anchor_grid(4, 4)
    src = GridSpec(2, 2)
    probs = random_probs(rng, src, grid.count)
    n = 128  # multiple of 4, so quadrature cells nest inside anchor cells
    pts = GridSpec(n, n).cell_centers()
    da = (2.0 / n) ** 2
    for cell in range(src.n_cells):
        total = sum(mixture_density(probs, grid, cell, p) for p in pts) * da
        assert abs(total - 1.0) < 1e-6


def test_mixture_density_rejects_outside_extent():
    grid = build_anchor_grid(2, 2)
    probs = AnchorProbs(GridSpec(1, 1), np.full((1, 4), 0.25), np.array([1.0]))
    with pytest.raises(ValueError):
        mixture_density(probs, grid, 0, np.array([1.5, 0.0]))


def test_closest_anchor_at_centers_and_ties():
    grid = build_anchor_grid(4, 4)
    for k, m in enumerate(grid.anchors):
        assert closest_anchor(grid, m) == k
    # Midline between anchors 0 and 1: lower index wins.
    mid_x = 0.5 * (grid.anchors[0, 0] + grid.anchors[1, 0])
    assert closest_anchor(grid, np.array([mid_x, grid.anchors[0, 1]])) == 0
    # Four-way tie at a cell corner: lowest row-major index wins.
    corner = np.array([-0.5, -0.5])
    assert closest_anchor(grid, corner) == 0


def test_closest_anchor_matches_exhaustive_argmin():
    rng = np.random.default_rng(8)
    grid = build_anchor_grid(8, 8)
    anchors = grid.anchors
    for _ in range(500):
        x = rng.uniform(-1.3, 1.3, 2)  # off-extent queries still have a nearest anchor
        dists = [float(np.hypot(*(a - x))) for a in anchors]
        best = min(range(len(dists)), key=lambda i: (dists[i], i))
        assert closest_anchor(grid, x) == best


def literal_to_warp(pi_row, grid):
    """Line-by-line transcription of the decode rule, loops only."""
    k_star = 0
    for k in range(grid.count):
        if pi_row[k] > pi_row[k_star]:
            k_star = k
    row, col = divmod(k_star, grid.cols)
    neighborhood = [(row, col)]
    if col > 0:
        neighborhood.append((row, col - 1))
    if col < grid.cols - 1:
        neighborhood.append((row, col + 1))
    if row > 0:
        neighborhood.append((row - 1, col))
    if row < grid.rows - 1:
        neighborhood.append((row + 1, col))
    num = np.zeros(2)
    den = 0.0
    for r, c in neighborhood:
        k = r * grid.cols + c
        m_k = np.array(
            [-1 + (c + 0.5) * 2 / grid.cols, -1 + (r + 0.5) * 2 / grid.rows]
        )
        num += pi_row[k] * m_k
        den += pi_row[k]
    return num / den


def test_to_warp_delta_row():
    grid = build_anchor_grid(3, 3)
    src = GridSpec(1, 1)
    pi = np.zeros((1, 9))
    pi[0, 4] = 1.0
    w = to_warp(AnchorProbs(src, pi, np.array([0.5])), grid)
    assert np.allclose(w.target_coords[0, 0], grid.anchors[4])
    assert w.certainty[0, 0] == 0.5


def test_to_warp_two_adjacent_anchors_midpoint():
    grid = build_anchor_grid(1, 4)
    src = GridSpec(1, 1)
    pi = np.zeros((1, 4))
    pi[0, 1] = 0.5
    pi[0, 2] = 0.5
    w = to_warp(AnchorProbs(src, pi, np.array([1.0])), grid)
    midpoint = (grid.anchors[1] + grid.anchors[2]) / 2
    assert np.allclose(w.target_coords[0, 0], midpoint, atol=1e-12)


def test_to_warp_decodes_around_the_first_of_tied_maxima():
    grid = build_anchor_grid(3, 3)
    pi = np.full((1, 9), 0.05)
    pi[0, 1] = pi[0, 7] = 0.325  # anchors (0, 1) and (2, 1) tie
    w = to_warp(AnchorProbs(GridSpec(1, 1), pi, np.array([1.0])), grid)
    assert np.allclose(w.target_coords[0, 0], literal_to_warp(pi[0], grid), atol=1e-12)
    assert w.target_coords[0, 0, 1] < grid.anchors[4][1]  # pulled towards anchor 1, the first


def test_to_warp_does_not_copy_the_read_only_probabilities():
    rng = np.random.default_rng(13)
    grid = build_anchor_grid(64, 64)
    src = GridSpec(16, 16)
    probs = random_probs(rng, src, grid.count)
    assert probs.pi.shape == (256, 4096) and not probs.pi.flags.writeable
    to_warp(probs, grid)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        to_warp(probs, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak  # a copy of pi alone is 8.4 MB


def test_anchor_probs_keeps_read_only_probabilities_uncopied():
    rng = np.random.default_rng(14)
    pi = rng.uniform(0.01, 1.0, (256, 4096))
    pi /= pi.sum(axis=1, keepdims=True)
    pi.setflags(write=False)
    match = np.full(256, 0.5)
    AnchorProbs(GridSpec(16, 16), pi, match)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        probs = AnchorProbs(GridSpec(16, 16), pi, match)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.pi is pi
    assert peak < 1_000_000, peak  # a copy of pi alone is 8.4 MB
    # gaussian_anchor_probs hands out a read-only array that owns its memory.
    pi = gaussian_anchor_probs(build_anchor_grid(8, 8), np.zeros((4, 2)), 0.3)
    assert not pi.flags.writeable and AnchorProbs(GridSpec(2, 2), pi, np.ones(4)).pi is pi


@pytest.mark.parametrize("bad", [-1e-300, -np.inf, np.inf, np.nan])
def test_anchor_probs_refuses_negative_or_non_finite_probabilities(bad):
    pi = np.full((2, 4), 0.25)
    pi[1, 2] = bad
    with pytest.raises(ValueError, match="^anchor probabilities must be finite and nonnegative$"):
        AnchorProbs(GridSpec(1, 2), pi, np.ones(2))


def test_anchor_probs_copies_probabilities_something_can_write():
    pi = np.full((2, 4), 0.25)
    readonly_view = pi.view()  # read-only, but pi writes its memory
    readonly_view.setflags(write=False)
    kept = [AnchorProbs(GridSpec(1, 2), given, np.ones(2)).pi for given in (pi, readonly_view)]
    pi[0] = [1.0, 0.0, 0.0, 0.0]
    for got in kept:
        assert not got.flags.writeable and np.array_equal(got, np.full((2, 4), 0.25))


def test_to_warp_matches_literal_rule():
    rng = np.random.default_rng(9)
    grid = build_anchor_grid(8, 8)
    src = GridSpec(3, 3)
    for _ in range(100):
        probs = random_probs(rng, src, grid.count)
        w = to_warp(probs, grid)
        for cell in range(src.n_cells):
            want = literal_to_warp(probs.pi[cell], grid)
            got = w.target_coords[cell // 3, cell % 3]
            assert np.allclose(got, want, atol=1e-9)


def test_to_warp_stays_within_anchor_pitch_of_argmax():
    rng = np.random.default_rng(10)
    grid = build_anchor_grid(6, 6)
    src = GridSpec(4, 4)
    pitch = np.array([2 / grid.cols, 2 / grid.rows])
    for _ in range(50):
        probs = random_probs(rng, src, grid.count)
        w = to_warp(probs, grid)
        k_star = np.argmax(probs.pi, axis=1)
        for cell in range(src.n_cells):
            delta = np.abs(w.target_coords[cell // 4, cell % 4] - grid.anchors[k_star[cell]])
            assert np.all(delta <= pitch + 1e-12)


def test_to_warp_invariant_to_row_rescaling():
    rng = np.random.default_rng(11)
    grid = build_anchor_grid(5, 5)
    src = GridSpec(2, 2)
    probs = random_probs(rng, src, grid.count)
    scaled = probs.pi * 7.3
    rescaled = AnchorProbs(src, scaled / scaled.sum(axis=1, keepdims=True), probs.matchability)
    assert np.allclose(
        to_warp(probs, grid).target_coords, to_warp(rescaled, grid).target_coords, atol=1e-12
    )


def test_gaussian_discretization_decodes_within_one_cell():
    rng = np.random.default_rng(12)
    grid = build_anchor_grid(8, 8)
    src = GridSpec(1, 1)
    cell_side = 2 / 8
    for _ in range(100):
        target = rng.uniform(-1 + cell_side, 1 - cell_side, 2)
        pi = gaussian_anchor_probs(grid, target, sigma=0.3 * cell_side)
        w = to_warp(AnchorProbs(src, pi, np.array([1.0])), grid)
        err = np.linalg.norm(w.target_coords[0, 0] - target)
        assert err < cell_side


def test_anchor_probs_rejects_zero_row():
    with pytest.raises(ValueError):
        AnchorProbs(GridSpec(1, 1), np.zeros((1, 4)), np.array([1.0]))


@pytest.mark.parametrize("sigma", [0.0, -0.1, float("nan"), float("inf")])
def test_gaussian_anchor_probs_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        gaussian_anchor_probs(build_anchor_grid(4, 4), np.zeros(2), sigma)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gaussian_anchor_probs_rejects_nonfinite_means(bad):
    means = np.array([[0.1, 0.2], [0.0, bad]])
    with pytest.raises(ValueError, match="means must be finite"):
        gaussian_anchor_probs(build_anchor_grid(4, 4), means, 0.1)


@pytest.mark.parametrize("shape", [(3, 3), (3, 1)])
def test_gaussian_anchor_probs_refuses_means_that_are_not_pairs(shape):
    with pytest.raises(ValueError) as err:
        gaussian_anchor_probs(build_anchor_grid(4, 4), np.zeros(shape), 0.1)
    assert str(err.value) == f"means must have shape (N, 2), got {shape}"


@pytest.mark.parametrize("shape", [(3, 3), (3, 1), (2, 2, 3)])
def test_closest_anchor_refuses_points_that_are_not_pairs(shape):
    with pytest.raises(ValueError) as err:
        closest_anchor(build_anchor_grid(4, 4), np.zeros(shape))
    assert str(err.value) == f"query points must have shape (..., 2), got {shape}"


def gaussian_anchor_probs_oracle(grid, means, sigma):
    """The all-cells formula: ``math.erf`` at every cell edge, then the per-row renormalization."""
    erf = np.frompyfunc(math.erf, 1, 1)
    means = np.atleast_2d(np.asarray(means, dtype=float))

    def cdf(edges, mu):
        return 0.5 * (1.0 + erf((edges[None, :] - mu) / (sigma * math.sqrt(2.0))).astype(float))

    mass_x = np.diff(cdf(-1.0 + np.arange(grid.cols + 1) * (2.0 / grid.cols), means[:, 0:1]), axis=1)
    mass_y = np.diff(cdf(-1.0 + np.arange(grid.rows + 1) * (2.0 / grid.rows), means[:, 1:2]), axis=1)
    pi = (mass_y[:, :, None] * mass_x[:, None, :]).reshape(means.shape[0], grid.count)
    return pi / pi.sum(axis=1, keepdims=True)


def test_erf_saturates_at_six():
    # gaussian_anchor_probs skips math.erf where |u| >= 6 and uses +-1 there;
    # that is exact only on a libm whose erf has rounded to +-1.0 by then.
    assert math.erf(6.0) == 1.0 and math.erf(-6.0) == -1.0


@pytest.mark.parametrize("sigma", [1e-3, 2 / 64, 0.08, 0.3, 5.0])
@pytest.mark.parametrize("shape", [(64, 64), (8, 5), (1, 3)])
def test_gaussian_anchor_probs_is_bit_identical_to_the_all_cells_formula(sigma, shape):
    grid = build_anchor_grid(*shape)
    rng = np.random.default_rng(shape[1])
    inside = rng.uniform(-1.0, 1.0, (40, 2))
    # Means outside the extent, but within reach of it at every sigma above.
    outside = np.array([[1.0 + 2 * sigma, 0.3], [-0.2, -1.0 - 4 * sigma], [-1.0 - sigma, 1.0 + sigma], [1.0, -1.0]])
    edges = np.array([[0.0, 0.0], [-1.0, 1.0], [2 / shape[1] - 1.0, 0.5]])  # on cell edges
    means = np.concatenate([inside, outside, edges])
    got = gaussian_anchor_probs(grid, means, sigma)
    assert np.array_equal(got, gaussian_anchor_probs_oracle(grid, means, sigma))


@pytest.mark.parametrize(
    "means, sigma, named",
    [
        ([(0.1, 0.2), (1.2, 0.0), (5.0, 5.0)], 0.01, "(1.2, 0)"),  # 20 sigma right of the extent
        ([(0.1, 0.2), (0.3, -1.5)], 0.05, "(0.3, -1.5)"),  # 10 sigma below it
        ([(0.25, -0.5), (0.0, 0.0)], 1e20, "(0.25, -0.5)"),  # every cell's mass rounds to 0
        ([(0.0, 0.0)], 1e308, "(0, 0)"),  # sigma * sqrt(2) overflows
    ],
)
def test_gaussian_anchor_probs_refuses_a_row_without_in_extent_mass(means, sigma, named):
    with pytest.raises(ValueError) as info:
        gaussian_anchor_probs(build_anchor_grid(8, 8), np.array(means), sigma)
    assert str(info.value) == f"sigma {sigma:g} leaves no mass inside the extent for the mean {named}"


def test_gaussian_anchor_probs_keeps_a_row_with_little_in_extent_mass():
    # About 7 sigma outside: the mass left is tiny but representable, and renormalized.
    pi = gaussian_anchor_probs(build_anchor_grid(8, 8), np.array([[1.07, 0.0]]), 0.01)
    assert np.all(np.isfinite(pi)) and abs(pi.sum() - 1.0) < 1e-12
