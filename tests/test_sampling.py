import re
import tracemalloc
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

from matchkit import (
    CorrespondenceSet,
    GridSpec,
    WarpField,
    balanced_sample,
    certainty_sample,
    kde_density,
    spatial_entropy,
)
from matchkit import sampling
from matchkit.sampling import KDE_BLOCK_ENTRIES, _draw_without_replacement

PROPERTY = settings(deadline=None, derandomize=True, database=None)


def single_block_kde(points, h):
    """Oracle: the whole pairwise matrix in one expression, in the library's order."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sq = (points**2).sum(axis=1)
    d2 = sq[:, None] - 2.0 * points @ points.T + sq[None, :]
    dens = np.exp(-0.5 * np.maximum(d2, 0.0) / (h * h)).sum(axis=1)
    return dens / (2.0 * np.pi * h * h) ** (points.shape[1] / 2.0)


def sequential_draw(rng, weights, n):
    """Oracle: one weighted pick at a time, renormalizing after each."""
    weights = weights.astype(float).copy()
    picks = np.empty(n, dtype=int)
    for i in range(n):
        total = weights.sum()
        if total <= 0:
            raise ValueError("ran out of positive-weight candidates")
        picks[i] = rng.choice(weights.size, p=weights / total)
        weights[picks[i]] = 0.0
    return picks


def test_kde_single_point():
    h = 0.3
    got = kde_density(np.zeros((1, 4)), h)
    assert np.isclose(got[0], (2 * np.pi * h * h) ** -2)


def test_kde_coincident_points_double():
    h = 0.25
    pts = np.zeros((2, 4))
    got = kde_density(pts, h)
    single = (2 * np.pi * h * h) ** -2
    assert np.allclose(got, 2 * single)


def test_kde_matches_brute_force_double_loop():
    rng = np.random.default_rng(70)
    pts = rng.uniform(-1, 1, (100, 4))
    h = 0.4
    got = kde_density(pts, h)
    want = np.zeros(100)
    for i in range(100):
        for j in range(100):
            d2 = float(((pts[i] - pts[j]) ** 2).sum())
            want[i] += np.exp(-0.5 * d2 / (h * h))
    want /= (2 * np.pi * h * h) ** 2
    assert np.max(np.abs(got - want)) < 1e-10


def test_kde_rejects_bad_bandwidth():
    for h in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="bandwidth"):
            kde_density(np.zeros((3, 4)), h)


def test_kde_refuses_bandwidths_that_under_or_overflow():
    # Unrefused, each of these warns and gives NaN, infinite or all-zero densities.
    pts = np.random.default_rng(74).uniform(-1, 1, (50, 4))
    for h in (1e-200, 1e-170, 1e-100, 5e-78, 1e77, 1e160, 1e300):  # 5e-78: m / norm overflows
        message = re.escape(f"bandwidth {h:g} is out of range for these 4-D points: ")
        with pytest.raises(ValueError, match="^" + message):
            kde_density(pts, h)
    with pytest.raises(ValueError, match="out of range for these 1-D points"):
        kde_density([[1e200], [0.0]], 1e-120)  # |p / h|^2 overflows, h^2 does not
    # Just inside the range, distinct points keep only their self-kernels.
    h = 1e-76
    assert np.array_equal(kde_density(pts, h), np.full(50, 1.0 / (2 * np.pi * h * h) ** 2))


def test_kde_rejects_nonfinite_points():
    for bad in (np.nan, np.inf):
        pts = np.zeros((5, 4))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kde_density(pts, 0.2)


def test_kde_blocks_match_single_block_oracle_at_block_boundaries():
    # KDE_BLOCK_ENTRIES // m rows per block: one block up to m = 447, then a
    # short last block (446 + 2 rows at m = 448), then several.
    rng = np.random.default_rng(72)
    side = int(KDE_BLOCK_ENTRIES**0.5)
    for m in (1, 2, side - 1, side, side + 1, side + 2, 2 * side + 3):
        pts = rng.uniform(-1, 1, (m, 4))
        got, want = kde_density(pts, 0.3), single_block_kde(pts, 0.3)
        assert np.max(np.abs(got - want) / want) <= 1e-12, m


def test_kde_permuted_points_give_permuted_densities():
    # The column sums of each row block land on later rows: a permutation
    # moves every pair across blocks and between the row and column roles.
    rng = np.random.default_rng(75)
    m = 1000
    assert m // (KDE_BLOCK_ENTRIES // m) >= 3  # row blocks
    for h in (0.05, 0.15, 0.6):
        pts = rng.uniform(-1, 1, (m, 4))
        perm = rng.permutation(m)
        got, want = kde_density(pts[perm], h), kde_density(pts, h)[perm]
        assert np.max(np.abs(got - want) / want) <= 1e-13, h


def test_kde_duplicates_across_block_boundaries_get_equal_densities():
    rng = np.random.default_rng(76)
    m = 1000
    rows = KDE_BLOCK_ENTRIES // m
    pts = rng.uniform(-1, 1, (m, 4))
    pairs = ((rows - 1, rows), (0, m - 1), (rows, 2 * rows + 1))  # across one, all and two boundaries
    for i, j in pairs:
        pts[j] = pts[i]
    for h in (0.05, 0.15, 0.6):
        dens = kde_density(pts, h)
        for i, j in pairs:
            assert abs(dens[i] - dens[j]) <= 1e-13 * dens[i], (h, i, j)


def test_kde_peak_memory_is_one_block_plus_vectors():
    # m^2 terms would be 512 MiB at m = 8192; the buffer holds at most
    # KDE_BLOCK_ENTRIES of them, beside the (m, d + 2) gemm operands and a
    # few length-m vectors.
    m, d = 8192, 4
    pts = np.random.default_rng(77).uniform(-1, 1, (m, d))
    tracemalloc.start()
    try:
        kde_density(pts, 0.15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= KDE_BLOCK_ENTRIES * 8 + (2 * (d + 2) + 4) * m * 8, peak


@PROPERTY
@given(
    m=st.integers(1, 60),
    d=st.integers(1, 4),
    h=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**16),
)
def test_kde_matches_single_block_oracle(m, d, h, seed):
    pts = np.random.default_rng(seed).uniform(-1, 1, (m, d))
    got, want = kde_density(pts, h), single_block_kde(pts, h)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_draw_matches_sequential_oracle_in_distribution():
    # 20k seeded draws of 3 from 6 weights by each method: the ordered picks
    # (which fix the included sets) must be alike by a chi-square test of
    # homogeneity on the 120 possible orders, and so must the 20 sets.
    weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    orders = {o: i for i, o in enumerate(permutations(range(6), 3))}
    counts = np.zeros((2, len(orders)))
    for seed in range(20_000):
        for row, draw in enumerate((_draw_without_replacement, sequential_draw)):
            picks = draw(np.random.default_rng(seed), weights, 3)
            counts[row, orders[tuple(int(i) for i in picks)]] += 1
    assert chi2_contingency(counts)[1] > 1e-3
    subsets = sorted({frozenset(o) for o in orders}, key=sorted)
    by_set = np.zeros((2, len(subsets)))
    for order, col in orders.items():
        by_set[:, subsets.index(frozenset(order))] += counts[:, col]
    assert chi2_contingency(by_set)[1] > 1e-3


class FixedRng:
    """Stands in for a Generator whose uniforms are ``values``."""

    def __init__(self, *values):
        self.values = np.array(values)

    def random(self, size):
        assert size == self.values.size
        return self.values


def test_draw_only_positive_weights_and_ties_by_index():
    weights = np.array([0.0, 1.0, -2.0, 1.0, np.nan, 1.0])
    for seed in range(50):
        picks = _draw_without_replacement(np.random.default_rng(seed), weights, 3)
        assert sorted(picks.tolist()) == [1, 3, 5]
    with pytest.raises(ValueError, match="ran out"):
        _draw_without_replacement(np.random.default_rng(0), weights, 4)
    # Equal uniforms give equal keys to equal weights: the lower index goes
    # first. A uniform of exactly 0 is taken as u = 1, the largest key.
    assert _draw_without_replacement(FixedRng(0.5, 0.5, 0.5), weights, 2).tolist() == [1, 3]
    assert _draw_without_replacement(FixedRng(0.5, 0.5, 0.0), weights, 2).tolist() == [5, 1]


def test_draw_rejects_nonpositive_counts():
    for n in (0, -1, -5):
        with pytest.raises(ValueError, match="at least one"):
            _draw_without_replacement(np.random.default_rng(0), np.ones(6), n)


def uniform_warp(n=10):
    g = GridSpec(n, n)
    centers = g.cell_centers().reshape(n, n, 2)
    return WarpField(g, centers, np.full((n, n), 0.7))


def cluster_warp(seed, n=40):
    """90/10 two-cluster candidate set; everything else has certainty 0.

    Each cluster is a compact source block mapping to a tight target blob, so
    the joint-space KDE sees two well-separated clusters of very different
    population. Blocks are aligned with the 4x4 entropy binning.
    """
    rng = np.random.default_rng(seed)
    g = GridSpec(n, n)
    coords = np.zeros((n, n, 2))
    cert = np.zeros((n, n))
    blob_a = np.array([-0.7, -0.7])
    blob_b = np.array([0.7, 0.75])
    for r in range(0, 10):
        for c in range(0, 9):
            coords[r, c] = blob_a + 0.03 * rng.normal(size=2)
            cert[r, c] = 0.8
    for r in range(34, 36):
        for c in range(34, 39):
            coords[r, c] = blob_b + 0.03 * rng.normal(size=2)
            cert[r, c] = 0.8
    return WarpField(g, np.clip(coords, -1, 1), cert)


def in_small_cluster(xa):
    return (xa[:, 0] > 0.5) & (xa[:, 1] > 0.5)


def test_uniform_candidates_sample_uniformly():
    # With a bandwidth far below the cell spacing every density reduces to the
    # self-kernel, so selection is exactly uniform; pooled counts over 30
    # seeds against 20 index bins pass a chi-square test.
    counts = np.zeros(100)
    for seed in range(30):
        cs = balanced_sample(uniform_warp(), 30, h=0.02, seed=seed)
        cols = ((cs.xa[:, 0] + 1) / 0.2).astype(int)
        rows = ((cs.xa[:, 1] + 1) / 0.2).astype(int)
        for cell in rows * 10 + cols:
            counts[cell] += 1
    binned = counts.reshape(20, 5).sum(axis=1)
    _, p = chisquare(binned)
    assert p > 0.01


def test_two_cluster_rebalancing():
    shares = []
    for seed in range(30):
        cs = balanced_sample(cluster_warp(seed), 20, h=0.6, seed=seed)
        shares.append(1.0 - float(np.mean(in_small_cluster(cs.xa))))
    assert np.mean(shares) <= 0.65
    assert np.mean(shares) < 0.9  # strictly more balanced than the 90/10 pool


def test_balanced_entropy_beats_certainty_only():
    wins = 0
    seeds = 50
    for seed in range(seeds):
        warp = cluster_warp(seed)
        bal = balanced_sample(warp, 20, h=0.6, seed=seed)
        base = certainty_sample(warp, 20, seed=seed)
        wins += spatial_entropy(bal) >= spatial_entropy(base)
    assert wins >= 0.9 * seeds


def test_zero_certainty_cells_never_sampled():
    g = GridSpec(6, 6)
    centers = g.cell_centers().reshape(6, 6, 2)
    cert = np.full((6, 6), 0.5)
    cert[2:4, 2:4] = 0.0
    warp = WarpField(g, centers, cert)
    cs = balanced_sample(warp, 30, h=0.2, seed=1)
    inside_dead_zone = (np.abs(cs.xa[:, 0]) < 0.34) & (np.abs(cs.xa[:, 1]) < 0.34)
    assert not np.any(inside_dead_zone)


def test_sample_weights_are_certainties():
    rng = np.random.default_rng(71)
    g = GridSpec(5, 5)
    cert = rng.uniform(0.1, 1.0, (5, 5))
    warp = WarpField(g, g.cell_centers().reshape(5, 5, 2), cert)
    cs = balanced_sample(warp, 10, h=0.3, seed=2)
    for i in range(10):
        row = int((cs.xa[i, 1] + 1) / g.cell_height)
        col = int((cs.xa[i, 0] + 1) / g.cell_width)
        assert np.isclose(cs.weights[i], cert[row, col])


def test_sampling_deterministic_per_seed():
    warp = cluster_warp(3)
    a = balanced_sample(warp, 15, h=0.6, seed=11)
    b = balanced_sample(warp, 15, h=0.6, seed=11)
    assert np.array_equal(a.xa, b.xa) and np.array_equal(a.xb, b.xb)
    c = balanced_sample(warp, 15, h=0.6, seed=12)
    assert not np.array_equal(a.xa, c.xa)


def test_insufficient_candidates_raise():
    warp = uniform_warp(4)
    with pytest.raises(ValueError, match="candidates"):
        balanced_sample(warp, 17, h=0.2, seed=0)


def test_samplers_reject_nonpositive_counts():
    warp = uniform_warp(4)
    for n in (0, -3):
        with pytest.raises(ValueError, match="candidates"):
            balanced_sample(warp, n, h=0.2, seed=0)
        with pytest.raises(ValueError, match="candidates"):
            certainty_sample(warp, n, seed=0)


def test_weights_always_finite():
    # Extremely concentrated candidates drive the KDE high; the weight floor
    # keeps everything finite.
    g = GridSpec(8, 8)
    coords = np.tile(np.array([0.3, -0.2]), (8, 8, 1))
    warp = WarpField(g, coords, np.full((8, 8), 0.9))
    cs = balanced_sample(warp, 20, h=0.05, seed=5)
    assert np.all(np.isfinite(cs.weights))


@PROPERTY
@given(
    st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
        | st.sampled_from([(-1.0, -1.0), (1.0, 1.0), (-0.5, 0.0), (0.5, -0.5), (0.0, 0.25)]),
        min_size=1,
        max_size=60,
    )
)
def test_spatial_entropy_bins_match_truncation_oracle(points):
    # At power-of-two bin counts, including ENTROPY_BINS = 4, the cell lookup
    # floor((x + 1) / (2 / bins)) equals the truncation (x + 1) / 2 * bins
    # bit for bit, so every point lands in the same bin as before.
    xa = np.array(points, dtype=float)
    cs = CorrespondenceSet(xa, xa, np.ones(len(xa)))
    for bins in (1, 2, 4, 8):
        ix = np.clip(((xa[:, 0] + 1.0) / 2.0 * bins).astype(int), 0, bins - 1)
        iy = np.clip(((xa[:, 1] + 1.0) / 2.0 * bins).astype(int), 0, bins - 1)
        p = np.bincount(iy * bins + ix, minlength=bins * bins) / len(xa)
        nz = p[p > 0]
        with mock.patch.object(sampling, "ENTROPY_BINS", bins):
            assert spatial_entropy(cs) == float(-(nz * np.log(nz)).sum())
    assert sampling.ENTROPY_BINS == 4
