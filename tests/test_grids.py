import numpy as np
import pytest

from matchkit import (
    CorrespondenceSet,
    GridSpec,
    JointMatchDistribution,
    WarpField,
    bilinear_sample,
    normalize_joint,
)
from matchkit.grids import containing_cells


def enumerate_centers(grid):
    """Independent cell-center oracle: explicit loops, no shared formula path."""
    out = {}
    for row in range(grid.height):
        for col in range(grid.width):
            x = -1.0 + (2.0 / grid.width) * col + (1.0 / grid.width)
            y = -1.0 + (2.0 / grid.height) * row + (1.0 / grid.height)
            out[(row, col)] = (x, y)
    return out


def test_cell_centers_4x8_against_enumeration():
    g = GridSpec(4, 8)
    oracle = enumerate_centers(g)
    centers = g.cell_centers().reshape(4, 8, 2)
    for (row, col), expected in oracle.items():
        assert np.allclose(centers[row, col], expected, atol=1e-15)


def test_round_trip_all_grids_up_to_32():
    for h in (1, 2, 3, 5, 8, 13, 21, 32):
        for w in (1, 2, 4, 7, 16, 32):
            g = GridSpec(h, w)
            rows, cols = containing_cells(g.cell_centers(), g)
            assert np.array_equal(rows * w + cols, np.arange(g.n_cells))


def make_field(rng, h=5, w=5):
    coords = rng.uniform(-1, 1, (h, w, 2))
    cert = rng.uniform(0, 1, (h, w))
    return WarpField(GridSpec(h, w), coords, cert)


def brute_bilinear(field, x):
    """Direct bilinear formula written independently of the module."""
    g = field.grid
    u = (x[0] + 1.0) / (2.0 / g.width) - 0.5
    v = (x[1] + 1.0) / (2.0 / g.height) - 0.5
    u = min(max(u, 0.0), g.width - 1.0)
    v = min(max(v, 0.0), g.height - 1.0)
    c0 = min(int(np.floor(u)), g.width - 2) if g.width > 1 else 0
    r0 = min(int(np.floor(v)), g.height - 2) if g.height > 1 else 0
    fx = u - c0
    fy = v - r0
    acc_c = np.zeros(2)
    acc_p = 0.0
    for dr, dc, wgt in (
        (0, 0, (1 - fy) * (1 - fx)),
        (0, 1, (1 - fy) * fx),
        (1, 0, fy * (1 - fx)),
        (1, 1, fy * fx),
    ):
        rr = min(r0 + dr, g.height - 1)
        cc = min(c0 + dc, g.width - 1)
        acc_c += wgt * field.target_coords[rr, cc]
        acc_p += wgt * field.certainty[rr, cc]
    return acc_c, acc_p


def test_bilinear_exact_on_cell_centers():
    rng = np.random.default_rng(0)
    field = make_field(rng)
    c, p = bilinear_sample(field, field.grid.cell_centers().reshape(5, 5, 2))
    assert np.allclose(c, field.target_coords, atol=1e-12)
    assert np.allclose(p, field.certainty, atol=1e-12)


def test_bilinear_midpoint_is_mean_of_adjacent():
    rng = np.random.default_rng(1)
    field = make_field(rng)
    a, b = field.grid.cell_centers().reshape(5, 5, 2)[2, 1:3]
    c, p = bilinear_sample(field, (a + b) / 2)
    assert np.allclose(c, (field.target_coords[2, 1] + field.target_coords[2, 2]) / 2, atol=1e-12)
    assert np.isclose(p, (field.certainty[2, 1] + field.certainty[2, 2]) / 2, atol=1e-12)


def test_bilinear_random_queries_match_brute_force():
    rng = np.random.default_rng(2)
    field = make_field(rng)
    for _ in range(200):
        x = rng.uniform(-1.2, 1.2, 2)  # includes out-of-hull clamping cases
        got_c, got_p = bilinear_sample(field, x)
        want_c, want_p = brute_bilinear(field, x)
        assert np.allclose(got_c, want_c, atol=1e-12)
        assert np.isclose(got_p, want_p, atol=1e-12)


def test_bilinear_rejects_non_finite():
    field = make_field(np.random.default_rng(3))
    with pytest.raises(ValueError):
        bilinear_sample(field, np.array([np.nan, 0.0]))


def test_normalize_joint_uniform_and_delta():
    s = GridSpec(2, 2)
    t = GridSpec(2, 2)
    uni = normalize_joint(np.ones((4, 4)), s, t)
    assert np.allclose(uni.probs, 1.0 / 16.0)
    delta = np.zeros((4, 4))
    delta[1, 2] = 5.0
    d = normalize_joint(delta, s, t)
    assert d.probs[1, 2] == 1.0
    assert d.probs.sum() == 1.0


def test_normalize_joint_random_matches_brute_sum():
    rng = np.random.default_rng(4)
    s, t = GridSpec(3, 2), GridSpec(2, 3)
    raw = rng.uniform(0, 5, (6, 6))
    j = normalize_joint(raw, s, t)
    total = 0.0
    for row in raw:
        for v in row:
            total += v
    assert np.allclose(j.probs, raw / total)
    assert abs(j.probs.sum() - 1.0) < 1e-12


def test_normalize_joint_rejects_zero_and_negative():
    s = GridSpec(2, 2)
    with pytest.raises(ValueError):
        normalize_joint(np.zeros((4, 4)), s, s)
    bad = np.ones((4, 4))
    bad[0, 0] = -1.0
    with pytest.raises(ValueError):
        normalize_joint(bad, s, s)


def test_distribution_constructors_always_normalized():
    rng = np.random.default_rng(5)
    s, t = GridSpec(3, 3), GridSpec(2, 4)
    for _ in range(25):
        raw = rng.uniform(0.01, 2.0, (9, 8))
        joint = normalize_joint(raw, s, t)
        assert abs(joint.probs.sum() - 1.0) < 1e-12


def test_joint_constructor_rejects_unnormalized():
    s = GridSpec(2, 2)
    with pytest.raises(ValueError):
        JointMatchDistribution(s, s, np.full((4, 4), 0.1))


def test_correspondence_set_validation():
    cs = CorrespondenceSet(np.array([[0.0, 0.0]]), np.array([[0.5, -0.5]]), np.array([1.0]))
    assert len(cs) == 1
    with pytest.raises(ValueError, match="inside the extent"):
        CorrespondenceSet(np.array([[0.0, 0.0]]), np.array([[1.5, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        CorrespondenceSet(np.array([[0.0, 0.0]]), np.array([[0.5, 0.0]]), np.array([-1.0]))


def test_containers_are_immutable():
    field = make_field(np.random.default_rng(6))
    with pytest.raises(ValueError):
        field.target_coords[0, 0, 0] = 3.0
