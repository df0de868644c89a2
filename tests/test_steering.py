import numpy as np
import pytest

from matchkit import (
    RotationAction,
    SteeringMatrix,
    apply_steering,
    fit_steering_l1,
    fit_steering_lsq,
    mutual_nn_match,
    random_c4_steering,
    rotate_keypoints,
    rotation_matching_eval,
    synth_equivariant,
)
from matchkit.steering import MNN_BLOCK_ROWS, DescriptorSet, _mutual_nn_indices


def full_matrix_mutual_nn(descs_a, descs_b):
    """Oracle: the whole similarity matrix, argmax along each axis."""
    na = np.linalg.norm(descs_a, axis=1)
    nb = np.linalg.norm(descs_b, axis=1)
    sim = (descs_a @ descs_b.T) / np.outer(na, nb)
    nn_ab = np.argmax(sim, axis=1)  # first max wins on ties
    nn_ba = np.argmax(sim, axis=0)
    ids = np.arange(descs_a.shape[0])
    mutual = nn_ba[nn_ab] == ids
    ia = ids[mutual]
    ib = nn_ab[mutual]
    return ia, ib, sim[ia, ib]


def loop_l1_term_gradient(w, k, base, rotated):
    """Oracle: loss and subgradient of the k-step term, every power recomputed."""
    wk = np.linalg.matrix_power(w, k)
    residual = rotated.descs - base.descs @ wk.T
    loss = float(np.abs(residual).sum())
    g_m = -np.sign(residual).T @ base.descs  # d loss / d (W^k)
    grad = np.zeros_like(w)
    for j in range(k):
        left = np.linalg.matrix_power(w, j).T
        right = np.linalg.matrix_power(w, k - 1 - j).T
        grad += left @ g_m @ right
    return loss, grad


def loop_multi_k_l1_loss(w, pairs):
    total = 0.0
    for k, (base, rotated) in pairs.items():
        wk = np.linalg.matrix_power(w, k)
        total += float(np.abs(rotated.descs - base.descs @ wk.T).sum())
    return total


def loop_fit_steering_l1(pairs, iters, step, seed, init=None, patience=50):
    """Oracle: the L1 fit with each term's powers and residuals recomputed per use.

    Returns (w, initial_loss, final_loss, iterations, final_step).
    """
    w = fit_steering_lsq(*pairs[min(pairs)])[0].w.copy() if init is None else np.array(init)
    rng = np.random.default_rng(seed)
    ks = sorted(pairs)
    initial = loop_multi_k_l1_loss(w, pairs)
    best_loss, best_w = initial, w.copy()
    since_improvement = it = 0
    current_step = float(step)
    for it in range(1, iters + 1):
        k = int(rng.choice(ks))
        with np.errstate(over="ignore", invalid="ignore"):
            _, grad = loop_l1_term_gradient(w, k, *pairs[k])
            w = w - current_step * grad
            loss = loop_multi_k_l1_loss(w, pairs)
        if loss < best_loss - 1e-15:
            best_loss, best_w, since_improvement = loss, w.copy(), 0
        else:
            since_improvement += 1
        if since_improvement >= patience or not np.isfinite(loss):
            current_step *= 0.5
            since_improvement = 0
            w = best_w.copy()
            if current_step < 1e-18:
                break
    return best_w, initial, best_loss, it, current_step


def fit_fields(res):
    return res.w.w, res.initial_loss, res.final_loss, res.iterations, res.final_step


def assert_same_fit(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


def test_rotate_keypoints_basics():
    pts = np.array([[1.0, 0.0]])
    assert np.allclose(rotate_keypoints(pts, RotationAction(0)), pts)
    assert np.allclose(rotate_keypoints(pts, RotationAction(1)), [[0.0, 1.0]])
    assert np.allclose(rotate_keypoints(pts, RotationAction(2)), [[-1.0, 0.0]])


def test_rotate_keypoints_four_turns_identity():
    rng = np.random.default_rng(60)
    pts = rng.uniform(-1, 1, (200, 2))
    out = pts
    for _ in range(4):
        out = rotate_keypoints(out, RotationAction(1))
    assert np.max(np.abs(out - pts)) < 1e-12


def test_rotate_about_offset_center():
    pts = np.array([[0.5, 0.2]])
    out = rotate_keypoints(pts, RotationAction(1, center=(0.5, 0.2)))
    assert np.allclose(out, pts)


def test_random_c4_steering_is_involution_root():
    for seed in range(5):
        w = random_c4_steering(32, seed=seed)
        assert np.array_equal(w.power(4), np.eye(32))
        assert np.max(np.abs(w.power(2) @ w.power(2) - np.eye(32))) == 0.0


def test_power_matches_repeated_products_bit_for_bit():
    # synth_equivariant and apply_steering only use k <= 3, where
    # np.linalg.matrix_power forms exactly the loop's products.
    rng = np.random.default_rng(60)
    for _ in range(20):
        w = SteeringMatrix(rng.normal(size=(16, 16)))
        loop = np.eye(16)
        for k in range(4):
            assert np.array_equal(w.power(k), loop)
            loop = loop @ w.w
    with pytest.raises(ValueError, match="nonnegative"):
        w.power(-1)


def test_synth_equivariant_construction():
    w = random_c4_steering(16, seed=1)
    sets = synth_equivariant(40, 16, w_true=w, noise_sigma=0.0, seed=2)
    base = sets[0]
    for k in (1, 2, 3):
        assert np.allclose(sets[k].descs, base.descs @ w.power(k).T, atol=1e-12)
        assert np.allclose(
            sets[k].coords, rotate_keypoints(base.coords, RotationAction(k)), atol=1e-12
        )
    # Group consistency: one extra quarter turn links consecutive sets.
    for k in (1, 2, 3):
        assert np.allclose(sets[k].descs, sets[k - 1].descs @ w.w.T, atol=1e-12)


def test_synth_equivariant_deterministic():
    a = synth_equivariant(20, 8, noise_sigma=0.01, seed=9)
    b = synth_equivariant(20, 8, noise_sigma=0.01, seed=9)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.descs, sb.descs)


def test_lsq_identity_fit():
    sets = synth_equivariant(256, 16, noise_sigma=0.0, seed=3)
    w, resid = fit_steering_lsq(sets[0], sets[0])
    assert np.max(np.abs(w.w - np.eye(16))) < 1e-8
    assert resid < 1e-9


def test_lsq_recovers_truth_noiseless():
    w_true = random_c4_steering(16, seed=4)
    sets = synth_equivariant(64, 16, w_true=w_true, noise_sigma=0.0, seed=5)
    w, _ = fit_steering_lsq(sets[0], sets[1])
    assert np.linalg.norm(w.w - w_true.w) < 1e-6


def test_lsq_residual_tracks_noise():
    w_true = random_c4_steering(16, seed=6)
    sets = synth_equivariant(128, 16, w_true=w_true, noise_sigma=0.01, seed=7)
    _, resid = fit_steering_lsq(sets[0], sets[1])
    assert resid < 3 * 0.01
    assert resid > 0.01 / 3


def test_lsq_rank_deficient_without_ridge():
    coords = np.zeros((2, 2))
    descs = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])  # rank 1 < D
    a = DescriptorSet(coords, descs)
    with pytest.raises(ValueError, match="rank"):
        fit_steering_lsq(a, a, ridge=0.0)


def test_l1_fit_zero_at_truth():
    w_true = random_c4_steering(16, seed=8)
    sets = synth_equivariant(64, 16, w_true=w_true, noise_sigma=0.0, seed=9)
    pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
    res = fit_steering_l1(pairs, iters=5, step=1e-3, seed=0, init=w_true.w)
    assert res.initial_loss < 1e-10
    assert res.final_loss <= res.initial_loss
    assert np.allclose(res.w.w, w_true.w, atol=1e-9)


def test_l1_fit_converges_from_random_init():
    w_true = random_c4_steering(32, seed=10)
    sets = synth_equivariant(256, 32, w_true=w_true, noise_sigma=0.0, seed=11)
    pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
    rng = np.random.default_rng(12)
    init = rng.normal(0, 1 / np.sqrt(32), (32, 32))
    res = fit_steering_l1(pairs, iters=2000, step=1e-3, seed=0, init=init)
    assert res.final_loss < 1e-3
    assert res.final_loss <= res.initial_loss


def test_l1_fit_beats_lsq_under_outliers():
    rng = np.random.default_rng(13)
    w_true = random_c4_steering(16, seed=14)
    sets = synth_equivariant(192, 16, w_true=w_true, noise_sigma=0.0, seed=15)
    base, rot = sets[0], sets[1]
    noise = rng.laplace(0.0, 0.02, rot.descs.shape)
    gross = (rng.uniform(0, 1, rot.descs.shape) < 0.05) * rng.normal(0, 1.0, rot.descs.shape)
    rot_bad = DescriptorSet(rot.coords, rot.descs + noise + gross)
    w_lsq, _ = fit_steering_lsq(base, rot_bad)
    res = fit_steering_l1({1: (base, rot_bad)}, iters=800, step=1e-3, seed=1)
    err_lsq = np.median(np.abs(w_lsq.w - w_true.w))
    err_l1 = np.median(np.abs(res.w.w - w_true.w))
    assert err_l1 < err_lsq


def test_l1_fit_divergence_reports_step():
    # Step 50 overflows the loss at once; the fit halves the step and restarts
    # from the best iterate until it descends, and reports the step it reached.
    w_true = random_c4_steering(8, seed=16)
    sets = synth_equivariant(64, 8, w_true=w_true, noise_sigma=0.0, seed=17)
    pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
    res = fit_steering_l1(pairs, iters=2000, step=50.0, seed=0)
    assert res.final_step <= 50.0 / 2**10
    assert np.isfinite(res.final_loss) and res.final_loss <= res.initial_loss
    assert np.all(np.isfinite(res.w.w))


def test_l1_fit_backs_off_where_the_step_is_too_large_for_n():
    # The loss sums over rows, so the stable step shrinks as n grows: at
    # n = 2048 the step sized for n = 1024 once made this fit diverge.
    sets = synth_equivariant(2048, 32, noise_sigma=0.05, seed=3)
    pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
    res = fit_steering_l1(pairs, iters=300, step=1e-3, seed=3)
    assert res.final_step < 1e-3 and res.final_loss < res.initial_loss
    for k in (1, 2, 3):
        assert rotation_matching_eval(sets[0], sets[k], res.w, k).with_steering == 1.0


@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
def test_l1_fit_rejects_non_positive_step(step):
    sets = synth_equivariant(16, 4, noise_sigma=0.0, seed=19)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        fit_steering_l1({1: (sets[0], sets[1])}, iters=5, step=step)


def test_l1_fit_rejects_negative_iters_and_zero_returns_the_warm_start():
    sets = synth_equivariant(16, 4, noise_sigma=0.01, seed=19)
    pairs = {1: (sets[0], sets[1])}
    with pytest.raises(ValueError, match="iters must be nonnegative, got -1"):
        fit_steering_l1(pairs, iters=-1)
    res = fit_steering_l1(pairs, iters=0)
    assert res.iterations == 0
    assert np.array_equal(res.w.w, fit_steering_lsq(sets[0], sets[1])[0].w)
    assert res.final_loss == res.initial_loss


def test_descriptor_inputs_need_width_dimension_and_keypoints():
    with pytest.raises(ValueError, match="at least one dimension"):
        DescriptorSet(np.zeros((3, 2)), np.zeros((3, 0)))
    for dim in (0, -2, 3):
        with pytest.raises(ValueError, match="even and at least 2"):
            random_c4_steering(dim)
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one keypoint"):
            synth_equivariant(n, 4)


def test_apply_steering_power_rules():
    rng = np.random.default_rng(18)
    w = SteeringMatrix(rng.normal(size=(8, 8)))
    descs = rng.normal(size=(10, 8))
    assert np.array_equal(apply_steering(w, 0, descs), descs)
    once = apply_steering(w, 1, descs)
    twice = apply_steering(w, 1, once)
    assert np.allclose(apply_steering(w, 2, descs), twice, atol=1e-12)
    brute = descs @ (w.w @ w.w @ w.w).T
    assert np.allclose(apply_steering(w, 3, descs), brute, atol=1e-10)


def test_apply_steering_validates():
    w = SteeringMatrix(np.eye(4))
    with pytest.raises(ValueError):
        apply_steering(w, 5, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        apply_steering(w, 1, np.zeros((2, 3)))


def test_mutual_nn_identity_and_permutation():
    rng = np.random.default_rng(19)
    coords = rng.uniform(-1, 1, (12, 2))
    descs = np.linalg.qr(rng.normal(size=(12, 12)))[0]  # orthonormal rows
    a = DescriptorSet(coords, descs)
    matches = mutual_nn_match(a, a)
    assert len(matches) == 12
    assert np.allclose(matches.xa, matches.xb)

    perm = rng.permutation(12)
    b = DescriptorSet(coords[perm], descs[perm])
    matches = mutual_nn_match(a, b)
    assert len(matches) == 12
    assert np.allclose(matches.xa, matches.xb)  # same keypoints recovered


def test_mutual_nn_matches_brute_force():
    rng = np.random.default_rng(20)
    a = DescriptorSet(rng.uniform(-1, 1, (15, 2)), rng.normal(size=(15, 6)))
    b = DescriptorSet(rng.uniform(-1, 1, (13, 2)), rng.normal(size=(13, 6)))
    na = a.descs / np.linalg.norm(a.descs, axis=1, keepdims=True)
    nb = b.descs / np.linalg.norm(b.descs, axis=1, keepdims=True)
    sim = na @ nb.T
    pairs = []
    for i in range(15):
        j = int(np.argmax(sim[i]))
        if int(np.argmax(sim[:, j])) == i:
            pairs.append((i, j))
    got = mutual_nn_match(a, b)
    assert len(got) == len(pairs)
    for idx, (i, j) in enumerate(pairs):
        assert np.allclose(got.xa[idx], a.coords[i])
        assert np.allclose(got.xb[idx], b.coords[j])


def test_rotation_matching_eval_k0_equal():
    sets = synth_equivariant(50, 16, noise_sigma=0.02, seed=21)
    w, _ = fit_steering_lsq(sets[0], sets[1])
    acc = rotation_matching_eval(sets[0], sets[0], w, 0)
    assert acc.without_steering == acc.with_steering == 1.0


def test_steering_rescues_rotated_matching():
    w_true = random_c4_steering(32, seed=22)
    sets = synth_equivariant(256, 32, w_true=w_true, noise_sigma=0.05, seed=23)
    pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
    res = fit_steering_l1(pairs, iters=600, step=1e-3, seed=0)
    for k in (1, 2, 3):
        acc = rotation_matching_eval(sets[0], sets[k], res.w, k)
        assert acc.with_steering >= acc.without_steering
        assert acc.with_steering >= 0.95
        assert acc.without_steering < 0.5


def test_l1_fit_matches_loop_oracle_through_halvings_and_restarts():
    w_true = random_c4_steering(16, seed=30)
    sets = synth_equivariant(96, 16, w_true=w_true, noise_sigma=0.05, seed=31)
    cases = [
        ({k: (sets[0], sets[k]) for k in (1, 2, 3)}, dict(iters=400, step=2e-3, patience=8)),
        ({2: (sets[0], sets[2]), 3: (sets[0], sets[3])}, dict(iters=300, step=1e-3, patience=5)),
        ({1: (sets[0], sets[1])}, dict(iters=60, step=1e-3)),
    ]
    for seed, (pairs, kwargs) in enumerate(cases):
        got = fit_fields(fit_steering_l1(pairs, seed=seed, **kwargs))
        want = loop_fit_steering_l1(pairs, seed=seed, **kwargs)
        assert_same_fit(got, want)
    assert got[4] == 1e-3  # the last case never stagnates
    # The first two cases halve the step (and so restart) several times.
    for pairs, kwargs in cases[:2]:
        assert fit_steering_l1(pairs, seed=0, **kwargs).final_step <= kwargs["step"] / 4


def test_l1_fit_matches_loop_oracle_from_random_init():
    w_true = random_c4_steering(12, seed=32)
    sets = synth_equivariant(64, 12, w_true=w_true, noise_sigma=0.0, seed=33)
    pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
    init = np.random.default_rng(34).normal(0, 1 / np.sqrt(12), (12, 12))
    got = fit_fields(fit_steering_l1(pairs, iters=500, step=1e-3, seed=4, init=init))
    assert_same_fit(got, loop_fit_steering_l1(pairs, iters=500, step=1e-3, seed=4, init=init))


def test_l1_fit_divergence_matches_loop_oracle():
    # Both steps overflow the loss; every back-off and restart must match.
    w_true = random_c4_steering(8, seed=16)
    sets = synth_equivariant(64, 8, w_true=w_true, noise_sigma=0.0, seed=17)
    pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
    for step in (50.0, 0.5):
        got = fit_fields(fit_steering_l1(pairs, iters=2000, step=step, seed=0))
        assert_same_fit(got, loop_fit_steering_l1(pairs, iters=2000, step=step, seed=0))


def assert_same_mutual_nn(a, b):
    got, want = _mutual_nn_indices(a, b), full_matrix_mutual_nn(a, b)
    for g, w in zip(got, want):
        assert g.dtype.kind == w.dtype.kind and np.array_equal(g, w)


def test_blocked_mutual_nn_matches_full_matrix_oracle():
    rng = np.random.default_rng(35)
    b = MNN_BLOCK_ROWS
    for n, m in ((1, 1), (5, 300), (b, b), (b + 1, 77), (2 * b + 5, 3 * b - 1), (3 * b, 40)):
        assert_same_mutual_nn(rng.normal(size=(n, 8)), rng.normal(size=(m, 8)))


def test_blocked_mutual_nn_keeps_first_max_on_ties():
    # Small-integer descriptors give exactly equal similarities. Duplicate
    # rows of a (one pair straddling a block boundary) tie within a column;
    # duplicate rows of b tie within a row.
    rng = np.random.default_rng(36)
    b = MNN_BLOCK_ROWS
    descs_a = rng.integers(-2, 3, (2 * b + 9, 4)).astype(float)
    descs_a[np.all(descs_a == 0, axis=1)] = 1.0
    descs_a[b + 3] = descs_a[2]
    descs_a[2 * b + 1] = descs_a[b - 1]
    descs_b = np.concatenate([descs_a[[2, b - 1, 7]], descs_a[[7, 2]], descs_a[:60]])
    ia, ib, _ = _mutual_nn_indices(descs_a, descs_b)
    assert 2 in ia and b + 3 not in ia  # the earlier of two equal rows wins
    assert_same_mutual_nn(descs_a, descs_b)
    assert_same_mutual_nn(descs_b, descs_a)


def head(ds, n):
    return DescriptorSet(ds.coords[:n], ds.descs[:n])


def test_l1_fit_matches_loop_oracle_with_per_k_bases_and_lengths():
    # Every k views the same two buffers at its own shape, so pairs with
    # different bases and row counts per k must still match the oracle bit
    # for bit, through restarts.
    sets = synth_equivariant(96, 8, noise_sigma=0.05, seed=37)
    pairs = {2: (head(sets[0], 64), head(sets[2], 64)), 3: (sets[1], sets[3])}
    kwargs = dict(iters=300, step=2e-3, seed=5, patience=6)
    got = fit_fields(fit_steering_l1(pairs, **kwargs))
    assert_same_fit(got, loop_fit_steering_l1(pairs, **kwargs))
    assert got[4] < 2e-3  # the step halved, so the fit restarted from its best iterate


def test_back_to_back_l1_fits_are_identical():
    sets = synth_equivariant(64, 8, noise_sigma=0.05, seed=38)
    pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
    first = fit_fields(fit_steering_l1(pairs, iters=200, step=5e-3, seed=1, patience=5))
    other = {1: (sets[1], sets[2])}
    fit_steering_l1(other, iters=50, step=1e-3, seed=2)
    assert_same_fit(fit_fields(fit_steering_l1(pairs, iters=200, step=5e-3, seed=1, patience=5)), first)


def test_l1_fit_refuses_misaligned_or_mismatched_pairs():
    sets = synth_equivariant(32, 4, noise_sigma=0.0, seed=39)
    wide = synth_equivariant(32, 6, noise_sigma=0.0, seed=39)
    with pytest.raises(ValueError, match="^descriptor sets must be index-aligned$"):
        fit_steering_l1({1: (sets[0], sets[1]), 2: (head(sets[0], 16), sets[2])})
    with pytest.raises(ValueError, match=r"^descriptor sets must share one width, got widths \[4, 6\]$"):
        fit_steering_l1({1: (sets[0], sets[1]), 2: (wide[0], wide[2])})
    with pytest.raises(ValueError, match="^init must be 4x4 to match the descriptors, got shape"):
        fit_steering_l1({1: (sets[0], sets[1])}, init=np.eye(6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_l1_fit_refuses_a_non_finite_init(bad):
    sets = synth_equivariant(64, 8, noise_sigma=0.05, seed=40)
    init = np.eye(8)
    init[3, 5] = bad
    with pytest.raises(ValueError, match="^init must be finite$"):
        fit_steering_l1({1: (sets[0], sets[1])}, init=init)
    with pytest.raises(ValueError, match="^init must be finite$"):
        fit_steering_l1({1: (sets[0], sets[1])}, init=np.full((8, 8), np.nan))


def test_back_to_back_mutual_nn_calls_on_different_shapes():
    rng = np.random.default_rng(40)
    b = MNN_BLOCK_ROWS
    for n, m in ((2 * b + 3, 50), (7, 2 * b), (b + 1, b + 1), (3, 3)):
        assert_same_mutual_nn(rng.normal(size=(n, 6)), rng.normal(size=(m, 6)))


def test_mutual_nn_refuses_different_widths():
    rng = np.random.default_rng(41)
    with pytest.raises(ValueError, match="^descriptor widths differ: 32 and 16$"):
        _mutual_nn_indices(rng.normal(size=(10, 32)), rng.normal(size=(10, 16)))
