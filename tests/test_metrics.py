import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit import CorrespondenceSet, auc, epe, maa, pck, pose_errors, robustness


def loop_auc(errors, tau):
    """Oracle: the recall step function integrated one breakpoint interval at a time."""
    errors = np.asarray(errors, dtype=float).ravel()
    inside = np.unique(errors[(errors > 0) & (errors < tau)])
    breaks = np.concatenate([[0.0], inside, [tau]])
    area = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        area += (hi - lo) * (np.sum(errors <= lo) / errors.size)
    return float(area / tau)


def aligned_sets(rng, n=40, err_px=None, ref=448.0):
    xa = rng.uniform(-0.8, 0.8, (n, 2))
    xb = rng.uniform(-0.8, 0.8, (n, 2))
    gt = CorrespondenceSet(xa, xb, np.ones(n))
    if err_px is None:
        offsets = rng.uniform(-0.05, 0.05, (n, 2))
    else:
        direction = rng.normal(size=(n, 2))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        offsets = direction * (err_px / ref)
    pred = CorrespondenceSet(np.clip(xa, -1, 1), np.clip(xb + offsets, -1, 1), np.ones(n))
    return pred, gt


def test_epe_zero_on_equal_sets():
    rng = np.random.default_rng(80)
    pred, gt = aligned_sets(rng, err_px=0.0)
    assert epe(pred, gt) == 0.0


def test_epe_unit_conversion():
    # One extent unit corresponds to ref_resolution pixels, so an offset of
    # 2/448 extent units at the 448 reference is 2 px.
    xa = np.array([[0.0, 0.0]])
    gt = CorrespondenceSet(xa, np.array([[0.1, 0.1]]), np.ones(1))
    pred = CorrespondenceSet(xa, np.array([[0.1 + 2.0 / 448.0, 0.1]]), np.ones(1))
    assert np.isclose(epe(pred, gt, ref_resolution=448), 2.0)


def test_epe_matches_brute_force():
    rng = np.random.default_rng(81)
    pred, gt = aligned_sets(rng)
    total = 0.0
    for i in range(len(gt)):
        dx = pred.xb[i, 0] - gt.xb[i, 0]
        dy = pred.xb[i, 1] - gt.xb[i, 1]
        total += np.hypot(dx, dy) * 448.0
    assert np.isclose(epe(pred, gt), total / len(gt))


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-5, 1.0])
@pytest.mark.parametrize("ref", [1e-300, 1.0, 448.0, 1e200, 1e308])
def test_epe_and_pck_equal_the_norm_oracle_to_the_byte(scale, ref):
    # Targets within `scale` of the origin, so the errors are of that size too
    # (subnormal squares at 1e-160, zero ones at 1e-300).
    rng = np.random.default_rng(84)
    xa = rng.uniform(-0.5, 0.5, (500, 2))
    gt = CorrespondenceSet(xa, rng.uniform(-0.5, 0.5, (500, 2)) * scale, np.ones(500))
    pred = CorrespondenceSet(xa, rng.uniform(-0.5, 0.5, (500, 2)) * scale, np.ones(500))
    err = np.linalg.norm(pred.xb - gt.xb, axis=1) * ref
    with np.errstate(over="ignore"):  # at ref 1e308 the sum of the pixel errors overflows
        mean = err.mean()
    if np.isfinite(mean):
        assert np.float64(epe(pred, gt, ref)).tobytes() == np.float64(mean).tobytes()
    else:
        with pytest.raises(ValueError, match="^ref_resolution=1e\\+308 is too large"):
            epe(pred, gt, ref)
    for tau in (1e-300, 1.0, 3.0, 1e200):
        assert pck(pred, gt, tau, ref) == float(100.0 * np.mean(err < tau))


def test_epe_length_mismatch():
    rng = np.random.default_rng(82)
    pred, gt = aligned_sets(rng, n=5)
    short = CorrespondenceSet(gt.xa[:3], gt.xb[:3], gt.weights[:3])
    with pytest.raises(ValueError):
        epe(pred, short)


def test_pck_extremes_and_counting():
    rng = np.random.default_rng(83)
    pred, gt = aligned_sets(rng, err_px=0.0)
    assert pck(pred, gt, 1.0) == 100.0
    pred10, gt10 = aligned_sets(rng, err_px=10.0)
    assert pck(pred10, gt10, 5.0) == 0.0

    # Mixed errors: brute-force count with strict threshold.
    n = 30
    xa = rng.uniform(-0.5, 0.5, (n, 2))
    xb = rng.uniform(-0.5, 0.5, (n, 2))
    errs_px = rng.uniform(0, 8, n)
    direction = rng.normal(size=(n, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pred = CorrespondenceSet(xa, xb + direction * (errs_px[:, None] / 448.0), np.ones(n))
    gt = CorrespondenceSet(xa, xb, np.ones(n))
    for tau in (1.0, 3.0, 5.0):
        want = 100.0 * np.mean(errs_px < tau - 1e-12)
        assert np.isclose(pck(pred, gt, tau), want)


def test_pck_monotone_and_saturates():
    rng = np.random.default_rng(84)
    pred, gt = aligned_sets(rng, err_px=4.0)
    values = [pck(pred, gt, t) for t in (1, 2, 3, 5, 8, 1e9)]
    assert values == sorted(values)
    assert values[-1] == 100.0


def test_robustness_threshold_semantics():
    rng = np.random.default_rng(85)
    pred31, gt31 = aligned_sets(rng, err_px=31.0)
    assert robustness(pred31, gt31) == 100.0
    pred33, gt33 = aligned_sets(rng, err_px=33.0)
    assert robustness(pred33, gt33) == 0.0
    # Half at 10 px, half at 50 px.
    xa = np.zeros((10, 2))
    xb = np.zeros((10, 2))
    errs = np.array([10.0] * 5 + [50.0] * 5) / 448.0
    pred = CorrespondenceSet(xa, xb + np.stack([errs, np.zeros(10)], axis=1), np.ones(10))
    gt = CorrespondenceSet(xa, xb, np.ones(10))
    assert robustness(pred, gt) == 50.0


def rotation_about_z(deg):
    a = np.radians(deg)
    return np.array(
        [[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]]
    )


def test_pose_errors_identity():
    r = rotation_about_z(25.0)
    t = np.array([0.3, -0.2, 0.9])
    assert pose_errors(r, t, r, t) == (0.0, 0.0)


def test_pose_errors_known_rotation():
    r_gt = rotation_about_z(40.0)
    r_est = rotation_about_z(50.0)
    rot, _ = pose_errors(r_est, np.array([1.0, 0, 0]), r_gt, np.array([1.0, 0, 0]))
    assert abs(rot - 10.0) < 1e-9


def test_pose_errors_translation_sign_invariant():
    r = np.eye(3)
    t = np.array([0.0, 0.0, 2.0])
    _, trans = pose_errors(r, -t, r, t)
    assert trans == 0.0


def test_pose_rotation_error_bi_invariant():
    rng = np.random.default_rng(86)
    for _ in range(20):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        r_est = rotation_about_z(17.0)
        r_gt = rotation_about_z(5.0)
        rot1, _ = pose_errors(r_est, np.ones(3), r_gt, np.ones(3))
        rot2, _ = pose_errors(q @ r_est, np.ones(3), q @ r_gt, np.ones(3))
        assert abs(rot1 - rot2) < 1e-8


def test_pose_errors_validation():
    bad = np.eye(3) * 1.5
    with pytest.raises(ValueError):
        pose_errors(bad, np.ones(3), np.eye(3), np.ones(3))
    with pytest.raises(ValueError):
        pose_errors(np.eye(3), np.zeros(3), np.eye(3), np.ones(3))


def test_auc_extremes():
    assert auc(np.zeros(7), 10.0) == 1.0
    assert auc(np.full(7, 99.0), 10.0) == 0.0
    assert auc(np.zeros(7), 1e308) == 1.0  # the hinge terms sum without overflow


def test_auc_hand_case():
    assert auc(np.array([1.0]), 5.0) == pytest.approx(0.8, abs=1e-12)


def test_auc_monotone_under_new_pairs():
    errors = np.array([2.0, 4.0, 7.0])
    base = auc(errors, 10.0)
    assert auc(np.append(errors, 0.0), 10.0) >= base
    assert auc(np.append(errors, 50.0), 10.0) <= base


def test_auc_matches_monte_carlo_recall():
    rng = np.random.default_rng(87)
    for _ in range(5):
        errors = rng.uniform(0, 15, 25)
        tau = 10.0
        got = auc(errors, tau)
        ts = (np.arange(100000) + 0.5) / 100000 * tau
        recall = (errors[None, :] < ts[:, None]).mean(axis=1)
        assert abs(got - recall.mean()) < 1e-4


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(
    tau=st.sampled_from([0.5, 5.0, 10.0, 20.0]),
    # Indices into a small value pool force ties, zeros and errors equal to tau.
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
)
def test_auc_matches_loop_oracle_with_ties_zero_and_tau(tau, picks, seed):
    rng = np.random.default_rng(seed)
    pool = np.concatenate([[0.0, tau, tau / 2], rng.uniform(0, 1.5 * tau, 5)])
    errors = pool[picks]
    assert abs(auc(errors, tau) - loop_auc(errors, tau)) <= 1e-12


def test_auc_matches_loop_oracle_on_large_sets():
    rng = np.random.default_rng(88)
    for n in (1, 2, 1500, 5000):
        errors = np.round(rng.gamma(2.0, 2.5, n), 1)
        for tau in (5.0, 10.0, 20.0):
            assert abs(auc(errors, tau) - loop_auc(errors, tau)) <= 1e-12


def test_auc_rejects_empty():
    with pytest.raises(ValueError):
        auc(np.array([]), 5.0)


def test_maa_extremes():
    zeros = np.zeros(6)
    assert maa(zeros, zeros) == 1.0
    huge = np.full(6, 1e6)
    assert maa(huge, huge) == 0.0


def test_maa_hand_counting():
    rot = np.array([0.5, 3.0])
    trans = np.array([0.1, 5.0])
    rot_th = np.array([1.0, 4.0])
    trans_th = np.array([1.0, 4.0])
    # Pair 1 passes both thresholds in both rows; pair 2 fails trans always.
    want = np.mean([np.mean([True, False]), np.mean([True, False])])
    assert maa(rot, trans, rot_th, trans_th) == want


def test_maa_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(88)
    rot = rng.uniform(0, 12, 50)
    trans = rng.uniform(0, 3, 50)
    rot_th = np.linspace(1, 10, 10)
    trans_th = np.linspace(0.2, 2.0, 10)
    got = maa(rot, trans, rot_th, trans_th)
    total = 0.0
    for rt, tt in zip(rot_th, trans_th):
        count = 0
        for r, t in zip(rot, trans):
            if r < rt and t < tt:
                count += 1
        total += count / 50
    assert np.isclose(got, total / 10)


NAN = float("nan")
NAN_R = np.where(np.eye(3) > 0, NAN, 0.0)
ALIGNED = CorrespondenceSet(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pose_errors(NAN_R, np.ones(3), np.eye(3), np.ones(3)), "R_est is not orthonormal"),
        (lambda: pose_errors(np.eye(3), np.ones(3), NAN_R, np.ones(3)), "R_gt is not orthonormal"),
        (lambda: pose_errors(np.eye(3), [1.0, NAN, 0.0], np.eye(3), np.ones(3)), "t_est must have a finite"),
        (lambda: pose_errors(np.eye(3), np.ones(3), np.eye(3), [np.inf, 0.0, 0.0]), "t_gt must have a finite"),
        (lambda: auc(np.ones(3), NAN), "tau must be positive and finite, got nan"),
        (lambda: auc(np.ones(3), np.inf), "tau must be positive and finite, got inf"),
        (lambda: epe(ALIGNED, ALIGNED, NAN), "ref_resolution must be positive and finite, got nan"),
        (lambda: pck(ALIGNED, ALIGNED, NAN), "tau_px must be positive and finite, got nan"),
        (lambda: pck(ALIGNED, ALIGNED, np.inf), "tau_px must be positive and finite, got inf"),
        (lambda: maa([1.0, NAN], [1.0, 1.0]), "rot_errors must be finite"),
        (lambda: maa([1.0, 1.0], [np.inf, 1.0]), "trans_errors must be finite"),
    ],
)
def test_metrics_refuse_nan_naming_the_argument(call, message):
    # Unrefused, each returned a number: NaN compares False with every bound.
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: maa([1, 2], [0.1, 0.2], [NAN, 5], [1, 1]), "rot_thresholds must be positive and finite"),
        (lambda: maa([1, 2], [0.1, 0.2], [np.inf, 5], [np.inf, 1]), "rot_thresholds must be positive and finite"),
        (lambda: maa([1, 2], [0.1, 0.2], [1, 5], [0, 1]), "trans_thresholds must be positive and finite"),
        (lambda: maa([-1, 2], [0.1, 0.2]), "rot_errors must be finite and nonnegative"),
        (lambda: maa([1, 2], [0.1, -0.2]), "trans_errors must be finite and nonnegative"),
        (lambda: auc([-3, 1], 5), "errors must be finite and nonnegative"),
    ],
)
def test_metrics_refuse_bad_thresholds_and_negative_errors(call, message):
    # Unrefused, these returned 0.5, 1.0, 0.5, 0.5, 0.5 and 0.9.
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_epe_and_pck_refuse_an_overflowing_ref_resolution():
    # Unrefused, epe warned "overflow encountered in reduce" and returned inf,
    # which `eval` wrote into its JSON as Infinity.
    origin = CorrespondenceSet(np.zeros((4, 2)), np.zeros((4, 2)), np.ones(4))
    half = CorrespondenceSet(np.zeros((4, 2)), np.full((4, 2), [0.5, 0.0]), np.ones(4))
    with pytest.raises(ValueError, match="^ref_resolution=1e\\+308 is too large: the pixel errors overflow$"):
        epe(half, origin, 1e308)  # each error is finite, their sum is not
    corners = CorrespondenceSet(np.zeros((2, 2)), [[1.0, 1.0], [0.0, 0.0]], np.ones(2))
    far = CorrespondenceSet(np.zeros((2, 2)), [[-1.0, -1.0], [0.0, 0.0]], np.ones(2))
    # One error of 2.83e308 px.
    with pytest.raises(ValueError, match="^ref_resolution=1e\\+308 is too large"):
        epe(corners, far, 1e308)
    with pytest.raises(ValueError, match="^ref_resolution=1e\\+308 is too large"):
        pck(corners, far, 3.0, 1e308)


def test_maa_mismatched_thresholds():
    with pytest.raises(ValueError):
        maa(np.zeros(3), np.zeros(3), np.array([1.0]), np.array([1.0, 2.0]))
