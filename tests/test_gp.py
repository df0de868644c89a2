import math
import re
import warnings

import numpy as np
import pytest

from matchkit import (
    KernelSpec,
    PreparedGP,
    SupportSet,
    exp_cos_kernel,
    gp_posterior_mean,
    kernel_matrix,
)


def test_kernel_equal_inputs_is_exp_beta():
    f = np.array([0.3, -0.2, 1.1])
    assert np.isclose(exp_cos_kernel(f, f, beta=10.0), math.exp(10.0), rtol=1e-12)


def test_kernel_orthogonal_inputs():
    f = np.array([1.0, 0.0, 0.0])
    g = np.array([0.0, 2.0, 0.0])
    assert np.isclose(exp_cos_kernel(f, g, beta=10.0), 1.0)


def test_kernel_matches_high_precision_oracle():
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    rng = np.random.default_rng(20)
    for _ in range(30):
        f = rng.normal(size=6)
        g = rng.normal(size=6)
        cos = float(f @ g / (np.linalg.norm(f) * np.linalg.norm(g)))
        want = float(Decimal(10.0 * cos).exp())
        assert np.isclose(exp_cos_kernel(f, g, beta=10.0), want, rtol=1e-12)


def test_kernel_scale_invariance_and_symmetry():
    rng = np.random.default_rng(21)
    f = rng.normal(size=8)
    g = rng.normal(size=8)
    assert np.isclose(exp_cos_kernel(f, g), exp_cos_kernel(g, f), rtol=1e-14)
    assert np.isclose(exp_cos_kernel(3.7 * f, g), exp_cos_kernel(f, g), rtol=1e-12)


def test_kernel_rejects_zero_norm():
    with pytest.raises(ValueError):
        exp_cos_kernel(np.zeros(3), np.ones(3))


def test_kernel_matrix_diagonal():
    rng = np.random.default_rng(22)
    feats = rng.normal(size=(7, 5))
    gram = kernel_matrix(feats, feats, beta=10.0)
    assert np.allclose(np.diag(gram), math.exp(10.0), rtol=1e-12)
    assert np.allclose(gram, gram.T)


@pytest.mark.parametrize("beta", [710.0, 1000.0, 1e300])
def test_kernel_matrix_refuses_an_overflowing_beta(beta):
    feats = np.random.default_rng(22).normal(size=(4, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning first
        with pytest.raises(ValueError, match="^" + re.escape(f"kernel exp(beta * cos) overflows at beta={beta:g}: ")):
            kernel_matrix(feats, feats, beta)
        with pytest.raises(ValueError, match=re.escape(f"at beta={beta:g}: ")):
            gp_posterior_mean(feats, SupportSet(feats, np.zeros((4, 2))), KernelSpec(beta, 1e-4))
        # Just below the overflow the kernel is still finite.
        assert np.all(np.isfinite(kernel_matrix(feats, feats, 709.0)))


def test_prepared_gp_refuses_a_non_finite_cholesky_factor():
    # An infinite jitter makes every pivot infinite; their ratio is NaN, which
    # no comparison catches, so the factor itself must be checked.
    rng = np.random.default_rng(23)
    support = SupportSet(rng.normal(size=(5, 3)), rng.normal(size=(5, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"ill-conditioned \(pivot ratio below 1e-14, or a non-finite factor\)"):
            PreparedGP(support, KernelSpec(10.0, np.inf))


def test_gp_single_support_interpolates():
    support = SupportSet(np.array([[1.0, 2.0, 3.0]]), np.array([[0.25, -0.5]]))
    out = gp_posterior_mean(np.array([[1.0, 2.0, 3.0]]), support, KernelSpec(10.0, 0.0))
    assert np.allclose(out, [[0.25, -0.5]], atol=1e-10)


def test_gp_orthogonal_supports_hand_solve():
    # Three pairwise-orthogonal supports, query orthogonal to all of them:
    # the query kernel row is all ones. Cross-check with an explicit solve.
    feats = np.concatenate([np.eye(3), np.zeros((3, 1))], axis=1)
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
    query = np.array([[0.0, 0.0, 0.0, 1.0]])
    support = SupportSet(feats, emb)
    gram = np.full((3, 3), 1.0)
    gram[np.diag_indices(3)] = math.exp(10.0)
    want = np.ones(3) @ np.linalg.solve(gram, emb)
    got = gp_posterior_mean(query, support, KernelSpec(10.0, 0.0))
    assert np.allclose(got[0], want, atol=1e-9)


def test_gp_matches_dense_brute_force():
    rng = np.random.default_rng(23)
    for trial in range(20):
        feats = rng.normal(size=(8, 6))
        emb = rng.normal(size=(8, 2))
        queries = rng.normal(size=(5, 6))
        spec = KernelSpec(10.0, 0.01)
        got = gp_posterior_mean(queries, SupportSet(feats, emb), spec)
        gram = kernel_matrix(feats, feats, 10.0) + 0.01 * np.eye(8)
        want = kernel_matrix(queries, feats, 10.0) @ np.linalg.inv(gram) @ emb
        assert np.allclose(got, want, atol=1e-8)


def test_gp_interpolates_at_tiny_noise():
    rng = np.random.default_rng(24)
    feats = rng.normal(size=(6, 5))
    emb = rng.normal(size=(6, 2))
    support = SupportSet(feats, emb)
    out = gp_posterior_mean(feats, support, KernelSpec(10.0, 1e-10))
    assert np.allclose(out, emb, atol=1e-6)


def test_gp_duplicate_supports_at_zero_noise_raise():
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    emb = np.zeros((3, 2))
    with pytest.raises(ValueError, match="ill-conditioned"):
        gp_posterior_mean(feats, SupportSet(feats, emb), KernelSpec(10.0, 0.0))


def test_prepared_gp_caches_factorization():
    from matchkit import PreparedGP

    rng = np.random.default_rng(27)
    support = SupportSet(rng.normal(size=(7, 5)), rng.normal(size=(7, 2)))
    spec = KernelSpec(10.0, 1e-3)
    prepared = PreparedGP(support, spec)
    q1 = rng.normal(size=(4, 5))
    q2 = rng.normal(size=(6, 5))
    assert np.allclose(prepared.posterior_mean(q1), gp_posterior_mean(q1, support, spec))
    assert np.allclose(prepared.posterior_mean(q2), gp_posterior_mean(q2, support, spec))
