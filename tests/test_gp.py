import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from matchkit import (
    GridSpec,
    KernelSpec,
    SupportSet,
    affine_scene,
    exp_cos_kernel,
    gp_posterior_mean,
    kernel_matrix,
    synth_pyramid,
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: kernel_matrix([1.0, np.nan], [1.0, 0.0], 10.0), "kernel input a must have finite"),
        (lambda s: kernel_matrix([1.0, 0.0], [np.inf, 0.0], 10.0), "kernel input b must have finite"),
        (lambda s: gp_posterior_mean(np.array([[np.nan, 1.0]]), s), "queries must be finite"),
    ],
)
def test_kernel_and_posterior_mean_refuse_non_finite_inputs(call, message):
    # Unrefused, a NaN query gave a NaN posterior mean.
    support = SupportSet(np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match=f"^{message}"):
        call(support)


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
    # no comparison catches, so the factor itself must be checked. KernelSpec
    # refuses that jitter, so a stand-in spec carries it past the dataclass.
    rng = np.random.default_rng(23)
    support = SupportSet(rng.normal(size=(5, 3)), rng.normal(size=(5, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"ill-conditioned \(pivot ratio below 1e-14, or a non-finite factor\)"):
            gp_posterior_mean(support.features, support, SimpleNamespace(beta=10.0, noise_variance=np.inf))


def test_kernel_spec_refuses_non_finite_values():
    # Unrefused, a NaN or infinite value reaches the Cholesky factorization, which blames an
    # "ill-conditioned" system.
    cases = [(10.0, np.nan, "noise_variance"), (10.0, np.inf, "noise_variance"), (np.nan, 1e-4, "beta")]
    cases += [(np.inf, 1e-4, "beta"), (-np.inf, 1e-4, "beta")]
    for beta, noise, field in cases:
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            KernelSpec(beta, noise)


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gp_matches_cho_solve_at_benchmark_scale(seed):
    # The coarse encoder's size: 256 stride-14 supports of a base-224 pyramid,
    # D = 32, regressed onto the stride-14 cell centres.
    rng = np.random.default_rng(seed)
    angle, scale = rng.uniform(-0.05, 0.05), rng.uniform(0.96, 1.04)
    c, s = np.cos(angle), np.sin(angle)
    scene = affine_scene(scale * np.array([[c, -s], [s, c]]), rng.uniform(-0.14, 0.14, 2))
    pyr_a, pyr_b = synth_pyramid(scene, GridSpec(224, 224), seed=seed)
    support = SupportSet(pyr_b.features(14).reshape(-1, 32), pyr_b.grid(14).cell_centers())
    queries = pyr_a.features(14).reshape(-1, 32)
    assert len(support.features) == 256
    spec = KernelSpec()
    gram = kernel_matrix(support.features, support.features, spec.beta) + spec.noise_variance * np.eye(256)
    want = kernel_matrix(queries, support.features, spec.beta) @ cho_solve(cho_factor(gram), support.embeddings)
    np.testing.assert_allclose(gp_posterior_mean(queries, support, spec), want, rtol=0, atol=1e-12)
