"""Gaussian-process match encoder: kernel regression over descriptors.

Source descriptors are regressed onto embedded target coordinates through an
exponential cosine kernel. The posterior mean ``K_*X (K_XX + sigma^2 I)^-1 E``
is computed without an explicit inverse: the Cholesky factor of the jittered
Gram matrix vets its conditioning, and one solve gives the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import _readonly


@dataclass(frozen=True)
class KernelSpec:
    """Exponential cosine kernel parameters.

    ``beta`` is the inverse temperature applied to the cosine similarity;
    ``noise_variance`` is the observation jitter added to the Gram diagonal.
    """

    beta: float = 10.0
    noise_variance: float = 1e-4

    def __post_init__(self) -> None:
        for field in ("beta", "noise_variance"):
            if not np.isfinite(getattr(self, field)):
                raise ValueError(f"{field} must be finite, got {getattr(self, field)}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.noise_variance < 0:
            raise ValueError("noise variance must be nonnegative")


@dataclass(frozen=True)
class SupportSet:
    """Target-image features paired with embedded target coordinates."""

    features: np.ndarray  # (N, D_f)
    embeddings: np.ndarray  # (N, D_e)

    def __post_init__(self) -> None:
        f = _readonly(np.atleast_2d(self.features))
        e = _readonly(np.atleast_2d(self.embeddings))
        if f.shape[0] < 1 or f.shape[0] != e.shape[0]:
            raise ValueError("features and embeddings must share a nonempty first axis")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(e))):
            raise ValueError("support entries must be finite")
        if np.any(np.linalg.norm(f, axis=1) == 0):
            raise ValueError("support features must have nonzero norm")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "embeddings", e)


def exp_cos_kernel(f: np.ndarray, g: np.ndarray, beta: float = 10.0) -> float:
    """exp(beta * cos(f, g)); symmetric, maximal for parallel inputs."""
    return float(kernel_matrix(f, g, beta)[0, 0])


def kernel_matrix(a: np.ndarray, b: np.ndarray, beta: float) -> np.ndarray:
    """Pairwise exponential cosine kernel between rows of ``a`` and ``b``."""
    if not 0 < beta < np.inf:  # also refuses NaN
        raise ValueError(f"beta must be positive and finite, got {beta}")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    for name, norms in (("a", na), ("b", nb)):
        if not np.all((norms > 0) & (norms < np.inf)):  # also refuses NaN
            raise ValueError(f"kernel input {name} must have finite, nonzero row norms")
    cos = (a @ b.T) / np.outer(na, nb)
    with np.errstate(over="ignore"):
        k = np.exp(beta * cos)
    if np.any(np.isinf(k)):
        raise ValueError(f"kernel exp(beta * cos) overflows at beta={beta:g}: beta * cos must stay below 709.78")
    return k


def gp_posterior_mean(
    queries: np.ndarray, support: SupportSet, spec: KernelSpec = KernelSpec()
) -> np.ndarray:
    """Posterior mean of embedded coordinates at each query descriptor."""
    if not np.all(np.isfinite(queries)):
        raise ValueError("queries must be finite")
    gram = kernel_matrix(support.features, support.features, spec.beta)
    gram[np.diag_indices_from(gram)] += spec.noise_variance
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "kernel system is ill-conditioned (non-positive pivot); "
            "add noise variance or remove duplicate support features"
        ) from exc
    pivots = np.diag(chol)
    if not np.all(np.isfinite(chol)) or (pivots.min() / pivots.max()) ** 2 < 1e-14:
        raise ValueError(
            "kernel system is ill-conditioned (pivot ratio below 1e-14, or a non-finite factor); "
            "add noise variance or remove duplicate support features"
        )
    return kernel_matrix(queries, support.features, spec.beta) @ np.linalg.solve(gram, support.embeddings)
