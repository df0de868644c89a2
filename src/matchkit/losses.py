"""Coarse classification loss and robust fine regression loss, with gradients.

The coarse loss treats matching as classification over anchors: each
correspondence contributes the negative log probability of the anchor closest
to its target point, and a binary cross-entropy term supervises the per-cell
matchability against a covisibility mask (weighted by ``marginal_weight``).

The fine loss scores refined warps with a generalized Charbonnier penalty
``(||mu - x||^2 + s)^(1/4)`` whose scale doubles per refinement octave,
``s = 2^i * c``. Its gradient behaves quadratically near zero error and
decays like ``r^(-1/2)`` for large errors, so gross outliers stop dominating.

Analytic gradients come with every loss so they can be checked against
finite differences; scales are treated independently (no gradient flows from
one refinement stage into another). The gradient arrays ``d_pi``,
``d_coords`` and ``d_certainty`` are built on first read, from sparse terms
and private copies captured at call time, so a caller that reads only the
values allocates none of them. ``d_matchability`` is built at call time,
because the overflow refusal reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .anchors import AnchorGrid, AnchorProbs, closest_anchor
from .grids import CorrespondenceSet, GridSpec, WarpField, bilinear, bilinear_taps, containing_cells

LOG_EPS = 1e-12
# Largest number of log-spaced radii gradient_sweep emits.
MAX_SWEEP_STEPS = 100_000


@dataclass(frozen=True)
class CoarseLossConfig:
    """marginal_weight scales the matchability BCE against the anchor term."""

    marginal_weight: float
    anchor_grid: AnchorGrid

    def __post_init__(self) -> None:
        if not 0 < self.marginal_weight < np.inf:  # also refuses NaN
            raise ValueError(f"marginal weight must be positive and finite, got {self.marginal_weight}")


@dataclass(frozen=True)
class FineLossConfig:
    c: float = 0.03
    scales: tuple[int, ...] = (0, 1, 2, 3)

    def __post_init__(self) -> None:
        if not 0 < self.c < np.inf:  # also refuses NaN
            raise ValueError(f"base scale c must be positive and finite, got {self.c}")
        if any((int(i) != i or i < 0) for i in self.scales):
            raise ValueError("scale exponents must be nonnegative integers")

    def scale_value(self, i: int) -> float:
        return (2.0**i) * self.c


def charbonnier_nll(mu: np.ndarray, x: np.ndarray, s: float) -> np.ndarray:
    """Generalized Charbonnier penalty (||mu - x||^2 + s)^(1/4)."""
    if not 0 < s < np.inf:  # also refuses NaN
        raise ValueError(f"scale s must be positive and finite, got {s}")
    mu = np.asarray(mu, dtype=float)
    x = np.asarray(x, dtype=float)
    r2 = ((mu - x) ** 2).sum(axis=-1)
    return (r2 + s) ** 0.25


def charbonnier_grad(mu: np.ndarray, x: np.ndarray, s: float) -> np.ndarray:
    """Gradient of :func:`charbonnier_nll` with respect to ``mu``.

    Equals ``0.5 * (||mu - x||^2 + s)^(-3/4) * (mu - x)``: linear in the
    residual near zero, decaying like ``0.5 * r^(-1/2)`` far away.
    """
    if not 0 < s < np.inf:  # also refuses NaN
        raise ValueError(f"scale s must be positive and finite, got {s}")
    mu = np.asarray(mu, dtype=float)
    x = np.asarray(x, dtype=float)
    diff = mu - x
    r2 = (diff**2).sum(axis=-1)
    return 0.5 * ((r2 + s) ** -0.75)[..., None] * diff


def _bce_mean(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of float probabilities ``p`` against float labels ``y``.

    Probabilities are clamped to [LOG_EPS, 1 - LOG_EPS] before the logs.
    """
    pc = np.clip(p, LOG_EPS, 1.0 - LOG_EPS)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))


def _bce_grad(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_bce_mean` w.r.t. ``p``: zero where the clamp is active."""
    pc = np.clip(p, LOG_EPS, 1.0 - LOG_EPS)
    interior = (p > LOG_EPS) & (p < 1.0 - LOG_EPS)
    return np.where(interior, (-y / pc + (1.0 - y) / (1.0 - pc)) / p.size, 0.0)


@dataclass(frozen=True)
class CoarseLossResult:
    value: float
    conditional_term: float
    marginal_term: float
    d_matchability: np.ndarray  # (source cells,)
    # d_pi's shape and its nonzero terms: (cell, anchor, value) triples, summed on first read.
    _pi_shape: tuple[int, int] = field(repr=False)
    _pi_terms: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    @cached_property
    def d_pi(self) -> np.ndarray:
        """(source cells, K) gradient w.r.t. ``pi``."""
        d_pi = np.zeros(self._pi_shape)
        cells, anchors, values = self._pi_terms
        np.add.at(d_pi, (cells, anchors), values)
        return d_pi


def coarse_loss_raw(
    pi: np.ndarray,
    matchability: np.ndarray,
    source: GridSpec,
    matchable_mask: np.ndarray,
    corr: CorrespondenceSet,
    cfg: CoarseLossConfig,
) -> CoarseLossResult:
    """Coarse loss on raw arrays (no normalization assumed).

    Exposed separately so gradients can be verified by finite differences on
    arbitrary perturbations of ``pi`` and ``matchability``.
    """
    if len(corr) == 0:
        raise ValueError("correspondence set is empty")
    pi = np.asarray(pi, dtype=float)
    matchability = np.asarray(matchability, dtype=float)
    n, k = source.n_cells, cfg.anchor_grid.count
    if pi.shape != (n, k) or matchability.shape != (n,):
        raise ValueError(f"pi shape {pi.shape} and matchability shape {matchability.shape} must be {(n, k)} and {(n,)}")
    mask = np.asarray(matchable_mask, dtype=float).reshape(-1)
    if mask.shape != (source.n_cells,):
        raise ValueError("matchable mask must have one entry per source cell")

    rows, cols = containing_cells(corr.xa, source)
    cells = rows * source.width + cols
    kdag = closest_anchor(cfg.anchor_grid, corr.xb)
    w = corr.weights
    wsum = float(w.sum())
    if wsum <= 0:
        raise ValueError("correspondence weights sum to zero")

    picked = pi[cells, kdag]
    clamped = np.maximum(picked, LOG_EPS)
    conditional = float(np.sum(w * -np.log(clamped)) / wsum)

    live = picked > LOG_EPS
    pi_terms = (cells[live], kdag[live], -(w[live] / wsum) / clamped[live])

    marginal = _bce_mean(matchability, mask)
    d_match_unit = _bce_grad(matchability, mask)
    with np.errstate(over="ignore"):  # an overflow is refused below
        value = conditional + cfg.marginal_weight * marginal
        d_matchability = cfg.marginal_weight * d_match_unit
    if not (np.isfinite(value) and np.all(np.isfinite(d_matchability))):
        raise ValueError(f"marginal weight {cfg.marginal_weight:g} is too large: the coarse loss overflows")
    return CoarseLossResult(
        value=value,
        conditional_term=conditional,
        marginal_term=marginal,
        d_matchability=d_matchability,
        _pi_shape=pi.shape,
        _pi_terms=pi_terms,
    )


def coarse_loss(
    probs: AnchorProbs,
    matchable_mask: np.ndarray,
    corr: CorrespondenceSet,
    cfg: CoarseLossConfig,
) -> CoarseLossResult:
    """Anchor classification loss plus weighted matchability cross-entropy.

    The conditional term is the weighted mean over correspondences of
    ``-log pi_{k_dag(x_B)}(cell(x_A))`` where ``k_dag`` indexes the anchor
    closest to the target point. It vanishes exactly when all probability
    mass sits on the closest anchors and matchability matches the mask.
    """
    return coarse_loss_raw(probs.pi, probs.matchability, probs.source, matchable_mask, corr, cfg)


@dataclass(frozen=True)
class FineScaleResult:
    value: float
    charbonnier_term: float
    bce_term: float
    # d_coords' flat tap cells and their point-major (x, y) contributions, summed on first read.
    _coord_terms: tuple[np.ndarray, np.ndarray] = field(repr=False)
    # The warp's read-only certainty and a private float copy of the mask, both (H, W).
    _certainty: np.ndarray = field(repr=False)
    _mask: np.ndarray = field(repr=False)

    @cached_property
    def d_coords(self) -> np.ndarray:
        """(H, W, 2) gradient w.r.t. the warp's target coordinates."""
        d_coords = np.zeros((*self._certainty.shape, 2))
        np.add.at(d_coords.reshape(-1, 2), *self._coord_terms)
        return d_coords

    @cached_property
    def d_certainty(self) -> np.ndarray:
        """(H, W) gradient w.r.t. the warp's certainty."""
        return _bce_grad(self._certainty, self._mask)


@dataclass(frozen=True)
class FineLossResult:
    value: float
    scales: Mapping[int, FineScaleResult] = field(default_factory=dict)


def fine_loss(
    warps: Mapping[int, WarpField],
    corr: CorrespondenceSet,
    masks: Mapping[int, np.ndarray],
    cfg: FineLossConfig,
) -> FineLossResult:
    """Sum of per-scale robust regression losses plus certainty cross-entropy.

    For scale exponent ``i`` the warp is sampled bilinearly at each
    correspondence source point, scored by the Charbonnier penalty at
    ``s = 2^i * c``, and the warp certainty is scored with BCE against the
    scale's matchable mask. Scales are independent: each scale's gradients
    touch only that scale's warp, mirroring stage-isolated refinement.
    """
    if len(corr) == 0:
        raise ValueError("correspondence set is empty")
    results: dict[int, FineScaleResult] = {}
    total = 0.0
    w = corr.weights
    wsum = float(w.sum())
    if wsum <= 0:
        raise ValueError("correspondence weights sum to zero")
    for i in cfg.scales:
        if i not in warps:
            raise ValueError(f"missing warp for scale exponent {i}")
        if i not in masks:
            raise ValueError(f"missing matchable mask for scale exponent {i}")
        fld = warps[i]
        s = cfg.scale_value(i)
        taps = bilinear_taps((fld.grid.height, fld.grid.width), corr.xa[:, 0], corr.xa[:, 1])
        mu = bilinear(fld.target_coords, taps)
        nll = charbonnier_nll(mu, corr.xb, s)
        charb = float(np.sum(w * nll) / wsum)
        # Chain rule through the bilinear sampling: each pair's Charbonnier
        # gradient goes to its four supporting cells, point-major.
        g_mu = charbonnier_grad(mu, corr.xb, s) * (w / wsum)[:, None]
        cells, bw = (np.stack(part, axis=-1) for part in zip(*taps))
        coord_terms = (cells.ravel(), (bw[..., None] * g_mu[:, None, :]).reshape(-1, 2))
        mask = np.array(masks[i], dtype=float).reshape(fld.grid.height, fld.grid.width)
        bce = _bce_mean(fld.certainty, mask)
        results[i] = FineScaleResult(
            value=charb + bce,
            charbonnier_term=charb,
            bce_term=bce,
            _coord_terms=coord_terms,
            _certainty=fld.certainty,
            _mask=mask,
        )
        total += charb + bce
    return FineLossResult(value=total, scales=results)


def gradient_sweep(
    c: float = 0.03, rmin: float = 1e-4, rmax: float = 100.0, steps: int = 200
) -> np.ndarray:
    """Rows of ``(r, charbonnier_nll, |charbonnier_grad|)`` for the scale-``c`` penalty.

    Starts at r = 0 and continues log-spaced from ``rmin`` to ``rmax``; used
    by the CLI to emit robustness curves. ``rmax**2 + c`` must not overflow.
    """
    if not (0 < rmin < rmax < np.inf) or not 2 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(
            f"need 0 < rmin < rmax < inf and 2 <= steps <= {MAX_SWEEP_STEPS}; got {rmin}, {rmax}, {steps}"
        )
    if not np.isfinite(rmax * rmax + c):
        raise ValueError(f"rmax**2 + c must be finite; got rmax={rmax:g}, c={c:g}")
    r = np.concatenate([[0.0], np.geomspace(rmin, rmax, steps)])
    loss = charbonnier_nll(r[:, None], 0.0, c)
    grad = np.linalg.norm(charbonnier_grad(r[:, None], 0.0, c), axis=-1)
    return np.stack([r, loss, grad], axis=1)
