"""Correspondence and two-view pose evaluation measures.

Correspondence errors are measured in pixels at an explicit reference
resolution: one extent unit corresponds to ``ref_resolution`` pixels, so an
extent-space error ``e`` converts to ``e * ref_resolution`` px. Thresholds
are strict everywhere ("error lower than tau").

Pose errors follow the two-view convention: rotation error is the geodesic
angle between rotations; translation error is the angle between translation
directions, sign-invariant because a two-view translation is recoverable
only up to scale and sign.
"""

from __future__ import annotations

import numpy as np

from .grids import CorrespondenceSet

DEFAULT_REF_RESOLUTION = 448.0

ORTHONORMAL_TOL = 1e-6


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats; zero entries contribute nothing."""
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _aligned_pixel_errors(
    pred: CorrespondenceSet, gt: CorrespondenceSet, ref_resolution: float
) -> np.ndarray:
    if len(pred) != len(gt):
        raise ValueError(f"pred has {len(pred)} pairs, gt has {len(gt)}")
    if not 0 < ref_resolution < np.inf:  # also refuses NaN
        raise ValueError(f"ref_resolution must be positive and finite, got {ref_resolution}")
    if np.max(np.abs(pred.xa - gt.xa)) > 1e-6:
        raise ValueError("pred and gt source points are not index-aligned")
    d = pred.xb - gt.xb
    with np.errstate(over="ignore"):  # an overflow is refused below
        err = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) * ref_resolution  # np.linalg.norm's bits, faster
    _refuse_overflow(err, ref_resolution)
    return err


def _refuse_overflow(px: np.ndarray, ref_resolution: float) -> None:
    if not np.all(np.isfinite(px)):
        raise ValueError(f"ref_resolution={ref_resolution:g} is too large: the pixel errors overflow")


def epe(
    pred: CorrespondenceSet, gt: CorrespondenceSet, ref_resolution: float = DEFAULT_REF_RESOLUTION
) -> float:
    """Mean end-point error in pixels at the reference resolution."""
    err = _aligned_pixel_errors(pred, gt, ref_resolution)
    with np.errstate(over="ignore"):  # the sum can overflow where no single error does
        mean = err.mean()
    _refuse_overflow(mean, ref_resolution)
    return float(mean)


def pck(
    pred: CorrespondenceSet,
    gt: CorrespondenceSet,
    tau_px: float,
    ref_resolution: float = DEFAULT_REF_RESOLUTION,
) -> float:
    """Percentage of correspondences with pixel error strictly below tau."""
    if not 0 < tau_px < np.inf:  # also refuses NaN
        raise ValueError(f"tau_px must be positive and finite, got {tau_px}")
    err = _aligned_pixel_errors(pred, gt, ref_resolution)
    return float(100.0 * np.mean(err < tau_px))


def robustness(
    pred: CorrespondenceSet, gt: CorrespondenceSet, ref_resolution: float = DEFAULT_REF_RESOLUTION
) -> float:
    """PCK at the 32 px coarse-usefulness threshold."""
    return pck(pred, gt, 32.0, ref_resolution)


def pose_errors(
    R_est: np.ndarray,
    t_est: np.ndarray,
    R_gt: np.ndarray,
    t_gt: np.ndarray,
) -> tuple[float, float]:
    """(rotation error, translation angle error) in degrees.

    Rotation error is ``arccos((trace(R_est^T R_gt) - 1) / 2)``. Translation
    error is the angle between the unit translation directions; the cosine's
    absolute value is used, making the measure sign-invariant.
    """
    R_est = np.asarray(R_est, dtype=float)
    R_gt = np.asarray(R_gt, dtype=float)
    for name, R in (("R_est", R_est), ("R_gt", R_gt)):
        if R.shape != (3, 3) or not np.max(np.abs(R.T @ R - np.eye(3))) <= ORTHONORMAL_TOL:  # also refuses NaN
            raise ValueError(f"{name} is not orthonormal within {ORTHONORMAL_TOL}")
    t_est = np.asarray(t_est, dtype=float).reshape(3)
    t_gt = np.asarray(t_gt, dtype=float).reshape(3)
    ne, ng = np.linalg.norm(t_est), np.linalg.norm(t_gt)
    for name, norm in (("t_est", ne), ("t_gt", ng)):
        if not 0 < norm < np.inf:
            raise ValueError(f"{name} must have a finite, nonzero norm")
    # Angles are evaluated with arctan2(sin, cos) rather than arccos(cos):
    # mathematically identical on [0, 180] but exact for identical inputs and
    # well conditioned near 0.
    m = R_est.T @ R_gt
    sin_r = 0.5 * np.linalg.norm(
        [m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]
    )
    cos_r = (np.trace(m) - 1.0) / 2.0
    rot_deg = float(np.degrees(np.arctan2(sin_r, cos_r)))
    te, tg = t_est / ne, t_gt / ng
    sin_t = np.linalg.norm(np.cross(te, tg))
    cos_t = abs(float(te @ tg))
    trans_deg = float(np.degrees(np.arctan2(sin_t, cos_t)))
    return rot_deg, trans_deg


def auc(errors: np.ndarray, tau: float) -> float:
    """Area under the recall curve up to tau, normalized to [0, 1].

    Recall(t) is the fraction of errors strictly below t, so each error e
    adds max(tau - e, 0) / n to the integral of recall over [0, tau]: the
    AUC is the mean of those hinge terms, each divided by tau (so that no
    sum can overflow).
    """
    errors = np.asarray(errors, dtype=float).ravel()
    if errors.size == 0:
        raise ValueError("need at least one error value")
    if not np.all((errors >= 0) & (errors < np.inf)):  # also refuses NaN
        raise ValueError("errors must be finite and nonnegative")
    if not 0 < tau < np.inf:  # also refuses NaN
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return float(np.mean(np.maximum(tau - errors, 0.0) / tau))


def default_maa_thresholds() -> tuple[np.ndarray, np.ndarray]:
    """Ten uniform (rotation deg, translation) threshold pairs.

    The endpoints (1..10 degrees, 0.2..2.0 translation units) are this
    toolkit's documented defaults, not an external benchmark's hidden values.
    """
    return np.linspace(1.0, 10.0, 10), np.linspace(0.2, 2.0, 10)


def maa(
    rot_errors: np.ndarray,
    trans_errors: np.ndarray,
    rot_thresholds: np.ndarray | None = None,
    trans_thresholds: np.ndarray | None = None,
) -> float:
    """Mean average accuracy over paired thresholds; a pose must meet both."""
    rot_errors = np.asarray(rot_errors, dtype=float).ravel()
    trans_errors = np.asarray(trans_errors, dtype=float).ravel()
    if rot_errors.shape != trans_errors.shape or rot_errors.size == 0:
        raise ValueError("rotation and translation errors must be nonempty and aligned")
    for name, errors in (("rot_errors", rot_errors), ("trans_errors", trans_errors)):
        if not np.all((errors >= 0) & (errors < np.inf)):  # also refuses NaN
            raise ValueError(f"{name} must be finite and nonnegative")
    if rot_thresholds is None and trans_thresholds is None:
        rot_thresholds, trans_thresholds = default_maa_thresholds()
    rot_thresholds = np.asarray(rot_thresholds, dtype=float).ravel()
    trans_thresholds = np.asarray(trans_thresholds, dtype=float).ravel()
    if rot_thresholds.shape != trans_thresholds.shape or rot_thresholds.size == 0:
        raise ValueError("threshold lists must be nonempty and of equal length")
    for name, thresholds in (("rot_thresholds", rot_thresholds), ("trans_thresholds", trans_thresholds)):
        if not np.all((thresholds > 0) & (thresholds < np.inf)):  # also refuses NaN
            raise ValueError(f"{name} must be positive and finite")
    accs = [
        np.mean((rot_errors < rt) & (trans_errors < tt))
        for rt, tt in zip(rot_thresholds, trans_thresholds)
    ]
    return float(np.mean(accs))
