"""Correspondence and two-view pose evaluation measures.

Correspondence errors are measured in pixels at an explicit reference
resolution: one extent unit corresponds to ``ref_resolution`` pixels, so an
extent-space error ``e`` converts to ``e * ref_resolution`` px. Thresholds
are strict everywhere ("error lower than tau").

Pose errors follow the two-view convention: rotation error is the geodesic
angle between rotations; translation error is the angle between translation
directions, sign-invariant by default because a two-view translation is
recoverable only up to scale and sign.
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
    if ref_resolution <= 0:
        raise ValueError("reference resolution must be positive")
    if np.max(np.abs(pred.xa - gt.xa)) > 1e-6:
        raise ValueError("pred and gt source points are not index-aligned")
    return np.linalg.norm(pred.xb - gt.xb, axis=1) * ref_resolution


def epe(
    pred: CorrespondenceSet, gt: CorrespondenceSet, ref_resolution: float = DEFAULT_REF_RESOLUTION
) -> float:
    """Mean end-point error in pixels at the reference resolution."""
    return float(_aligned_pixel_errors(pred, gt, ref_resolution).mean())


def pck(
    pred: CorrespondenceSet,
    gt: CorrespondenceSet,
    tau_px: float,
    ref_resolution: float = DEFAULT_REF_RESOLUTION,
) -> float:
    """Percentage of correspondences with pixel error strictly below tau."""
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
    signed_translation: bool = False,
) -> tuple[float, float]:
    """(rotation error, translation angle error) in degrees.

    Rotation error is ``arccos((trace(R_est^T R_gt) - 1) / 2)``. Translation
    error is the angle between the unit translation directions; by default the
    cosine's absolute value is used, making the measure sign-invariant.
    """
    R_est = np.asarray(R_est, dtype=float)
    R_gt = np.asarray(R_gt, dtype=float)
    for name, R in (("R_est", R_est), ("R_gt", R_gt)):
        if R.shape != (3, 3) or np.max(np.abs(R.T @ R - np.eye(3))) > ORTHONORMAL_TOL:
            raise ValueError(f"{name} is not orthonormal within {ORTHONORMAL_TOL}")
    t_est = np.asarray(t_est, dtype=float).reshape(3)
    t_gt = np.asarray(t_gt, dtype=float).reshape(3)
    ne, ng = np.linalg.norm(t_est), np.linalg.norm(t_gt)
    if ne == 0 or ng == 0:
        raise ValueError("translations must be nonzero")
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
    cos_t = float(te @ tg)
    if not signed_translation:
        cos_t = abs(cos_t)
    trans_deg = float(np.degrees(np.arctan2(sin_t, cos_t)))
    return rot_deg, trans_deg


def auc(errors: np.ndarray, tau: float) -> float:
    """Area under the recall curve up to tau, normalized to [0, 1].

    Recall(t) is the fraction of errors strictly below t, a step function
    with jumps at the sorted error values; integrating it piecewise between
    the breakpoints {0} + errors + {tau} is exact.
    """
    errors = np.asarray(errors, dtype=float).ravel()
    if errors.size == 0:
        raise ValueError("need at least one error value")
    if not np.all(np.isfinite(errors)):
        raise ValueError("errors must be finite")
    if tau <= 0:
        raise ValueError("tau must be positive")
    ordered = np.sort(errors)
    inside = np.unique(ordered[(ordered > 0) & (ordered < tau)])
    breaks = np.concatenate([[0.0], inside, [tau]])
    # On the open interval (lo, hi) recall is constant: the share of errors <= lo.
    below = np.searchsorted(ordered, breaks[:-1], side="right") / errors.size
    area = np.cumsum(np.diff(breaks) * below)[-1]  # summed left to right
    return float(area / tau)


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
    if rot_thresholds is None and trans_thresholds is None:
        rot_thresholds, trans_thresholds = default_maa_thresholds()
    rot_thresholds = np.asarray(rot_thresholds, dtype=float).ravel()
    trans_thresholds = np.asarray(trans_thresholds, dtype=float).ravel()
    if rot_thresholds.shape != trans_thresholds.shape or rot_thresholds.size == 0:
        raise ValueError("threshold lists must be nonempty and of equal length")
    accs = [
        np.mean((rot_errors < rt) & (trans_errors < tt))
        for rt, tt in zip(rot_thresholds, trans_thresholds)
    ]
    return float(np.mean(accs))
