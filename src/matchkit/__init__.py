"""Desk-scale numerical toolkit for dense feature matching mathematics."""

from .anchors import (
    AnchorGrid,
    AnchorProbs,
    build_anchor_grid,
    closest_anchor,
    gaussian_anchor_probs,
    mixture_density,
    to_warp,
)
from .cascade import (
    CORR_WINDOWS,
    FeaturePyramid,
    analytic_refiner,
    matchable_mask,
    run_cascade,
    scene_true_warp,
    synth_pyramid,
    upsample_warp,
)
from .gp import (
    KernelSpec,
    PreparedGP,
    SupportSet,
    exp_cos_kernel,
    gp_posterior_mean,
    kernel_matrix,
)
from .grids import (
    CorrespondenceSet,
    GridSpec,
    JointMatchDistribution,
    WarpField,
    bilinear_sample,
    in_extent,
    normalize_joint,
)
from .losses import (
    CoarseLossConfig,
    FineLossConfig,
    charbonnier_grad,
    charbonnier_nll,
    coarse_loss,
    fine_loss,
    gradient_sweep,
)
from .metrics import auc, entropy, epe, maa, pck, pose_errors, robustness
from .sampling import balanced_sample, certainty_sample, kde_density, spatial_entropy
from .scalespace import (
    DiffusedJoint,
    SceneSpec,
    affine_scene,
    diffuse,
    fit_comparison,
    identity_scene,
    multimodality_sweep,
    rasterize_scene,
    translation_scene,
    two_translation_scene,
)
from .steering import (
    DescriptorSet,
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

__version__ = "0.1.0"
