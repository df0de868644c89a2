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
    REFINER_STRIDES,
    FeaturePyramid,
    RefinerSpec,
    analytic_refiner,
    correlation_windows,
    default_refiners,
    matchable_mask,
    run_cascade,
    scene_true_warp,
    synth_pyramid,
    upsample_warp,
    warp_epe,
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
    ConditionalMatchDistribution,
    CorrespondenceSet,
    GridSpec,
    JointMatchDistribution,
    WarpField,
    bilinear_sample,
    bilinear_weights,
    in_extent,
    normalize_conditional,
    normalize_joint,
    normalized_to_pixel,
    pixel_to_normalized,
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
from .metrics import auc, epe, maa, pck, pose_errors, robustness
from .sampling import balanced_sample, certainty_sample, kde_density, spatial_entropy
from .scalespace import (
    DiffusedJoint,
    SceneSpec,
    affine_scene,
    conditional_of,
    count_modes,
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
