"""Localization distillation for bounding-box regression.

Distribution-based box codecs, the distillation loss family with analytic
gradients, valuable-localization-region assignment, numerical certification
of the underlying gradient identities, and a desk-scale synthetic
teacher-student harness.
"""

from .boxdist import (
    BinGrid,
    TwoHotTarget,
    decode_expectation,
    encode_target,
    flatness,
    generalized_softmax,
)
from .geometry import (
    BoundingBox,
    diou,
    diou_matrix,
    giou,
    iou,
)
from .losses import (
    DistillConfig,
    LossResult,
    SceneObjective,
    SceneOutputs,
    SceneTruth,
    ce_loss,
    dfl_loss,
    feature_imitation_loss,
    giou_regression_loss,
    kd_loss,
    ld_box_loss,
    ld_edge_loss,
    tbr_loss,
    total_loss,
)
from .regions import (
    RegionMasks,
    assign_main,
    assign_vlr,
    compute_region_masks,
    fold_membership,
    unfold_anchors,
)
from .theory import (
    DecompositionResult,
    RescalingReport,
    decompose_localization,
    gradient_rescaling_ratio,
    verify_proposition1,
)

__version__ = "0.1.0"
