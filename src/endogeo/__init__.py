"""Deterministic geometric core for monocular endoscopic reconstruction.

Four capabilities, all pure numpy and all reproducible to the byte:

* hierarchical drift correction of long camera trajectories against sparse
  anchor poses (``drift``),
* metric depth synthesis from calibrated stereo via rectification and
  disparity conversion (``stereo``),
* the hybrid supervision objective: confidence-weighted pointmap and pose
  terms plus flow / temporal / prior consistency (``losses``),
* the evaluation protocol: ATE / RTE for trajectories and the standard
  five-metric depth battery (``metrics``),

backed by a self-verifying synthetic scene generator (``sim``) and exact
TUM / PFM / .flo readers and writers (``fileio``).
"""

from types import ModuleType as _ModuleType

from .errors import EndogeoError, FormatError, NumericError, ValidationError
from .geometry import (
    CameraIntrinsics,
    Pose,
    PoseBatch,
    Quaternion,
    SimilarityTransform,
    compose,
    inverse,
    pose_distance,
    pose_interp,
    project,
    slerp,
    umeyama_align,
)
from .trajectory import (
    Trajectory,
    load_tum,
    parse_tum,
    save_tum,
    serialize_tum,
    split_into_segments,
)
from .drift import (
    CorrectionReport,
    SegmentCorrection,
    compute_drift_error,
    correct_long_trajectory,
)
from .rasters import (
    DISPARITY_EPSILON,
    ConfidenceMap,
    DepthMap,
    DisparityMap,
    FlowField,
    Pointmap,
)
from .stereo import (
    MonoCalibration,
    RectifyMaps,
    StereoCalibration,
    compute_rectify_maps,
    disparity_to_depth,
    depth_to_disparity,
    distort_pixels,
    load_calibration,
    rectify_pixels,
    remap,
    save_calibration,
    undistort_pixels,
)
from .losses import (
    LossConfig,
    NormalizationSpec,
    c_flow,
    c_prior,
    c_temp,
    conf_loss,
    consistency_total,
    induced_reprojection,
    point_set_scale,
    pose_loss,
    total_loss,
)
from .metrics import DepthEvalConfig, DepthMetrics, ate, depth_metrics, resize_depth, rpe
from .fileio import (
    read_depth_pfm,
    read_disparity_pfm,
    read_flo,
    read_pfm,
    write_depth_pfm,
    write_flo,
    write_pfm,
)
from .rng import SplitMix64
from .sim import (
    DriftSpec,
    SceneSpec,
    default_intrinsics,
    gen_trajectory,
    induced_flow,
    inject_drift,
    look_at,
    relative_motion,
    render_depth,
    simulate_dataset,
)

__version__ = "0.1.0"

# every public name imported above; the submodules bound by those imports are not
__all__ = [
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
] + ["__version__"]
