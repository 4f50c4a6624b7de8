"""Stereo visual odometry with surface-normal constraints.

A back-end for downward-looking stereo sequences over near-planar ground,
where reprojection error alone leaves the tilt degrees of freedom weakly
constrained and the pose estimate drifts. Per-keyframe plane normals enter
the optimization as tangent-plane residuals against a shared world normal,
anchoring tilt without touching the well-constrained directions.

The package ships the estimator (`run_sequence`), a synthetic pavement-scene
simulator (`generate_sequence`), trajectory metrics (`ate`, `rde`), dataset
and trajectory file I/O, and a CLI (`normalvo`, see `normalvo.cli`).
"""

from .config import (
    ConfigError,
    RunConfig,
    default_config_text,
    format_config,
    load_config,
    parse_config,
    save_config,
)
from .dataset import (
    DataFormatError,
    Dataset,
    load_dataset,
    load_trajectory,
    save_trajectory,
    write_dataset,
)
from .estimator import (
    BAReport,
    FrameData,
    MapState,
    RunResult,
    SolverConfig,
    SolverDiverged,
    TrackingLost,
    local_bundle_adjustment,
    run_sequence,
    track_frame,
)
from .evaluation import (
    MetricReport,
    TimestampMismatch,
    TooFewPoses,
    Trajectory,
    align,
    associate,
    ate,
    rde,
    report_csv,
    report_table,
)
from .factors import (
    CHI2_95_2DOF,
    CHI2_95_3DOF,
    RobustLossConfig,
    huber,
    make_tangent_basis,
    normal_jacobian,
    normal_residual,
    reprojection_jacobians,
)
from .geometry import (
    DegenerateDisparity,
    Intrinsics,
    NonPositiveDepth,
    PoseSE3,
    project,
    quat_to_rotation,
    rotation_to_quat,
    se3_exp,
    se3_log,
    so3_exp,
    so3_log,
    triangulate,
)
from .simulator import (
    DegenerateCloud,
    SceneConfig,
    SimulatedSequence,
    estimate_frame_normal,
    generate_scene,
    generate_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "BAReport",
    "CHI2_95_2DOF",
    "CHI2_95_3DOF",
    "ConfigError",
    "DataFormatError",
    "Dataset",
    "DegenerateCloud",
    "DegenerateDisparity",
    "FrameData",
    "Intrinsics",
    "MapState",
    "MetricReport",
    "NonPositiveDepth",
    "PoseSE3",
    "RobustLossConfig",
    "RunConfig",
    "RunResult",
    "SceneConfig",
    "SimulatedSequence",
    "SolverConfig",
    "SolverDiverged",
    "TimestampMismatch",
    "TooFewPoses",
    "TrackingLost",
    "Trajectory",
    "align",
    "associate",
    "ate",
    "default_config_text",
    "estimate_frame_normal",
    "format_config",
    "generate_scene",
    "generate_sequence",
    "huber",
    "load_config",
    "load_dataset",
    "load_trajectory",
    "local_bundle_adjustment",
    "make_tangent_basis",
    "normal_jacobian",
    "normal_residual",
    "parse_config",
    "project",
    "quat_to_rotation",
    "rde",
    "report_csv",
    "report_table",
    "reprojection_jacobians",
    "rotation_to_quat",
    "run_sequence",
    "save_config",
    "save_trajectory",
    "se3_exp",
    "se3_log",
    "so3_exp",
    "so3_log",
    "track_frame",
    "triangulate",
    "write_dataset",
]
