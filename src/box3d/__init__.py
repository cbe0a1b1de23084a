"""Geometric lifting of 2D detections into 3D boxes, with depuration and
evaluation metrics."""

from .camera import (
    BehindCameraError,
    Box2D,
    Box3D,
    CameraIntrinsics,
    Detection2D,
    Dimensions,
    box_vertices,
    project_point,
    wrap_angle,
    yaw_rotation,
)
from .depuration import DepurationConfig, Verdict, depurate
from .kitti_io import DetectionTable, LabelTable, PropertyTable
from .metrics import (
    aos_and_os,
    average_precision,
    dimension_error,
    match_frame,
    orientation_similarity,
    pair_ious,
)
from .properties import (
    CAR_PRIOR,
    ClassPrior,
    decode_cbf,
    decode_local_angle,
    encode_local_angle,
    global_from_local,
    local_from_global,
)
from .solver import (
    STATUSES,
    DecodedRows,
    LiftResult,
    SolverConfig,
    decode_rows,
    gauss_newton_refine,
    lift_batch,
)
from .synthetic import SyntheticSceneSpec, generate_scene
from .viewpoints import classify_viewpoint, extremal_vertices

__version__ = "0.1.0"
