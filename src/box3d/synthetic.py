"""Synthetic scene generation: the projection oracle behind the solver and
depuration test suites.

Objects are sampled in 3D, their exact 2D boxes computed by projecting all
eight corners and taking extremes, the bottom-face-center projection taken
exactly, the viewpoint labeled geometrically, and the local yaw encoded into
the discrete-bin representation; configured noise is applied afterwards.
Generation is deterministic under a fixed seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .camera import Box2D, Box3D, CameraIntrinsics, Dimensions, box_iou_2d, box_vertices, project_point
from .kitti_io import DetectionTable, FrameRecord, LabelTable, PropertyTable, check_fields
from .properties import CAR_PRIOR, alpha_from_local, encode_cbf, encode_local_angle, local_from_global
from .viewpoints import HALF_PI, HEIGHT_MARGIN, away_from_viewpoint_boundaries, classify_viewpoint

# KITTI-like default camera
DEFAULT_CAMERA = CameraIntrinsics(fu=721.5377, fv=721.5377, cu=609.5593, cv=172.854)
DEFAULT_IMAGE_SIZE = (1242, 375)


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Sampling ranges and noise levels for one generated frame."""

    n_objects_min: int = 1
    n_objects_max: int = 4
    depth_min: float = 5.0
    depth_max: float = 60.0
    lateral_min: float = -20.0
    lateral_max: float = 20.0
    yaw_min: float = -math.pi
    yaw_max: float = math.pi
    dims_sigma: float = 0.0
    box_noise_sigma: float = 0.0
    cbf_noise_sigma: float = 0.0
    angle_noise_sigma: float = 0.0
    seed: int = 0
    # scene geometry and sampling guards
    camera_fu: float = DEFAULT_CAMERA.fu
    camera_fv: float = DEFAULT_CAMERA.fv
    camera_cu: float = DEFAULT_CAMERA.cu
    camera_cv: float = DEFAULT_CAMERA.cv
    image_width: float = DEFAULT_IMAGE_SIZE[0]
    image_height: float = DEFAULT_IMAGE_SIZE[1]
    camera_height: float = 1.65  # bottom-face Y of sampled objects
    in_image_margin_px: float = 15.0
    boundary_margin_deg: float = 2.0
    n_bins: int = 2
    allow_truncated: bool = False
    allow_boundary_poses: bool = False
    # non-occluding layouts: no 2D overlap and no 3D interpenetration,
    # the regime the depuration adjacency rule assumes for clean scenes
    overlap_free: bool = False

    def __post_init__(self):
        # NaN fails every test: a NaN sigma would write frames without noise
        check_fields(self, ("n_objects_min", "n_bins"), lambda v: v >= 1, "at least 1")
        check_fields(self, ("dims_sigma", "box_noise_sigma", "cbf_noise_sigma", "angle_noise_sigma",
                            "boundary_margin_deg", "seed"))
        check_fields(self, ("image_width", "image_height"), lambda v: v > 0, "positive")
        check_fields(self, ("depth_min", "depth_max", "lateral_min", "lateral_max", "yaw_min", "yaw_max",
                            "camera_height", "in_image_margin_px"), math.isfinite, "a finite number")
        if not self.allow_truncated:  # a pose needs m < u_min < u_max < W - m, and the same in v
            check_fields(self, ("in_image_margin_px",), lambda m: m < min(self.image_size) / 2,
                         "below half of image_width and of image_height unless allow_truncated is set")
        if not self.allow_boundary_poses:  # a pose needs the camera clear of the box's faces
            check_fields(self, ("camera_height",), lambda y: y >= HEIGHT_MARGIN,
                         f"at least {HEIGHT_MARGIN} unless allow_boundary_poses is set")
            if self.dims_sigma == 0:  # every box has the prior's height
                h = CAR_PRIOR.mean_dims.h
                check_fields(self, ("camera_height",), lambda y: abs(y - h) >= HEIGHT_MARGIN,
                             f"at least {HEIGHT_MARGIN} from the car height {h} when dims_sigma is 0 "
                             "unless allow_boundary_poses is set")
            # and its local yaw clear of the 45-degree boundaries, its global yaw of the 90-degree ones
            check_fields(self, ("boundary_margin_deg",), lambda m: m < 22.5,
                         "below 22.5 unless allow_boundary_poses is set")
            margin, k = math.radians(self.boundary_margin_deg), round((self.yaw_min + self.yaw_max) / math.pi)
            if abs(self.yaw_min - k * HALF_PI) < margin and abs(self.yaw_max - k * HALF_PI) < margin:
                raise ValueError(f"yaw_min and yaw_max must not both lie within boundary_margin_deg of {90 * k} deg "
                                 f"unless allow_boundary_poses is set, got {self.yaw_min!r} and {self.yaw_max!r}")
        if self.n_objects_max < self.n_objects_min:
            raise ValueError("object count range empty")
        if self.depth_max < self.depth_min or self.lateral_max < self.lateral_min:
            raise ValueError("sampling range empty")
        self.camera  # CameraIntrinsics checks the intrinsics

    @property
    def camera(self) -> CameraIntrinsics:
        return CameraIntrinsics(self.camera_fu, self.camera_fv, self.camera_cu, self.camera_cv)

    @property
    def image_size(self):
        return (self.image_width, self.image_height)


def exact_box2d(b: Box3D, k: CameraIntrinsics) -> Box2D:
    """Tight 2D box: hull extremes of the eight projected corners."""
    uv = np.stack([project_point(k, p) for p in box_vertices(b)])
    return Box2D(
        float(uv[:, 0].min()), float(uv[:, 1].min()),
        float(uv[:, 0].max()), float(uv[:, 1].max()),
    )


def clip_box2d(box: Box2D, image_size) -> Box2D:
    w, h = image_size
    return Box2D(
        min(max(box.u_min, 0.0), w), min(max(box.v_min, 0.0), h),
        min(max(box.u_max, 0.0), w), min(max(box.v_max, 0.0), h),
    )


def _sample_box3d(spec: SyntheticSceneSpec, rng) -> Box3D:
    prior = CAR_PRIOR.mean_dims
    while True:
        jitter = rng.normal(0.0, spec.dims_sigma, 3) if spec.dims_sigma > 0 else np.zeros(3)
        h, w, l = prior.h + jitter[0], prior.w + jitter[1], prior.l + jitter[2]
        if min(h, w, l) > 0.1:
            dims = Dimensions(h, w, l)
            break
    location = np.array([
        rng.uniform(spec.lateral_min, spec.lateral_max),
        spec.camera_height,
        rng.uniform(spec.depth_min, spec.depth_max),
    ])
    yaw = rng.uniform(spec.yaw_min, spec.yaw_max)
    return Box3D(location, dims, yaw)


def _acceptable(b: Box3D, spec: SyntheticSceneSpec, placed) -> bool:
    k = spec.camera
    verts = box_vertices(b)
    if np.any(verts[:, 2] <= 0.5):
        return False
    box = exact_box2d(b, k)
    if not spec.allow_truncated:
        m = spec.in_image_margin_px
        if not (box.u_min > m and box.v_min > m
                and box.u_max < spec.image_width - m and box.v_max < spec.image_height - m):
            return False
    if not spec.allow_boundary_poses:
        if not away_from_viewpoint_boundaries(b, math.radians(spec.boundary_margin_deg)):
            return False
    if spec.overlap_free:
        for other_box, other in placed:
            if box_iou_2d(box, other_box) > 0:
                return False
            reach = 0.5 * (math.hypot(b.dims.l, b.dims.w) + math.hypot(other.dims.l, other.dims.w))
            if math.hypot(b.location[0] - other.location[0], b.location[2] - other.location[2]) < reach:
                return False
    return True


def generate_scene(spec: SyntheticSceneSpec, frame_id: str = "000000"):
    """One synthetic frame: (ground-truth FrameRecord, DetectionTable,
    PropertyTable).

    The ground-truth labels carry the exact (clipped) 2D boxes; the returned
    detections and properties carry the configured noise.
    """
    rng = np.random.default_rng(spec.seed)
    k = spec.camera

    n = int(rng.integers(spec.n_objects_min, spec.n_objects_max + 1))
    gt_rows, detections, props = [], [], []
    placed = []
    for _ in range(n):
        for _attempt in range(10_000):
            b = _sample_box3d(spec, rng)
            if _acceptable(b, spec, placed):
                break
        else:
            raise RuntimeError("could not sample an acceptable pose; loosen the spec ranges")

        box = clip_box2d(exact_box2d(b, k), spec.image_size)
        placed.append((box, b))
        cbf = tuple(project_point(k, b.location))
        theta_ray = math.atan2(b.location[2], b.location[0])
        theta_l = local_from_global(b.yaw, theta_ray)
        viewpoint = classify_viewpoint(b, k)

        # untruncated, unoccluded, no score
        gt_rows.append([0.0, 0.0, alpha_from_local(theta_l), *box, b.dims.h, b.dims.w, b.dims.l,
                        *b.location, b.yaw, math.nan])

        noisy_box = box
        if spec.box_noise_sigma > 0:
            du0, dv0, du1, dv1 = rng.normal(0.0, spec.box_noise_sigma, 4)
            noisy_box = clip_box2d(
                Box2D(box.u_min + du0, box.v_min + dv0, box.u_max + du1, box.v_max + dv1),
                spec.image_size,
            )
        noisy_cbf = cbf
        if spec.cbf_noise_sigma > 0:
            noise = rng.normal(0.0, spec.cbf_noise_sigma, 2)
            noisy_cbf = (cbf[0] + noise[0], cbf[1] + noise[1])
        noisy_theta_l = theta_l
        if spec.angle_noise_sigma > 0:
            noisy_theta_l = theta_l + rng.normal(0.0, spec.angle_noise_sigma)

        detections.append([*noisy_box, float(rng.uniform(0.5, 1.0))])
        prior = CAR_PRIOR.mean_dims
        props.append([b.dims.h - prior.h, b.dims.w - prior.w, b.dims.l - prior.l, viewpoint,
                      *encode_cbf(noisy_cbf, noisy_box), *encode_local_angle(noisy_theta_l, spec.n_bins)])

    names = [CAR_PRIOR.name] * n
    return (
        FrameRecord(frame_id, LabelTable(gt_rows, names), camera=k),
        DetectionTable(detections, names),
        PropertyTable(props),
    )
