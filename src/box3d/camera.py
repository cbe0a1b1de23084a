"""Pinhole camera model and 3D box geometry.

Conventions used throughout the package:

* camera frame: x right, y down, z forward (KITTI camera frame);
* a 3D box is (location, dims, yaw) where location is the center of the
  box's BOTTOM face in camera coordinates, dims = (h, w, l) in meters and
  yaw rotates about the vertical (y) axis;
* pixels are (u, v) with u rightward and v downward.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class BehindCameraError(ValueError):
    """A point with non-positive depth was pushed through the projection."""


def wrap_angle(theta):
    """Normalize an angle to [-pi, pi)."""
    return (theta + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters in pixels: focal lengths and principal point."""

    fu: float
    fv: float
    cu: float
    cv: float

    def __post_init__(self):
        if not (self.fu > 0 and self.fv > 0):
            raise ValueError(f"focal lengths must be positive, got ({self.fu}, {self.fv})")
        if not all(math.isfinite(x) for x in (self.fu, self.fv, self.cu, self.cv)):
            raise ValueError("intrinsics must be finite")


@dataclass(frozen=True)
class Dimensions:
    """Box dimensions in meters: height, width, length."""

    h: float
    w: float
    l: float

    def __post_init__(self):
        if not (self.h > 0 and self.w > 0 and self.l > 0):
            raise ValueError(f"dimensions must be positive, got {(self.h, self.w, self.l)}")


class Box2D(NamedTuple):
    """Image-plane box [u_min, v_min, u_max, v_max]."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    @property
    def width(self):
        return self.u_max - self.u_min

    @property
    def height(self):
        return self.v_max - self.v_min

    @property
    def center_u(self):
        return 0.5 * (self.u_min + self.u_max)


def box_iou_2d(a, b) -> float:
    """Intersection over union of two image boxes given as (u_min, v_min,
    u_max, v_max) sequences; positive exactly when they overlap by a positive
    extent on both axes."""
    # `y if y < x else x` is min(x, y) and `y if y > x else x` is max(x, y),
    # NaN and -0.0 included, without the builtins' call cost
    au0, av0, au1, av1 = a
    bu0, bv0, bu1, bv1 = b
    iw = (bu1 if bu1 < au1 else au1) - (bu0 if bu0 > au0 else au0)
    if iw <= 0:
        return 0.0
    ih = (bv1 if bv1 < av1 else av1) - (bv0 if bv0 > av0 else av0)
    if ih <= 0:
        return 0.0
    inter = iw * ih
    union = (au1 - au0) * (av1 - av0) + (bu1 - bu0) * (bv1 - bv0) - inter
    return inter / union if union > 0 else 0.0


@dataclass(frozen=True)
class Detection2D:
    box: Box2D
    score: float = 1.0
    cls: str = "Car"


@dataclass
class Box3D:
    """Oriented 3D box: bottom-face center, dimensions, yaw in [-pi, pi)."""

    location: np.ndarray
    dims: Dimensions
    yaw: float

    def __post_init__(self):
        self.location = np.asarray(self.location, dtype=float).reshape(3)
        self.yaw = wrap_angle(float(self.yaw))


def project_point(k: CameraIntrinsics, p) -> np.ndarray:
    """Project a camera-frame point to pixel coordinates.

    Raises BehindCameraError for non-positive depth.
    """
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    if z <= 0.0:
        raise BehindCameraError(f"point has non-positive depth z={z}")
    return np.array([k.cu + k.fu * x / z, k.cv + k.fv * y / z])


def yaw_rotation(theta: float) -> np.ndarray:
    """Rotation about the vertical (y, downward) axis."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


# Vertex index = 4*[x offset negative] + 2*[top face] + 1*[z offset negative],
# i.e. bit pattern over (l-sign, height level, w-sign).  Bottom face sits at
# y = 0 (through the box location), top face at y = -h (camera y points down).
def vertex_offsets(dims: Dimensions) -> np.ndarray:
    """The 8 object-frame corner offsets, ordered by the index convention."""
    hl, hw = 0.5 * dims.l, 0.5 * dims.w
    out = np.empty((8, 3))
    for i in range(8):
        out[i, 0] = -hl if i & 4 else hl
        out[i, 1] = -dims.h if i & 2 else 0.0
        out[i, 2] = -hw if i & 1 else hw
    return out


def box_vertices(b: Box3D) -> np.ndarray:
    """The 8 corners of a 3D box in camera coordinates, shape (8, 3)."""
    return vertex_offsets(b.dims) @ yaw_rotation(b.yaw).T + b.location
