"""Decoding of regressed per-object network outputs into physical quantities.

Covers the discrete-bin orientation representation, dimension residuals
against class mean dimensions, the bottom-face-center projection offset, and
the local <-> global yaw relation

    theta = 2*pi - theta_ray - theta_local   (mod 2*pi, into [-pi, pi)).

Angles are normalized to [-pi, pi) everywhere.
"""

import math
from dataclasses import dataclass

from .camera import TWO_PI, Box2D, Dimensions, wrap_angle


def default_bin_centers(n_bins: int = 2):
    """Equally spaced bin centers starting at 0 (default two bins: 0, pi)."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    return tuple(TWO_PI * i / n_bins for i in range(n_bins))


@dataclass(frozen=True)
class MultiBinOutput:
    """Per-bin confidence plus (sin, cos) of the residual to the bin center."""

    confidences: tuple
    sin_residuals: tuple
    cos_residuals: tuple
    bin_centers: tuple

    def __post_init__(self):
        n = len(self.bin_centers)
        if n < 1:
            raise ValueError("need at least one bin")
        if not (len(self.confidences) == len(self.sin_residuals) == len(self.cos_residuals) == n):
            raise ValueError("bin field lengths disagree")


@dataclass(frozen=True)
class RegressedProperties:
    """Raw per-object network outputs, as read from files or synthesized."""

    dim_residual: tuple  # (dh, dw, dl) meters, added to the class mean
    multibin: MultiBinOutput
    viewpoint_class: int
    cbf_offset: tuple  # (du, dv) pixels from the 2D-box anchor


@dataclass(frozen=True)
class ClassPrior:
    name: str
    mean_dims: Dimensions


CAR_PRIOR = ClassPrior("Car", Dimensions(1.52, 1.64, 3.86))


def decode_local_angle(m: MultiBinOutput) -> float:
    """Local yaw from the highest-confidence bin (ties -> lowest index).

    atan2 is scale invariant, so the (sin, cos) pair needs no explicit
    renormalization before use.
    """
    best = max(range(len(m.confidences)), key=lambda i: (m.confidences[i], -i))
    residual = math.atan2(m.sin_residuals[best], m.cos_residuals[best])
    return wrap_angle(m.bin_centers[best] + residual)


def encode_local_angle(theta_l: float, bin_centers=None) -> MultiBinOutput:
    """Inverse of decode_local_angle for synthetic data generation.

    One-hot confidence on the circularly nearest bin center (ties -> lowest
    index); exact round trip mod 2*pi.
    """
    centers = tuple(bin_centers) if bin_centers is not None else default_bin_centers()
    best = min(range(len(centers)), key=lambda i: (abs(wrap_angle(theta_l - centers[i])), i))
    residual = theta_l - centers[best]
    conf = tuple(1.0 if i == best else 0.0 for i in range(len(centers)))
    sins = tuple(math.sin(residual) if i == best else 0.0 for i in range(len(centers)))
    coss = tuple(math.cos(residual) if i == best else 1.0 for i in range(len(centers)))
    return MultiBinOutput(conf, sins, coss, centers)


def global_from_local(theta_l: float, theta_ray: float) -> float:
    """Global yaw from local yaw and the viewing-ray angle."""
    return wrap_angle(TWO_PI - theta_ray - theta_l)


def local_from_global(theta: float, theta_ray: float) -> float:
    """Local yaw from global yaw; exact inverse of global_from_local mod 2*pi."""
    return wrap_angle(TWO_PI - theta_ray - theta)


def alpha_from_local(theta_l: float) -> float:
    """KITTI observation angle from this package's local yaw (fixed transform)."""
    return wrap_angle(1.5 * math.pi - theta_l)


def dimension_values(residual, prior: ClassPrior) -> tuple:
    """Mean dimensions plus the regressed residual, componentwise (h, w, l),
    unchecked: batched decoding leaves the rejection of non-positive values
    to the lift."""
    m = prior.mean_dims
    return (m.h + residual[0], m.w + residual[1], m.l + residual[2])


def cbf_anchor(box: Box2D):
    """The 2D-box point the bottom-face-center offset is regressed against."""
    return (box.center_u, box.v_max)


def decode_cbf(offset, box: Box2D):
    """Pixel position of the projected bottom-face center."""
    au, av = cbf_anchor(box)
    return (au + offset[0], av + offset[1])


def encode_cbf(cbf, box: Box2D):
    """Offset of a known bottom-face-center projection from the box anchor."""
    au, av = cbf_anchor(box)
    return (cbf[0] - au, cbf[1] - av)
