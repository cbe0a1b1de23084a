"""Decoding of regressed per-object network outputs into physical quantities.

Covers the discrete-bin orientation representation, dimension residuals
against class mean dimensions, the bottom-face-center projection offset, and
the local <-> global yaw relation

    theta = 2*pi - theta_ray - theta_local   (mod 2*pi, into [-pi, pi)).

Angles are normalized to [-pi, pi) everywhere.  The decoders work on arrays
of rows as well as on numbers, element by element.
"""

import math
from dataclasses import dataclass

import numpy as np

from .camera import TWO_PI, Dimensions, wrap_angle


def default_bin_centers(n_bins: int = 2):
    """Equally spaced bin centers starting at 0 (default two bins: 0, pi)."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    return tuple(TWO_PI * i / n_bins for i in range(n_bins))


@dataclass(frozen=True)
class ClassPrior:
    name: str
    mean_dims: Dimensions


CAR_PRIOR = ClassPrior("Car", Dimensions(1.52, 1.64, 3.86))


def decode_local_angle(bins):
    """Local yaw of each row of (N, 3B) bin columns, the confidence and the
    (sin, cos) of the residual to each default bin center in turn, from the
    highest-confidence bin (ties -> lowest index).

    atan2 is scale invariant, so the (sin, cos) pair needs no explicit
    renormalization before use.  It is math.atan2, row by row: numpy's
    arctan2 differs from it in the last bit on some inputs.
    """
    bins = np.asarray(bins, dtype=float)
    rows, centers = np.arange(len(bins)), np.array(default_bin_centers(bins.shape[1] // 3))
    best = np.zeros(len(bins), dtype=np.intp)
    for i in range(1, len(centers)):  # a later bin wins only with a strictly higher confidence
        best[bins[:, 3 * i] > bins[rows, 3 * best]] = i
    sins, coss = bins[rows, 3 * best + 1].tolist(), bins[rows, 3 * best + 2].tolist()
    residual = np.array([math.atan2(s, c) for s, c in zip(sins, coss)])
    return wrap_angle(centers[best] + residual)


def encode_local_angle(theta_l: float, n_bins: int = 2) -> list:
    """Inverse of decode_local_angle for synthetic data generation: one row
    of bin columns.

    One-hot confidence on the circularly nearest bin center (ties -> lowest
    index); exact round trip mod 2*pi.
    """
    centers = default_bin_centers(n_bins)
    best = min(range(n_bins), key=lambda i: (abs(wrap_angle(theta_l - centers[i])), i))
    residual = theta_l - centers[best]
    out = []
    for i in range(n_bins):
        out += [1.0, math.sin(residual), math.cos(residual)] if i == best else [0.0, 0.0, 1.0]
    return out


def global_from_local(theta_l: float, theta_ray: float) -> float:
    """Global yaw from local yaw and the viewing-ray angle."""
    return wrap_angle(TWO_PI - theta_ray - theta_l)


def local_from_global(theta: float, theta_ray: float) -> float:
    """Local yaw from global yaw; exact inverse of global_from_local mod 2*pi."""
    return wrap_angle(TWO_PI - theta_ray - theta)


def alpha_from_local(theta_l: float) -> float:
    """KITTI observation angle from this package's local yaw (fixed transform)."""
    return wrap_angle(1.5 * math.pi - theta_l)


def dimension_values(residual, prior: ClassPrior) -> np.ndarray:
    """Mean dimensions plus the regressed residuals (..., 3), componentwise
    (h, w, l), unchecked: batched decoding leaves the rejection of
    non-positive values to the lift."""
    m = prior.mean_dims
    return np.array([m.h, m.w, m.l]) + residual


def cbf_anchor(box) -> np.ndarray:
    """The 2D-box point the bottom-face-center offset is regressed against,
    (center u, v_max), of boxes (..., 4) u_min, v_min, u_max, v_max."""
    box = np.asarray(box, dtype=float)
    return np.stack([0.5 * (box[..., 0] + box[..., 2]), box[..., 3]], axis=-1)


def decode_cbf(offset, box) -> np.ndarray:
    """Pixel position (..., 2) of the projected bottom-face center."""
    return cbf_anchor(box) + offset


def encode_cbf(cbf, box) -> np.ndarray:
    """Offset of a known bottom-face-center projection from the box anchor."""
    return np.asarray(cbf, dtype=float) - cbf_anchor(box)
