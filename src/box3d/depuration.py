"""Filtering of implausible detections using recovered physical-world scale.

Four per-scene rules: plausible dimensions, plausible vertical location,
projected height shrinking with depth, and depth agreement with adjacent
(2D-overlapping) neighbors.  An implausible vertical location alone removes
a detection; the other three are soft and co-determine removal, at least
two must fail.  Removing a 2D detection abandons its paired 3D box.
"""

import math
from dataclasses import dataclass

from .camera import CameraIntrinsics, Dimensions, box_iou_2d
from .properties import CAR_PRIOR

RULE_DIMS = "dims"
RULE_VERTICAL = "vertical"
RULE_HEIGHT_DEPTH = "height_depth"
RULE_ADJACENT_DEPTH = "adjacent_depth"


@dataclass(frozen=True)
class DepurationConfig:
    """Thresholds for the four rules; car-tuned defaults, all overridable."""

    mean_dims: Dimensions = CAR_PRIOR.mean_dims
    dim_tolerance: float = 0.5  # fractional band around the mean
    vertical_centers: tuple = (1.28842871, 1.72911, 2.2184)  # bottom-face Y, meters
    vertical_slack: float = 0.75
    height_monotonic_eps: float = 0.3  # meters, "same height" band
    adjacency_iou_min: float = 0.0  # 2D IoU above this makes boxes adjacent
    depth_gap_max: float = 10.0  # meters

    def __post_init__(self):
        # NaN fails `>= 0`: a NaN threshold would switch its rule off
        for name in ("dim_tolerance", "vertical_slack", "height_monotonic_eps", "adjacency_iou_min",
                     "depth_gap_max"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be a non-negative number, got {getattr(self, name)!r}")
        if not self.vertical_centers or not all(map(math.isfinite, self.vertical_centers)):
            raise ValueError("vertical_centers must be one or more finite numbers")
        if list(self.vertical_centers) != sorted(self.vertical_centers):
            raise ValueError("vertical_centers must be sorted ascending")


DEFAULT_DEPURATION_CONFIG = DepurationConfig()


@dataclass(frozen=True)
class Verdict:
    violated_rules: frozenset

    @property
    def hard_violation(self) -> bool:
        return RULE_VERTICAL in self.violated_rules

    @property
    def kept(self) -> bool:
        return not self.hard_violation and len(self.violated_rules) < 2


def depurate(scene, camera: CameraIntrinsics,
             cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG):
    """Verdicts for a scene of (Box2D, Box3D) pairs, by rule:

    dims            h, w and l each within mean*(1 +- tolerance), inclusive;
    vertical        bottom-center Y within [min(centers) - slack, max(centers) + slack];
    height_depth    of two objects with heights within eps, the deeper one must
                    have the smaller projected height; a violating pair blames
                    the one whose projected height disagrees more with its
                    solved depth, by |dv*Z - fv*h|;
    adjacent_depth  2D-overlapped (IoU above the minimum) on both sides, and
                    more than depth_gap_max in depth from every such neighbor.
    """
    n = len(scene)
    residual = [abs(b2.height * b3.location[2] - camera.fv * b3.dims.h) for b2, b3 in scene]
    blamed = set()
    left_gaps = [[] for _ in range(n)]
    right_gaps = [[] for _ in range(n)]
    for i in range(n):
        b2i, b3i = scene[i]
        zi = b3i.location[2]
        for j in range(i + 1, n):
            b2j, b3j = scene[j]
            zj = b3j.location[2]
            if box_iou_2d(b2i, b2j) > cfg.adjacency_iou_min:
                gap = abs(zi - zj)
                if b2j.center_u < b2i.center_u:
                    left_gaps[i].append(gap)
                    right_gaps[j].append(gap)
                elif b2j.center_u > b2i.center_u:
                    right_gaps[i].append(gap)
                    left_gaps[j].append(gap)
            if abs(b3i.dims.h - b3j.dims.h) > cfg.height_monotonic_eps:
                continue
            if zi > zj:
                far, near = i, j
            elif zj > zi:
                far, near = j, i
            else:
                continue
            if scene[far][0].height >= scene[near][0].height:
                blamed.add(far if residual[far] >= residual[near] else near)

    lo, hi = 1.0 - cfg.dim_tolerance, 1.0 + cfg.dim_tolerance
    dim_bands = [(m * lo, m * hi) for m in (cfg.mean_dims.h, cfg.mean_dims.w, cfg.mean_dims.l)]
    y_lo = min(cfg.vertical_centers) - cfg.vertical_slack
    y_hi = max(cfg.vertical_centers) + cfg.vertical_slack
    verdicts = []
    for i, (_, box3d) in enumerate(scene):
        d = box3d.dims
        violated = set()
        if not all(low <= v <= high for (low, high), v in zip(dim_bands, (d.h, d.w, d.l))):
            violated.add(RULE_DIMS)
        if not y_lo <= box3d.location[1] <= y_hi:
            violated.add(RULE_VERTICAL)
        if i in blamed:
            violated.add(RULE_HEIGHT_DEPTH)
        left, right = left_gaps[i], right_gaps[i]
        if left and right and min(left) > cfg.depth_gap_max and min(right) > cfg.depth_gap_max:
            violated.add(RULE_ADJACENT_DEPTH)
        verdicts.append(Verdict(frozenset(violated)))
    return verdicts
