"""Filtering of implausible detections using recovered physical-world scale.

Four per-scene rules: plausible dimensions, plausible vertical location,
projected height shrinking with depth, and depth agreement with adjacent
(2D-overlapping) neighbors.  An implausible vertical location alone removes
a detection; the other three are soft and co-determine removal, at least
two must fail.  Removing a 2D detection abandons its paired 3D box.
"""

import math
from dataclasses import dataclass
from itertools import compress

from .camera import Dimensions, box_iou_2d
from .kitti_io import check_fields
from .properties import CAR_PRIOR

RULE_DIMS = "dims"
RULE_VERTICAL = "vertical"
RULE_HEIGHT_DEPTH = "height_depth"
RULE_ADJACENT_DEPTH = "adjacent_depth"
RULES = (RULE_DIMS, RULE_VERTICAL, RULE_HEIGHT_DEPTH, RULE_ADJACENT_DEPTH)


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
        # a NaN threshold would switch its rule off
        check_fields(self, ("dim_tolerance", "vertical_slack", "height_monotonic_eps", "adjacency_iou_min",
                            "depth_gap_max"))
        # an infinite mean dimension would fail the dims rule on every row
        check_fields(self, ("mean_dims",), lambda d: all(map(math.isfinite, (d.h, d.w, d.l))), "finite")
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


_CLEAN = Verdict(frozenset())


def depurate(table, fv: float, cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG):
    """Verdicts for the rows of a LabelTable (2D box, dimensions and
    location) seen with vertical focal length fv in pixels, by rule:

    dims            h, w and l each within mean*(1 +- tolerance), inclusive;
    vertical        bottom-center Y within [min(centers) - slack, max(centers) + slack];
    height_depth    of two objects with heights within eps, the deeper one must
                    have the smaller projected height; a violating pair blames
                    the one whose projected height disagrees more with its
                    solved depth, by |dv*Z - fv*h|;
    adjacent_depth  2D-overlapped (IoU above the minimum) on both sides, and
                    more than depth_gap_max in depth from every such neighbor.

    Every row that violates no rule gets the same clean Verdict.
    """
    boxes, dims, location = table.box.tolist(), table.dims.tolist(), table.location.tolist()
    n = len(boxes)
    height = [v_max - v_min for _, v_min, _, v_max in boxes]
    center_u = [0.5 * (u_min + u_max) for u_min, _, u_max, _ in boxes]
    z = [p[2] for p in location]
    h3 = [d[0] for d in dims]
    residual = [abs(dv * zi - fv * h) for dv, zi, h in zip(height, z, h3)]
    iou_min, eps = cfg.adjacency_iou_min, cfg.height_monotonic_eps
    blamed = [False] * n
    # the smallest depth gap to an adjacent neighbour on each side, taken in
    # the order min() takes a list of them; -1 while there is none, as a gap
    # is >= 0 or NaN, and -1 is never above the non-negative depth_gap_max
    left_gap, right_gap = [-1.0] * n, [-1.0] * n
    for i in range(n):
        box_i, zi, hi, ui, dvi, ri = boxes[i], z[i], h3[i], center_u[i], height[i], residual[i]
        left_i, right_i = left_gap[i], right_gap[i]
        for j in range(i + 1, n):
            zj = z[j]
            if box_iou_2d(box_i, boxes[j]) > iou_min:
                gap = abs(zi - zj)
                uj = center_u[j]
                if uj < ui:
                    if gap < left_i or left_i < 0:
                        left_i = gap
                    if gap < right_gap[j] or right_gap[j] < 0:
                        right_gap[j] = gap
                elif uj > ui:
                    if gap < right_i or right_i < 0:
                        right_i = gap
                    if gap < left_gap[j] or left_gap[j] < 0:
                        left_gap[j] = gap
            if abs(hi - h3[j]) > eps:
                continue
            if zi > zj:
                if dvi >= height[j]:
                    blamed[i if ri >= residual[j] else j] = True
            elif zj > zi:
                if height[j] >= dvi:
                    blamed[j if residual[j] >= ri else i] = True
        left_gap[i], right_gap[i] = left_i, right_i

    lo, hi = 1.0 - cfg.dim_tolerance, 1.0 + cfg.dim_tolerance
    mean = cfg.mean_dims
    h_lo, h_hi, w_lo, w_hi, l_lo, l_hi = mean.h * lo, mean.h * hi, mean.w * lo, mean.w * hi, mean.l * lo, mean.l * hi
    y_lo = min(cfg.vertical_centers) - cfg.vertical_slack
    y_hi = max(cfg.vertical_centers) + cfg.vertical_slack
    verdicts = []
    for (h, w, l), (_, y, _), height_depth, left, right in zip(dims, location, blamed, left_gap, right_gap):
        bad = (not (h_lo <= h <= h_hi and w_lo <= w <= w_hi and l_lo <= l <= l_hi), not y_lo <= y <= y_hi,
               height_depth, left > cfg.depth_gap_max and right > cfg.depth_gap_max)
        verdicts.append(Verdict(frozenset(compress(RULES, bad))) if any(bad) else _CLEAN)
    return verdicts
