"""Filtering of implausible detections using recovered physical-world scale.

Four per-scene rules: plausible dimensions, plausible vertical location,
projected height shrinking with depth, and depth agreement with adjacent
(2D-overlapping) neighbors.  An implausible vertical location alone removes
a detection; the other three are soft and co-determine removal, at least
two must fail.  Removing a 2D detection abandons its paired 3D box.
"""

from dataclasses import dataclass

from .camera import CameraIntrinsics, Dimensions, box_iou_2d
from .properties import CAR_PRIOR

RULE_DIMS = "dims"
RULE_VERTICAL = "vertical"
RULE_HEIGHT_DEPTH = "height_depth"
RULE_ADJACENT_DEPTH = "adjacent_depth"

ALL_RULES = (RULE_DIMS, RULE_VERTICAL, RULE_HEIGHT_DEPTH, RULE_ADJACENT_DEPTH)


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
        if min(self.dim_tolerance, self.vertical_slack, self.height_monotonic_eps,
               self.adjacency_iou_min, self.depth_gap_max) < 0:
            raise ValueError("tolerances must be non-negative")
        if list(self.vertical_centers) != sorted(self.vertical_centers):
            raise ValueError("vertical centers must be sorted ascending")


DEFAULT_DEPURATION_CONFIG = DepurationConfig()


@dataclass(frozen=True)
class Verdict:
    kept: bool
    violated_rules: frozenset
    hard_violation: bool


def check_dimensions(d: Dimensions, cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG) -> bool:
    """Each of h, w, l within mean*(1 +- tolerance), boundaries inclusive."""
    lo, hi = 1.0 - cfg.dim_tolerance, 1.0 + cfg.dim_tolerance
    for value, mean in ((d.h, cfg.mean_dims.h), (d.w, cfg.mean_dims.w), (d.l, cfg.mean_dims.l)):
        if not mean * lo <= value <= mean * hi:
            return False
    return True


def check_vertical(y: float, cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG) -> bool:
    """Bottom-center Y within the cluster-center band plus slack."""
    return (
        min(cfg.vertical_centers) - cfg.vertical_slack
        <= y
        <= max(cfg.vertical_centers) + cfg.vertical_slack
    )


def check_height_depth(scene, camera: CameraIntrinsics,
                       cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG):
    """Projected heights must shrink with depth among same-height objects.

    For a violating pair (deeper object with projected height >= the
    nearer's, heights within eps) the object whose own projected height
    disagrees more with its solved depth, by |dv*Z - fv*h|, takes the blame.
    Returns one pass/fail flag per object.
    """
    n = len(scene)
    passed = [True] * n
    residual = [
        abs(box2d.height * box3d.location[2] - camera.fv * box3d.dims.h)
        for box2d, box3d in scene
    ]
    for i in range(n):
        for j in range(i + 1, n):
            b2i, b3i = scene[i]
            b2j, b3j = scene[j]
            if abs(b3i.dims.h - b3j.dims.h) > cfg.height_monotonic_eps:
                continue
            if b3i.location[2] > b3j.location[2]:
                far, near = i, j
            elif b3j.location[2] > b3i.location[2]:
                far, near = j, i
            else:
                continue
            if scene[far][0].height >= scene[near][0].height:
                blame = far if residual[far] >= residual[near] else near
                passed[blame] = False
    return passed


def check_adjacent_depth(scene, cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG):
    """An object overlapped on both sides whose depth is far from every
    adjacent neighbor on each side is implausible."""
    n = len(scene)
    passed = [True] * n
    for i in range(n):
        b2i, b3i = scene[i]
        left_gaps, right_gaps = [], []
        for j in range(n):
            if j == i:
                continue
            b2j, b3j = scene[j]
            if box_iou_2d(b2i, b2j) <= cfg.adjacency_iou_min:
                continue
            gap = abs(b3i.location[2] - b3j.location[2])
            if b2j.center_u < b2i.center_u:
                left_gaps.append(gap)
            elif b2j.center_u > b2i.center_u:
                right_gaps.append(gap)
        if left_gaps and right_gaps:
            if min(left_gaps) > cfg.depth_gap_max and min(right_gaps) > cfg.depth_gap_max:
                passed[i] = False
    return passed


def depurate(scene, camera: CameraIntrinsics,
             cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG):
    """Verdicts for a scene of (Box2D, Box3D) pairs.

    Removal iff the vertical rule fails (hard), or at least two of the
    three soft rules fail.
    """
    hd = check_height_depth(scene, camera, cfg)
    ad = check_adjacent_depth(scene, cfg)
    verdicts = []
    for i, (box2d, box3d) in enumerate(scene):
        violated = set()
        if not check_dimensions(box3d.dims, cfg):
            violated.add(RULE_DIMS)
        if not check_vertical(box3d.location[1], cfg):
            violated.add(RULE_VERTICAL)
        if not hd[i]:
            violated.add(RULE_HEIGHT_DEPTH)
        if not ad[i]:
            violated.add(RULE_ADJACENT_DEPTH)
        hard = RULE_VERTICAL in violated
        soft_count = len(violated - {RULE_VERTICAL})
        kept = not hard and soft_count < 2
        verdicts.append(Verdict(kept, frozenset(violated), hard))
    return verdicts
