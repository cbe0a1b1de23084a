"""Filtering of implausible detections using recovered physical-world scale.

Four per-scene rules: plausible dimensions, plausible vertical location,
projected height shrinking with depth, and depth agreement with adjacent
(2D-overlapping) neighbors.  An implausible vertical location alone removes
a detection; the other three are soft and co-determine removal, at least
two must fail.  Removing a 2D detection abandons its paired 3D box.

All four rules are judged for a whole run at once, in array code, by
pair_rules: it scores the pairs i < j within each frame, from
metrics.frame_pairs, then each row against the bands, into bits of violated
rules.  depurate looks up a frame's Verdicts from its slice.

Only the vertical band, where the road lies below the camera, is a
DepurationConfig.  The other rules read CAR_PRIOR's mean dimensions, the ones
solve decodes against, and the constants DIM_TOLERANCE, HEIGHT_MONOTONIC_EPS,
ADJACENCY_IOU_MIN and DEPTH_GAP_MAX.
"""

import math
from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .camera import box_iou_2d
from .kitti_io import check_fields
from .metrics import frame_pairs
from .properties import CAR_PRIOR

RULE_DIMS = "dims"
RULE_VERTICAL = "vertical"
RULE_HEIGHT_DEPTH = "height_depth"
RULE_ADJACENT_DEPTH = "adjacent_depth"
RULES = (RULE_DIMS, RULE_VERTICAL, RULE_HEIGHT_DEPTH, RULE_ADJACENT_DEPTH)

DIM_TOLERANCE = 0.5  # fractional band around CAR_PRIOR's mean dimensions
HEIGHT_MONOTONIC_EPS = 0.3  # meters, "same height" band
ADJACENCY_IOU_MIN = 0.0  # 2D IoU above this makes boxes adjacent
DEPTH_GAP_MAX = 10.0  # meters


@dataclass(frozen=True)
class DepurationConfig:
    """The vertical band of the bottom face; car-tuned defaults.  Only the
    lowest and highest of vertical_centers bound it: the band runs from the
    lowest less vertical_slack to the highest plus it, and a centre between
    them changes nothing."""

    vertical_centers: tuple = (1.28842871, 1.72911, 2.2184)  # bottom-face Y, meters
    vertical_slack: float = 0.75

    def __post_init__(self):
        # a NaN slack would switch the rule off
        check_fields(self, ("vertical_slack",))
        if not self.vertical_centers or not all(map(math.isfinite, self.vertical_centers)):
            raise ValueError("vertical_centers must be one or more finite numbers")
        if list(self.vertical_centers) != sorted(self.vertical_centers):
            raise ValueError("vertical_centers must be sorted ascending")


DEFAULT_DEPURATION_CONFIG = DepurationConfig()


@dataclass(frozen=True)
class Verdict:
    violated_rules: frozenset

    # worked out on first read, then a plain attribute: VERDICTS are read per row
    @cached_property
    def hard_violation(self) -> bool:
        return RULE_VERTICAL in self.violated_rules

    @cached_property
    def kept(self) -> bool:
        return not self.hard_violation and len(self.violated_rules) < 2


# the Verdict of each set of violated rules, by its bits (pair_rules' last column)
VERDICTS = tuple(Verdict(frozenset(compress(RULES, (bits >> k & 1 for k in range(len(RULES))))))
                 for bits in range(1 << len(RULES)))


def pair_rules(labels, offsets, fv, cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG):
    """The rules' findings for every row of a run of frames: the (N,)
    smallest depth gap to an adjacent neighbour on the row's left and on its
    right, -1 where it has none, and the (N,) violated rules as integer bits,
    bit k set when RULES[k] is violated:

    dims            h, w and l each within CAR_PRIOR's mean*(1 +- DIM_TOLERANCE), inclusive;
    vertical        bottom-center Y within [min(centers) - slack, max(centers) + slack];
    height_depth    of two objects with heights within HEIGHT_MONOTONIC_EPS, the
                    deeper one must have the smaller projected height; a
                    violating pair blames the one whose projected height
                    disagrees more with its solved depth, by |dv*Z - fv*h|;
    adjacent_depth  2D-overlapped (IoU above ADJACENCY_IOU_MIN) on both sides,
                    and more than DEPTH_GAP_MAX in depth from every such neighbor.

    labels is a LabelTable holding the frames one after the other, frame f
    being rows offsets[f]:offsets[f + 1]; fv is each row's vertical focal
    length in pixels, or one for every row.  The pairs i < j within each
    frame come from frame_pairs.  A gap is the smallest of the row's gaps as
    min() takes them in the order of the other row, so it is NaN where the
    first of them is NaN.  NaN fails a band.
    """
    n = len(labels)
    box, z, h3 = np.ascontiguousarray(labels.box), labels.location[:, 2], labels.dims[:, 0]
    left_gap, right_gap, blamed = np.full(n, -1.0), np.full(n, -1.0), np.zeros(n, dtype=bool)
    with np.errstate(invalid="ignore"):
        height = box[:, 3] - box[:, 1]
        center_u = 0.5 * (box[:, 0] + box[:, 2])
        residual = np.abs(height * z - fv * h3)
        for _, i, j in frame_pairs(offsets):
            zi, zj, dvi, dvj, ri, rj = z[i], z[j], height[i], height[j], residual[i], residual[j]
            # of two rows within eps in 3D height, the deeper one must look
            # shorter; a violating pair blames the one with the larger residual
            same = ~(np.abs(h3[i] - h3[j]) > HEIGHT_MONOTONIC_EPS)
            blamed[np.where(ri >= rj, i, j)[same & (zi > zj) & (dvi >= dvj)]] = True
            blamed[np.where(rj >= ri, j, i)[same & (zj > zi) & (dvj >= dvi)]] = True
            # take() gathers the rows of a contiguous array far faster than
            # fancy indexing does
            adjacent = box_iou_2d(box.take(i, axis=0), box.take(j, axis=0)) > ADJACENCY_IOU_MIN
            i, j, gap = i[adjacent], j[adjacent], np.abs(zi[adjacent] - zj[adjacent])
            j_left, j_right = center_u[j] < center_u[i], center_u[j] > center_u[i]
            # each adjacent pair seen from both rows, sorted by row, then other row
            row = np.concatenate([i, j])
            order = np.argsort(row * n + np.concatenate([j, i]))
            row, gap = row[order], np.concatenate([gap, gap])[order]
            for out, side in ((left_gap, np.concatenate([j_left, j_right])[order]),
                              (right_gap, np.concatenate([j_right, j_left])[order])):
                _least(out, row[side], gap[side])
    mean, dims = np.array(astuple(CAR_PRIOR.mean_dims)), labels.dims
    dims_ok = ((mean * (1.0 - DIM_TOLERANCE) <= dims) & (dims <= mean * (1.0 + DIM_TOLERANCE))).all(axis=1)
    y = labels.location[:, 1]
    y_ok = (min(cfg.vertical_centers) - cfg.vertical_slack <= y) & (y <= max(cfg.vertical_centers) + cfg.vertical_slack)
    # -1 for no neighbour is never above the non-negative DEPTH_GAP_MAX
    far = (left_gap > DEPTH_GAP_MAX) & (right_gap > DEPTH_GAP_MAX)
    return left_gap, right_gap, ~dims_ok + 2 * ~y_ok + 4 * blamed + 8 * far


def _least(out, rows, gaps):
    """out[r] = the smallest of row r's gaps, given sorted by row, NaN where
    its first gap is NaN (as a running minimum that starts there stays)."""
    if len(rows):
        starts = np.flatnonzero(np.concatenate([[True], rows[1:] != rows[:-1]]))
        first = gaps[starts]
        out[rows[starts]] = np.where(np.isnan(first), first, np.fmin.reduceat(gaps, starts))


def depurate(table, fv: float, cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG, pairs=None):
    """The Verdict in VERDICTS of each row of a LabelTable (2D box,
    dimensions and location) seen with vertical focal length fv in pixels, by
    pair_rules' rules.  pairs is this frame's slice of pair_rules over a run;
    without it, pair_rules runs on this one frame."""
    if pairs is None:
        pairs = pair_rules(table, [0, len(table)], fv, cfg)
    return [VERDICTS[bits] for bits in pairs[-1].tolist()]
