"""Evaluation metrics: rotated 3D IoU, AP / AOS / OS, and dimension error.

AP follows the interpolated protocol at a configurable recall grid
(11 points {0.0, 0.1, ..., 1.0} by default, 40-point variant available).
Matching is greedy in descending score, each ground truth consumable once,
a detection is a true positive when its best 3D IoU clears the threshold.
A frame's IoU matrix clips only the pairs whose vertical extents and
ground-plane bounding circles overlap; every other pair scores exactly 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .camera import Box3D

RECALL_POINTS_11 = tuple(np.linspace(0.0, 1.0, 11))
RECALL_POINTS_40 = tuple(np.linspace(1.0 / 40.0, 1.0, 40))


# ---------------------------------------------------------------------------
# rotated 3D IoU


def bev_corners(box) -> list:
    """Ground-plane (x, z) corners, counterclockwise, of a box given as
    (x, y, z, h, w, l, yaw)."""
    x, _, z, _, w, l, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    hl, hw = 0.5 * l, 0.5 * w
    return [(x + ox * c + oz * s, z - ox * s + oz * c) for ox, oz in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def _clip_polygon(subject, cx1, cz1, cx2, cz2):
    # keep the half plane to the left of the directed edge (cx1,cz1)->(cx2,cz2)
    ex, ez = cx2 - cx1, cz2 - cz1

    def side(p):
        return ex * (p[1] - cz1) - ez * (p[0] - cx1)

    out = []
    n = len(subject)
    for i in range(n):
        cur, nxt = subject[i], subject[(i + 1) % n]
        sc, sn = side(cur), side(nxt)
        if sc >= 0:
            out.append(cur)
        if (sc > 0 and sn < 0) or (sc < 0 and sn > 0):
            t = sc / (sc - sn)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def _polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    area = 0.0
    n = len(poly)
    for i in range(n):
        x0, z0 = poly[i]
        x1, z1 = poly[(i + 1) % n]
        area += x0 * z1 - x1 * z0
    return 0.5 * abs(area)


def _clipped_area(subject, clip) -> float:
    """Area of the intersection of two convex quads, given as (x, z) corner
    lists: the subject clipped by the half plane of each clip edge in turn."""
    for i in range(4):
        if len(subject) < 3:
            return 0.0
        x1, z1 = clip[i]
        x2, z2 = clip[(i + 1) % 4]
        subject = _clip_polygon(subject, x1, z1, x2, z2)
    return _polygon_area(subject)


def _iou(a, b, corners_a, corners_b) -> float:
    """IoU of two (x, y, z, h, w, l, yaw) boxes and their BEV corners."""
    # y points down: a box spans [y - h, y]
    overlap_y = min(a[1], b[1]) - max(a[1] - a[3], b[1] - b[3])
    if overlap_y <= 0:
        return 0.0
    inter = _clipped_area(corners_a, corners_b) * overlap_y
    if inter <= 0:
        return 0.0
    vol_a = a[3] * a[4] * a[5]
    vol_b = b[3] * b[4] * b[5]
    return inter / (vol_a + vol_b - inter)


def _box_row(b: Box3D):
    return (*b.location.tolist(), b.dims.h, b.dims.w, b.dims.l, b.yaw)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume IoU of two yaw-rotated boxes: BEV polygon intersection times
    vertical overlap, over the union volume."""
    a, b = _box_row(a), _box_row(b)
    return _iou(a, b, bev_corners(a), bev_corners(b))


# Added to each ground-plane bounding-circle radius (metres), so that a culled
# pair is farther apart than the rounding error of the clipping.
CULL_PAD = 1e-6


def may_intersect(boxes_a, boxes_b) -> np.ndarray:
    """(A, B) mask of the pairs of two tables' rows (location, dims) whose
    volumes may intersect: positive dimensions, a positive vertical overlap,
    computed as iou_3d does, and overlapping ground-plane bounding circles of
    radius hypot(l, w) / 2 + CULL_PAD.  iou_3d is exactly 0.0 for every pair
    of positive-sized boxes outside the mask; a non-finite number never
    excludes a pair."""
    loc_a, hwl_a, loc_b, hwl_b = boxes_a.location, boxes_a.dims, boxes_b.location, boxes_b.dims
    with np.errstate(all="ignore"):
        ya, yb = loc_a[:, 1, None], loc_b[None, :, 1]
        overlap_y = np.minimum(ya, yb) - np.maximum(ya - hwl_a[:, 0, None], yb - hwl_b[None, :, 0])
        reach = (0.5 * np.hypot(hwl_a[:, 2], hwl_a[:, 1]) + CULL_PAD)[:, None] + (
            0.5 * np.hypot(hwl_b[:, 2], hwl_b[:, 1]) + CULL_PAD
        )[None, :]
        dx = loc_a[:, 0, None] - loc_b[None, :, 0]
        dz = loc_a[:, 2, None] - loc_b[None, :, 2]
        flat = (hwl_a <= 0).any(axis=1)[:, None] | (hwl_b <= 0).any(axis=1)[None, :]
        return ~(flat | (overlap_y <= 0) | (dx * dx + dz * dz > reach * reach))


def orientation_similarity(theta_det: float, theta_gt: float) -> float:
    """Normalized cosine similarity of two yaw angles, in [0, 1]."""
    return 0.5 * (1.0 + math.cos(theta_det - theta_gt))


# ---------------------------------------------------------------------------
# matching and ranked metrics


@dataclass(frozen=True)
class MatchedDetection:
    """One scored detection after matching against a frame's ground truth."""

    score: float
    is_tp: bool
    orientation_sim: float  # 0.0 for false positives
    iou3d: float


def _boxes(table):
    """A table's rows as (x, y, z, h, w, l, yaw) lists."""
    return np.column_stack([table.location, table.dims, table.yaw]).tolist()


def match_frame(detections, ground_truths, iou_threshold: float):
    """Greedy match of one frame's detections against its ground truths, two
    LabelTables (location, dims, yaw; a detection without a score counts
    1.0).

    In descending score (ties keep their input order), each detection takes
    the first unused ground truth of largest positive 3D IoU, and is a true
    positive if that IoU clears the threshold.  Returns a list of
    MatchedDetection (every detection appears, matched or not) to be pooled
    across frames.
    """
    det, gt = _boxes(detections), _boxes(ground_truths)
    scores = np.where(np.isnan(detections.score), 1.0, detections.score).tolist()
    # column 0 stands for "no ground truth": argmax lands there when no unused
    # ground truth has a positive IoU.  Column j + 1 is ground truth j.
    iou = np.zeros((len(det), len(gt) + 1))
    rows, cols = (idx.tolist() for idx in np.nonzero(may_intersect(detections, ground_truths)))
    corners_d = {i: bev_corners(det[i]) for i in set(rows)}
    corners_g = {j: bev_corners(gt[j]) for j in set(cols)}
    for i, j in zip(rows, cols):
        value = _iou(det[i], gt[j], corners_d[i], corners_g[j])
        if value > 0:  # a NaN IoU never matches
            iou[i, j + 1] = value
    out = []
    for i in sorted(range(len(det)), key=lambda i: -scores[i]):
        j = int(iou[i].argmax())
        best_iou = float(iou[i, j])
        if j > 0 and best_iou >= iou_threshold:
            iou[:, j] = 0.0  # each ground truth is consumed once
            out.append(MatchedDetection(
                scores[i], True, orientation_similarity(det[i][6], gt[j - 1][6]), best_iou
            ))
        else:
            out.append(MatchedDetection(scores[i], False, 0.0, best_iou))
    return out


def _ranked(matches, n_gt):
    """Recall, precision and cumulative orientation similarity over rank,
    after each detection in descending score (ties keep their input order).
    Only true positives add their similarity."""
    scores = np.array([m.score for m in matches], dtype=float)
    order = np.argsort(-scores, kind="stable")
    is_tp = np.array([m.is_tp for m in matches], dtype=bool)[order]
    sims = np.array([m.orientation_sim for m in matches], dtype=float)[order]
    rank = np.arange(1, len(matches) + 1)
    tp = np.cumsum(is_tp)
    return tp / n_gt, tp / rank, np.cumsum(np.where(is_tp, sims, 0.0)) / rank


def _interpolated(recalls, values, recall_points):
    """Mean over the recall grid of the largest value at recall >= r, 0 for
    a grid point past the last recall."""
    best_from = np.append(np.maximum.accumulate(values[::-1])[::-1], 0.0)
    picked = best_from[np.searchsorted(recalls, recall_points)]
    return float(np.cumsum(picked)[-1]) / len(recall_points)  # summed in grid order


def average_precision(matches, n_gt: int, recall_points=RECALL_POINTS_11) -> float:
    """Interpolated AP: mean over the recall grid of the max precision at
    recall >= r."""
    if n_gt <= 0 or not matches:
        return 0.0
    recalls, precisions, _ = _ranked(matches, n_gt)
    return _interpolated(recalls, precisions, recall_points)


def aos_and_os(matches, n_gt: int, recall_points=RECALL_POINTS_11):
    """Orientation-weighted AP and its ratio to plain AP.

    Each true positive contributes its orientation similarity instead of 1;
    OS = AOS/AP isolates orientation quality (0 when AP is 0).
    """
    if n_gt <= 0 or not matches:
        return 0.0, 0.0
    recalls, precisions, sims = _ranked(matches, n_gt)
    ap = _interpolated(recalls, precisions, recall_points)
    aos = _interpolated(recalls, sims, recall_points)
    return aos, (aos / ap if ap > 0 else 0.0)


def dimension_error(detections, ground_truths) -> float:
    """Mean Euclidean (h, w, l) error of each detection against the ground
    truth closest by 3D center distance (ties go to the first); two tables
    with location and dims."""
    if not len(ground_truths):
        raise ValueError("no ground truth to match against")
    if not len(detections):
        return 0.0
    with np.errstate(all="ignore"):
        diff = detections.location[:, None, :] - ground_truths.location[None, :, :]
        closest = (diff * diff).sum(axis=2).argmin(axis=1)  # D x G squared center distances
        err = detections.dims - ground_truths.dims[closest]
        return float(np.sqrt((err * err).sum(axis=1)).sum()) / len(detections)


# KITTI-style difficulty gates on (2D box height px, occlusion, truncation)
DIFFICULTY_THRESHOLDS = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}


def passes_difficulty(box_height_px, occluded, truncated, level: str):
    """Whether each object passes the level's gates; arrays or numbers."""
    if level == "all":
        return np.full(np.shape(box_height_px), True)
    min_h, max_occ, max_trunc = DIFFICULTY_THRESHOLDS[level]
    return (box_height_px >= min_h) & (occluded <= max_occ) & (truncated <= max_trunc)
