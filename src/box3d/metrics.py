"""Evaluation metrics: rotated 3D IoU, AP / AOS / OS, and dimension error.

AP follows the interpolated protocol at a configurable recall grid
(11 points {0.0, 0.1, ..., 1.0} by default, 40-point variant available).
Matching is greedy in descending score, each ground truth consumable once,
a detection is a true positive when its best 3D IoU clears the threshold; a
frame's matches are four columns (score, true positive, orientation
similarity, IoU).
pair_ious scores a whole run's within-frame pairs.  It culls them from a few
columns computed once per table (ground-plane x and z, bottom and top y,
bounding-circle radius, a non-positive-dimension flag), so that no pair
gathers whole rows, and clips only the pairs whose vertical extents and
ground-plane bounding circles overlap; every other pair scores exactly 0.
dimension_error takes its center distances from the same kind of
per-coordinate columns.
"""

import math
from typing import NamedTuple

import numpy as np

RECALL_POINTS_11 = tuple(np.linspace(0.0, 1.0, 11))
RECALL_POINTS_40 = tuple(np.linspace(1.0 / 40.0, 1.0, 40))


# ---------------------------------------------------------------------------
# rotated 3D IoU

# Pairs per block of pair_ious: enough that numpy's per-call overhead is
# spread thin, few enough that a block's arrays stay within a few MB.
PAIR_BUDGET = 4096


def bev_corners(boxes) -> np.ndarray:
    """(N, 4, 2) ground-plane (x, z) corners, counterclockwise, of a table's
    rows (location, dims, yaw)."""
    x, z = boxes.location[:, 0, None], boxes.location[:, 2, None]
    hl, hw = 0.5 * boxes.dims[:, 2], 0.5 * boxes.dims[:, 1]
    yaw = boxes.yaw.tolist()  # math's cos and sin, whose last bits numpy need not share
    c = np.array([math.cos(v) for v in yaw])[:, None]
    s = np.array([math.sin(v) for v in yaw])[:, None]
    ox, oz = np.stack([hl, -hl, -hl, hl], axis=1), np.stack([hw, hw, -hw, -hw], axis=1)
    return np.stack([x + ox * c + oz * s, z - ox * s + oz * c], axis=2)


def _next(values, n):
    """Each row's values one slot on, the n-th used slot wrapping to the first."""
    out = np.concatenate([values[:, 1:], values[:, :1]], axis=1)
    out[np.arange(len(n)), n - 1] = values[:, 0]
    return out


def _clip(xs, zs, n, x1, z1, x2, z2):
    """One Sutherland-Hodgman step on P polygons, the first n of each row of
    the (P, W) coordinates: keep the half plane to the left of each row's
    directed edge (x1, z1) -> (x2, z2).  Each vertex in turn is kept if on or
    inside the line, then followed by the crossing point if the edge to the
    next vertex crosses the line strictly.  Returns the clipped polygons the
    same way."""
    side = (x2 - x1)[:, None] * (zs - z1[:, None]) - (z2 - z1)[:, None] * (xs - x1[:, None])
    side_n = _next(side, n)
    used = np.arange(xs.shape[1]) < n[:, None]
    keep = used & (side >= 0)
    cross = used & (((side > 0) & (side_n < 0)) | ((side < 0) & (side_n > 0)))
    emitted = keep.astype(int) + cross
    at = np.cumsum(emitted, axis=1) - emitted  # where each slot's first point goes
    clipped = emitted.sum(axis=1)
    # a quad clipped four times keeps at most 8 vertices; the width follows
    # the largest count all the same, should rounding ever emit more
    out_x, out_z = (np.zeros((len(n), max(int(clipped.max(initial=0)), 1))) for _ in range(2))
    r, i = np.nonzero(keep)
    out_x[r, at[r, i]], out_z[r, at[r, i]] = xs[r, i], zs[r, i]
    r, i = np.nonzero(cross)
    j = np.where(i + 1 < n[r], i + 1, 0)
    t = side[r, i] / (side[r, i] - side_n[r, i])
    x, z, to = xs[r, i], zs[r, i], at[r, i] + keep[r, i]
    out_x[r, to], out_z[r, to] = x + t * (xs[r, j] - x), z + t * (zs[r, j] - z)
    return out_x, out_z, clipped


def _clipped_areas(subject, clip) -> np.ndarray:
    """(P,) areas of the intersections of P pairs of convex quads, two
    (P, 4, 2) corner arrays: each subject clipped by the half plane of each
    of its clip quad's edges in turn, then its shoelace terms summed in
    vertex order.  A polygon left with fewer than 3 vertices has area 0."""
    xs, zs, n = subject[:, :, 0], subject[:, :, 1], np.full(len(subject), 4)
    with np.errstate(all="ignore"):
        for i in range(4):
            j = (i + 1) % 4
            xs, zs, n = _clip(xs, zs, n, clip[:, i, 0], clip[:, i, 1], clip[:, j, 0], clip[:, j, 1])
            n[n < 3] = 0
        terms = np.where(np.arange(xs.shape[1]) < n[:, None], xs * _next(zs, n) - _next(xs, n) * zs, 0.0)
        return 0.5 * np.abs(np.cumsum(terms, axis=1)[:, -1])  # cumsum adds in order, as a loop does


def _ious(loc_a, dims_a, loc_b, dims_b, corners_a, corners_b) -> np.ndarray:
    """(P,) IoUs of P pairs of boxes, given as (P, 3) locations and (h, w, l)
    dimensions and (P, 4, 2) BEV corners of each side: BEV intersection times
    vertical overlap, over the union volume.  NaN where a NaN reaches the
    result."""
    with np.errstate(all="ignore"):
        # y points down: a box spans [y - h, y].  The min and max keep the
        # first of two numbers unless the second compares past it, so a NaN
        # in b's y drops out as it would in Python's min and max.
        ya, yb = loc_a[:, 1], loc_b[:, 1]
        top_a, top_b = ya - dims_a[:, 0], yb - dims_b[:, 0]
        overlap_y = np.where(yb < ya, yb, ya) - np.where(top_b > top_a, top_b, top_a)
        inter = _clipped_areas(corners_a, corners_b) * overlap_y
        vol_a = dims_a[:, 0] * dims_a[:, 1] * dims_a[:, 2]
        vol_b = dims_b[:, 0] * dims_b[:, 1] * dims_b[:, 2]
        return np.where((overlap_y <= 0) | (inter <= 0), 0.0, inter / (vol_a + vol_b - inter))


# Added to each ground-plane bounding-circle radius (metres), so that a culled
# pair is farther apart than the rounding error of the clipping.
CULL_PAD = 1e-6


class _Cull(NamedTuple):
    """The columns the cull reads of each box: ground-plane x and z, the
    bottom y and the top y - h (y points down), the bounding-circle radius
    hypot(l, w) / 2 + CULL_PAD, and whether a dimension is not positive."""

    x: np.ndarray
    z: np.ndarray
    bottom: np.ndarray
    top: np.ndarray
    reach: np.ndarray
    flat: np.ndarray

    @classmethod
    def of(cls, location, dims):
        """The columns of boxes given as (N, 3) locations and (h, w, l)
        dimensions, each contiguous."""
        with np.errstate(all="ignore"):
            y = np.ascontiguousarray(location[:, 1])
            return cls(np.ascontiguousarray(location[:, 0]), np.ascontiguousarray(location[:, 2]), y,
                       y - dims[:, 0], 0.5 * np.hypot(dims[:, 2], dims[:, 1]) + CULL_PAD, (dims <= 0).any(axis=1))

    def take(self, rows):
        return _Cull(*(column[rows] for column in self))


def _may_meet(a: _Cull, b: _Cull) -> np.ndarray:
    """(P,) mask of the pairs of boxes, given as the columns of each side,
    whose volumes may intersect: positive dimensions, a positive vertical
    overlap, and overlapping ground-plane bounding circles.  The IoU is
    exactly 0.0 for every pair of positive-sized boxes outside the mask; a
    non-finite number never excludes a pair."""
    with np.errstate(all="ignore"):
        overlap_y = np.minimum(a.bottom, b.bottom) - np.maximum(a.top, b.top)
        reach = a.reach + b.reach
        dx, dz = a.x - b.x, a.z - b.z
        return ~(a.flat | b.flat | (overlap_y <= 0) | (dx * dx + dz * dz > reach * reach))


def _blocks(n_pairs):
    """[first, last) ranges of consecutive frames, given each frame's pair
    count, of at most PAIR_BUDGET pairs; a larger frame is a block alone."""
    first, size = 0, 0
    for f, n in enumerate(n_pairs):
        if size and size + n > PAIR_BUDGET:
            yield first, f
            first, size = f, 0
        size += n
    yield first, len(n_pairs)


def _frame_pairs(det_offsets, gt_offsets):
    """Detection and ground-truth rows of every pair within a frame, over
    frames given by their (F + 1,) row offsets: frame by frame, detection
    by detection, ground truths ascending."""
    n_det = np.diff(det_offsets)
    n_gt = np.repeat(np.diff(gt_offsets), n_det)  # each detection's pair count
    ends = np.cumsum(n_gt)
    d = np.repeat(np.arange(det_offsets[0], det_offsets[-1]), n_gt)
    # a detection's pairs count up from its frame's first ground truth
    g = np.arange(len(d)) + np.repeat(np.repeat(gt_offsets[:-1], n_det) - (ends - n_gt), n_gt)
    return d, g


def pair_ious(detections, det_offsets, ground_truths, gt_offsets):
    """Every positive 3D IoU between a detection and a ground truth of the
    same frame, over a run of frames.

    detections and ground_truths are LabelTables holding the frames one
    after the other: frame f is rows det_offsets[f]:det_offsets[f + 1] of
    one and gt_offsets[f]:gt_offsets[f + 1] of the other.  Returns the
    (det row, gt row, IoU) triples as three arrays, in detection order, then
    ground-truth order.  The cull (_may_meet) reads columns computed once
    per table, over blocks of whole frames of about PAIR_BUDGET pairs.  The
    run's survivors are clipped in equal blocks of about PAIR_BUDGET // 4, as
    a clipped pair's temporaries weigh about four times a culled pair's.  A
    NaN IoU is left out.
    """
    det_offsets, gt_offsets = np.asarray(det_offsets), np.asarray(gt_offsets)
    cull_d = _Cull.of(detections.location, detections.dims)
    cull_g = _Cull.of(ground_truths.location, ground_truths.dims)
    survivors = []
    for first, last in _blocks((np.diff(det_offsets) * np.diff(gt_offsets)).tolist()):
        d, g = _frame_pairs(det_offsets[first:last + 1], gt_offsets[first:last + 1])
        keep = _may_meet(cull_d.take(d), cull_g.take(g))
        survivors.append((d[keep], g[keep]))
    d, g = (np.concatenate(rows) for rows in zip(*survivors))
    corners_d, corners_g = bev_corners(detections), bev_corners(ground_truths)
    blocks = max(round(len(d) / max(PAIR_BUDGET // 4, 1)), 1)
    iou = np.concatenate([
        _ious(detections.location[b], detections.dims[b], ground_truths.location[c], ground_truths.dims[c],
              corners_d[b], corners_g[c])
        for b, c in zip(np.array_split(d, blocks), np.array_split(g, blocks))])
    positive = iou > 0
    return d[positive], g[positive], iou[positive]


def orientation_similarity(theta_det: float, theta_gt: float) -> float:
    """Normalized cosine similarity of two yaw angles, in [0, 1]."""
    return 0.5 * (1.0 + math.cos(theta_det - theta_gt))


# ---------------------------------------------------------------------------
# matching and ranked metrics


def match_frame(detections, ground_truths, iou_threshold: float, ious):
    """Greedy match of one frame's detections against its ground truths, two
    LabelTables (location, dims, yaw; a detection without a score counts
    1.0).

    ious holds the frame's positive IoUs as pair_ious returns them, rows
    counted from the frame's first.
    In descending score (ties keep their input order), each detection takes
    the first unused ground truth of largest IoU, and is a true positive if
    that IoU clears the threshold.  Returns four columns in detection order,
    to be pooled across frames: the score, whether a true positive, the
    orientation similarity (0.0 for a false positive) and the IoU taken (0.0
    where no unused ground truth overlaps).
    """
    scores = [1.0 if math.isnan(s) else s for s in detections.score.tolist()]
    n = len(scores)
    is_tp, sims, taken = [False] * n, [0.0] * n, [0.0] * n
    candidates = {}  # each overlapping detection's (gt, IoU), ground truths ascending
    for i, j, iou in zip(*(column.tolist() for column in ious)):
        candidates.setdefault(i, []).append((j, iou))
    used = set()
    yaw_d, yaw_g = detections.yaw.tolist(), ground_truths.yaw.tolist()
    for i in sorted(candidates, key=lambda i: -scores[i]):  # stable: ties keep row order
        best, k = 0.0, -1
        for j, iou in candidates[i]:
            if iou > best and j not in used:  # strict: the first of equal IoUs
                best, k = iou, j
        taken[i] = best
        if k >= 0 and best >= iou_threshold:
            used.add(k)  # each ground truth is consumed once
            is_tp[i], sims[i] = True, orientation_similarity(yaw_d[i], yaw_g[k])
    return np.array(scores, dtype=float), np.array(is_tp, dtype=bool), np.array(sims), np.array(taken)


def _ranked(matches, n_gt):
    """Recall, precision and cumulative orientation similarity over rank,
    after each detection in descending score (ties keep their input order).
    Only true positives add their similarity."""
    score, is_tp, sims, _ = matches
    order = np.argsort(-score, kind="stable")
    is_tp, sims = is_tp[order], sims[order]
    rank = np.arange(1, len(order) + 1)
    tp = np.cumsum(is_tp)
    return tp / n_gt, tp / rank, np.cumsum(np.where(is_tp, sims, 0.0)) / rank


def _interpolated(recalls, values, recall_points):
    """Mean over the recall grid of the largest value at recall >= r, 0 for
    a grid point past the last recall."""
    best_from = np.append(np.maximum.accumulate(values[::-1])[::-1], 0.0)
    picked = best_from[np.searchsorted(recalls, recall_points)]
    return float(np.cumsum(picked)[-1]) / len(recall_points)  # summed in grid order


def average_precision(matches, n_gt: int, recall_points=RECALL_POINTS_11) -> float:
    """Interpolated AP of the four columns match_frame returns, pooled over
    frames: mean over the recall grid of the max precision at recall >= r."""
    if n_gt <= 0 or not len(matches[0]):
        return 0.0
    recalls, precisions, _ = _ranked(matches, n_gt)
    return _interpolated(recalls, precisions, recall_points)


def aos_and_os(matches, n_gt: int, recall_points=RECALL_POINTS_11):
    """Orientation-weighted AP and its ratio to plain AP.

    Each true positive contributes its orientation similarity instead of 1;
    OS = AOS/AP isolates orientation quality (0 when AP is 0).  matches are
    match_frame's four columns, pooled over frames.
    """
    if n_gt <= 0 or not len(matches[0]):
        return 0.0, 0.0
    recalls, precisions, sims = _ranked(matches, n_gt)
    ap = _interpolated(recalls, precisions, recall_points)
    aos = _interpolated(recalls, sims, recall_points)
    return aos, (aos / ap if ap > 0 else 0.0)


def dimension_error(detections, det_offsets, ground_truths, gt_offsets) -> np.ndarray:
    """(F,) mean Euclidean (h, w, l) error of each frame's detections, each
    against the ground truth of its frame closest by 3D center distance; a
    tie or a NaN distance goes to the first, as argmin has it.  NaN for a
    frame with no detection or no ground truth.

    Tables and offsets as pair_ious takes them.  The run is scored in blocks
    of whole frames of about PAIR_BUDGET pairs, each pair's squared distance
    (dx*dx + dy*dy) + dz*dz from gathers of one coordinate column at a time;
    every sum adds its terms in the order, and with numpy's pairwise
    summation, that one frame's own arrays would.
    """
    det_offsets, gt_offsets = np.asarray(det_offsets), np.asarray(gt_offsets)
    n_gt = np.diff(gt_offsets)
    n_det = np.where(n_gt > 0, np.diff(det_offsets), 0)  # the detections scored
    sums = np.zeros(len(n_gt))
    coords = [[np.ascontiguousarray(table.location[:, k]) for k in range(3)] for table in (detections, ground_truths)]
    with np.errstate(all="ignore"):
        for first, last in _blocks((n_det * n_gt).tolist()):
            d, g = _frame_pairs(det_offsets[first:last + 1], gt_offsets[first:last + 1])
            if not len(d):
                continue
            dx, dy, dz = (a[d] - b[g] for a, b in zip(*coords))
            dist = (dx * dx + dy * dy) + dz * dz
            # each detection's pairs are consecutive; its first pair at the
            # smallest distance, or at the first NaN, names its ground truth
            starts = np.flatnonzero(np.diff(d, prepend=-1))
            nearest = np.repeat(np.minimum.reduceat(dist, starts), np.diff(np.append(starts, len(d))))
            hit = (dist == nearest) | np.isnan(dist)
            closest = g[np.minimum.reduceat(np.where(hit, np.arange(len(d)), len(d)), starts)]
            err = detections.dims[d[starts]] - ground_truths.dims[closest]
            err *= err
            # reduceat starts each sum from its first term and .sum() from
            # 0.0, so each frame's terms follow a 0.0 of their own
            paired = first + np.flatnonzero(n_det[first:last])
            counts = n_det[paired]
            terms = np.zeros(len(err) + len(paired))
            terms[np.arange(len(err)) + np.repeat(np.arange(1, len(paired) + 1), counts)] = np.sqrt(
                (err[:, 0] + err[:, 1]) + err[:, 2])
            sums[paired] = np.add.reduceat(terms, np.arange(len(paired)) + np.cumsum(counts) - counts)
        return sums / n_det


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
