"""Checks of box3d's outputs, computed apart from the package.

Nothing here imports box3d.  The closed form, the yaw decoding, the
eight-corner projection, the rotated-box IoU, the greedy matching and the
interpolated AP are written again from their definitions, so a fault in the
package cannot pass its own check.  The IoU in particular uses a different
algorithm from ``box3d.metrics`` (candidate vertices plus an angular sort,
not sequential half-plane clipping).

Files are read as text, with the column layouts documented in the README of
the package: KITTI ``P2`` calibration, ``class u_min v_min u_max v_max
score`` detections, the ``# dh dw dl viewpoint du dv conf0 sin0 cos0 ...``
property sidecar and 15/16-column labels.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Car mean dimensions (h, w, l) that the property residuals are relative to,
# and the vertical band of plausible bottom-face y that depuration enforces:
# cluster centers 1.28842871 .. 2.2184 m with 0.75 m slack.
CAR_MEAN_HWL = np.array([1.52, 1.64, 3.86])
VERTICAL_BAND = (1.28842871 - 0.75, 2.2184 + 0.75)

# Tolerances set by the 6-decimal rounding of the result files.
ROUND_ABS = 1e-6          # metres / pixels / radians on a re-read value
FIT_SLACK_PX = 1e-3       # a rounded location moves the fit by < 2e-4 px
AP_TOL = 1e-9

RECALL_GRIDS = {11: np.linspace(0.0, 1.0, 11), 40: np.linspace(1.0 / 40.0, 1.0, 40)}


def wrap(theta):
    return (np.asarray(theta) + math.pi) % (2.0 * math.pi) - math.pi


# ---------------------------------------------------------------------------
# reading


def _rows(path: Path):
    return [ln.split() for ln in path.read_text().splitlines() if ln.strip()]


def read_camera(path: Path):
    for parts in _rows(path):
        if parts[0] == "P2:":
            p = [float(v) for v in parts[1:13]]
            return p[0], p[5], p[2], p[6]  # fu, fv, cu, cv
    raise ValueError(f"{path}: no P2 line")


def read_inputs(det_path: Path, prop_path: Path):
    """Detections and their property rows as arrays, one row per detection."""
    det_rows = _rows(det_path)
    prop_lines = [ln for ln in prop_path.read_text().splitlines() if ln.strip()]
    cols = prop_lines[0].lstrip("# ").split()
    props = np.array([[float(v) for v in ln.split()] for ln in prop_lines[1:]]).reshape(-1, len(cols))
    col = {c: props[:, i] for i, c in enumerate(cols)}
    n_bins = sum(c.startswith("conf") for c in cols)
    return {
        "cls": [r[0] for r in det_rows],
        "box": np.array([[float(v) for v in r[1:5]] for r in det_rows]).reshape(-1, 4),
        "score": np.array([float(r[5]) for r in det_rows]),
        "dims": np.stack([col["dh"], col["dw"], col["dl"]], axis=1) + CAR_MEAN_HWL,
        "offset": np.stack([col["du"], col["dv"]], axis=1),
        "conf": np.stack([col[f"conf{i}"] for i in range(n_bins)], axis=1),
        "sin": np.stack([col[f"sin{i}"] for i in range(n_bins)], axis=1),
        "cos": np.stack([col[f"cos{i}"] for i in range(n_bins)], axis=1),
    }


def label_lines(path: Path):
    """Non-empty lines of a label file, or None when the file is missing."""
    if not path.exists():
        return None
    return [ln for ln in path.read_text().splitlines() if ln.strip()]


def parse_label(line: str):
    """(cls, box2d[4], (x, y, z, h, w, l, yaw), score) of one label row, or
    None when the row is not 15/16 finite numbers after the class."""
    parts = line.split()
    if len(parts) not in (15, 16):
        return None
    try:
        vals = np.array([float(v) for v in parts[1:]])
    except ValueError:
        return None
    if not np.all(np.isfinite(vals)):
        return None
    h, w, l = vals[7:10]
    x, y, z = vals[10:13]
    return parts[0], vals[3:7], np.array([x, y, z, h, w, l, vals[13]]), (vals[14] if len(vals) == 15 else 1.0)


# ---------------------------------------------------------------------------
# geometry


def closed_form(inp, camera):
    """Bottom-face centers from the similar-triangle depth fv*h/(v_cbf - v_min),
    the decoded bottom-face pixel back-projected to that depth; plus the
    decoded global yaw.  Returns (locations (N, 3), cbf pixels (N, 2), yaw (N,))."""
    fu, fv, cu, cv = camera
    box = inp["box"]
    u_cbf = 0.5 * (box[:, 0] + box[:, 2]) + inp["offset"][:, 0]
    v_cbf = box[:, 3] + inp["offset"][:, 1]
    depth = fv * inp["dims"][:, 0] / (v_cbf - box[:, 1])
    loc = np.stack([(u_cbf - cu) * depth / fu, (v_cbf - cv) * depth / fv, depth], axis=1)
    n = len(box)
    n_bins = inp["conf"].shape[1]
    best = np.argmax(inp["conf"], axis=1)  # first maximum on ties
    residual = np.arctan2(inp["sin"][np.arange(n), best], inp["cos"][np.arange(n), best])
    theta_local = 2.0 * math.pi * best / n_bins + residual
    theta_ray = np.arctan2(fu, u_cbf - cu)
    yaw = wrap(2.0 * math.pi - theta_ray - theta_local)
    return loc, np.stack([u_cbf, v_cbf], axis=1), yaw


def corners(boxes):
    """Eight camera-frame corners of (N, 7) boxes (x, y, z, h, w, l, yaw), (N, 8, 3).

    The box sits on its bottom face (y down); length runs along the yawed
    object x axis, width along the object z axis."""
    x, y, z, h, w, l, yaw = boxes.T
    c, s = np.cos(yaw), np.sin(yaw)
    ox = np.array([1, 1, 1, 1, -1, -1, -1, -1])[None, :] * 0.5 * l[:, None]
    oz = np.array([1, -1, 1, -1, 1, -1, 1, -1])[None, :] * 0.5 * w[:, None]
    oy = np.array([0, 0, 1, 1, 0, 0, 1, 1])[None, :] * -h[:, None]
    return np.stack([
        x[:, None] + ox * c[:, None] + oz * s[:, None],
        y[:, None] + oy,
        z[:, None] - ox * s[:, None] + oz * c[:, None],
    ], axis=2)


def tight_fit_residual(boxes, box2d, camera):
    """Norm of the gap between each box's projected 8-corner hull and its 2D
    box, in pixels; inf where a corner is behind the camera."""
    fu, fv, cu, cv = camera
    pts = corners(boxes)
    z = pts[:, :, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cu + fu * pts[:, :, 0] / z
        v = cv + fv * pts[:, :, 1] / z
    hull = np.stack([u.min(1), v.min(1), u.max(1), v.max(1)], axis=1)
    res = np.linalg.norm(hull - box2d, axis=1)
    return np.where(np.all(z > 0, axis=1), res, np.inf)


def _bev(boxes):
    x, _, z, _, w, l, yaw = boxes.T
    c, s = np.cos(yaw), np.sin(yaw)
    ox = np.array([1, -1, -1, 1])[None, :] * 0.5 * l[:, None]
    oz = np.array([1, 1, -1, -1])[None, :] * 0.5 * w[:, None]
    return np.stack([x[:, None] + ox * c[:, None] + oz * s[:, None],
                     z[:, None] - ox * s[:, None] + oz * c[:, None]], axis=2)


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _inside(points, quad):
    """points (P, K, 2) inside convex quads (P, 4, 2), either winding."""
    edge = np.roll(quad, -1, axis=1) - quad                     # (P, 4, 2)
    rel = points[:, :, None, :] - quad[:, None, :, :]           # (P, K, 4, 2)
    side = _cross(edge[:, None, :, :], rel)                     # (P, K, 4)
    eps = 1e-12
    return np.all(side >= -eps, axis=2) | np.all(side <= eps, axis=2)


def bev_overlap(a, b):
    """Intersection areas of paired ground-plane rectangles, (P,) for (P, 4, 2).

    The intersection polygon's vertices are the corners of each rectangle
    inside the other plus all edge-edge crossings; sorted by angle about
    their mean they give the convex polygon, and the shoelace formula its area.
    """
    p0 = a[:, :, None, :]
    r = (np.roll(a, -1, axis=1) - a)[:, :, None, :]
    q0 = b[:, None, :, :]
    s = (np.roll(b, -1, axis=1) - b)[:, None, :, :]
    denom = _cross(r, s)                                        # (P, 4, 4)
    qp = q0 - p0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _cross(qp, s) / denom
        u = _cross(qp, r) / denom
    hit = (np.abs(denom) > 1e-15) & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    crossing = (p0 + np.where(hit, t, 0.0)[..., None] * r).reshape(len(a), 16, 2)
    pts = np.concatenate([a, b, crossing], axis=1)              # (P, 24, 2)
    valid = np.concatenate([_inside(a, b), _inside(b, a), hit.reshape(len(a), 16)], axis=1)
    count = valid.sum(1)
    center = (pts * valid[..., None]).sum(1) / np.maximum(count, 1)[:, None]
    angle = np.arctan2(pts[..., 1] - center[:, None, 1], pts[..., 0] - center[:, None, 0])
    angle = np.where(valid, angle, np.inf)
    order = np.argsort(angle, axis=1)
    pts = np.take_along_axis(pts, order[..., None], axis=1)
    valid = np.take_along_axis(valid, order, axis=1)
    pts = np.where(valid[..., None], pts, pts[:, :1, :])        # pad with the first vertex
    area = 0.5 * np.abs(_cross(pts, np.roll(pts, -1, axis=1)).sum(1))
    return np.where(count >= 3, area, 0.0)


def iou_matrix(dets, gts):
    """3D IoU of every (detection, ground truth) pair, (D, G), for (N, 7) boxes."""
    D, G = len(dets), len(gts)
    if D == 0 or G == 0:
        return np.zeros((D, G))
    da = np.repeat(dets, G, axis=0)
    gb = np.tile(gts, (D, 1))
    overlap_y = np.minimum(da[:, 1], gb[:, 1]) - np.maximum(da[:, 1] - da[:, 3], gb[:, 1] - gb[:, 3])
    inter = np.zeros(D * G)
    live = overlap_y > 0
    if live.any():
        inter[live] = bev_overlap(_bev(da[live]), _bev(gb[live])) * overlap_y[live]
    vol = lambda bx: bx[:, 3] * bx[:, 4] * bx[:, 5]  # noqa: E731
    return (inter / (vol(da) + vol(gb) - inter)).reshape(D, G)


# ---------------------------------------------------------------------------
# matching and interpolated AP


def greedy_match(dets, scores, gts, iou_threshold):
    """(score, is_tp, orientation similarity) per detection of one frame, in
    descending-score order (stable on ties); each ground truth used once."""
    ious = iou_matrix(dets, gts)
    used = np.zeros(len(gts), dtype=bool)
    out = []
    for i in np.argsort(-np.asarray(scores), kind="stable"):
        cand = np.where(used, 0.0, ious[i]) if len(gts) else np.zeros(0)
        j = int(np.argmax(cand)) if len(gts) else -1
        if j >= 0 and cand[j] > 0 and cand[j] >= iou_threshold:
            used[j] = True
            out.append((scores[i], True, 0.5 * (1.0 + math.cos(dets[i, 6] - gts[j, 6]))))
        else:
            out.append((scores[i], False, 0.0))
    return out


def ap_and_aos(matches, n_gt, recall_points):
    """Interpolated AP and AOS over the pooled matches of all frames."""
    if n_gt == 0 or not matches:
        return 0.0, 0.0
    order = sorted(range(len(matches)), key=lambda k: -matches[k][0])
    tp = np.cumsum([matches[k][1] for k in order])
    sim = np.cumsum([matches[k][2] for k in order])
    rank = np.arange(1, len(order) + 1)
    recall, precision, similarity = tp / n_gt, tp / rank, sim / rank
    grid = RECALL_GRIDS[recall_points]
    ap = np.mean([precision[recall >= r].max(initial=0.0) for r in grid])
    aos = np.mean([similarity[recall >= r].max(initial=0.0) for r in grid])
    return float(ap), float(aos)


# ---------------------------------------------------------------------------
# one round of the pipeline, judged per detection


@dataclass
class Verdict:
    attempted: int     # detections in the inputs
    failed: int        # detections that broke a check
    problems: list     # faults of the round as a whole
    checks: list       # names of the checks that ran
    accuracy: dict
    kept: int          # rows depuration kept
    lifted: int        # rows solve wrote


def check_round(inputs: Path, results: Path, kept: Path, table: Path, refined: bool,
                iou_threshold: float, recall_points: int) -> Verdict:
    """Judge the files one solve -> depurate -> eval round left behind.

    A detection fails when its result row is missing or non-finite, when the
    row disagrees with its inputs (2D box, dims, yaw, score), when the lifted
    box breaks the closed form (``--no-refine``) or, for a real car, fits its
    2D box worse than the closed form does (refinement), when depuration
    keeps it although it is an injected false detection, or keeps it outside
    the vertical band.
    Rows past the ground truth's count in a frame are the injected ones.
    Problems of the round as a whole (eval disagreeing with the pooled
    matching, kept rows that are not input rows) are listed apart.
    """
    problems = []
    attempted = failed = lifted = n_kept = n_gt = 0
    loc_dist, cf_dist, matches = [], [], []
    lo, hi = VERTICAL_BAND
    for det_path in sorted((inputs / "detections").glob("*.txt")):
        frame = det_path.stem
        camera = read_camera(inputs / "calib" / f"{frame}.txt")
        fu, fv, cu, cv = camera
        inp = read_inputs(det_path, inputs / "properties" / f"{frame}.txt")
        gt = [parse_label(ln) for ln in label_lines(inputs / "gt" / f"{frame}.txt")]
        n, n_real = len(inp["box"]), len(gt)
        attempted += n
        n_gt += n_real
        cf_loc, cbf, yaw = closed_form(inp, camera)

        res_lines = label_lines(results / f"{frame}.txt") or []
        if len(res_lines) > n:
            problems.append(f"{frame}: {len(res_lines)} result rows for {n} detections")
        rows = [parse_label(ln) for ln in res_lines[:n]] + [None] * max(0, n - len(res_lines))
        bad = np.array([r is None for r in rows])
        lifted += int((~bad).sum())
        box3d = np.array([r[2] if r else np.full(7, np.nan) for r in rows]).reshape(n, 7)
        box2d = np.array([r[1] if r else np.full(4, np.nan) for r in rows]).reshape(n, 4)
        score = np.array([r[3] if r else np.nan for r in rows])
        with np.errstate(invalid="ignore"):
            bad |= np.any(np.abs(box2d - inp["box"]) > ROUND_ABS, axis=1)
            bad |= np.any(np.abs(box3d[:, 3:6] - inp["dims"]) > ROUND_ABS, axis=1)
            bad |= np.abs(wrap(box3d[:, 6] - yaw)) > ROUND_ABS
            bad |= np.abs(score - inp["score"]) > ROUND_ABS
            bad |= np.array([r is not None and r[0] != c for r, c in zip(rows, inp["cls"])], dtype=bool)
            loc = box3d[:, :3]
            if refined:
                # only where the viewpoint table is exact, i.e. on the real cars
                cf_boxes = np.concatenate([cf_loc, box3d[:, 3:]], axis=1)[:n_real]
                fit = tight_fit_residual(box3d[:n_real], inp["box"][:n_real], camera)
                cf_fit = tight_fit_residual(cf_boxes, inp["box"][:n_real], camera)
                bad[:n_real] |= ~(fit <= cf_fit + FIT_SLACK_PX)
            else:
                bad |= np.any(~(np.abs(loc - cf_loc) <= ROUND_ABS), axis=1)
                x, y, z = loc.T
                tol_u = fu * ROUND_ABS * (1.0 + np.abs(x) / z) / z + 1e-9
                tol_v = fv * ROUND_ABS * (1.0 + np.abs(y) / z) / z + 1e-9
                bad |= ~(np.abs(cu + fu * x / z - cbf[:, 0]) <= tol_u)
                bad |= ~(np.abs(cv + fv * y / z - cbf[:, 1]) <= tol_v)
        gt_boxes = np.array([g[2] for g in gt]).reshape(n_real, 7)
        loc_dist += list(np.linalg.norm(loc[:n_real] - gt_boxes[:, :3], axis=1))
        cf_dist += list(np.linalg.norm(cf_loc[:n_real] - gt_boxes[:, :3], axis=1))

        kept_lines = label_lines(kept / f"{frame}.txt")
        if kept_lines is None:
            problems.append(f"{frame}: no depurated file")
            kept_lines = []
            bad[:] = True
        src, j = [], 0
        for line in kept_lines:  # kept rows: an in-order, unchanged subset
            while j < len(res_lines) and res_lines[j] != line:
                j += 1
            if j == len(res_lines):
                problems.append(f"{frame}: depurated row not among the result rows: {line!r}")
                break
            src.append(j)
            j += 1
        for k in src:
            if k >= n_real or not (lo <= box3d[k, 1] <= hi):
                bad[k] = True
        failed += int(bad.sum())
        n_kept += len(kept_lines)
        kept_rows = [parse_label(ln) for ln in kept_lines]
        kept_rows = [r for r in kept_rows if r is not None]
        det = np.array([r[2] for r in kept_rows]).reshape(len(kept_rows), 7)
        matches += greedy_match(det, [r[3] for r in kept_rows], gt_boxes, iou_threshold)

    ap, aos = ap_and_aos(matches, n_gt, recall_points)
    accuracy = {
        "loc_dist_p50_m": float(np.median(loc_dist)) if loc_dist else math.nan,
        "loc_dist_p90_m": float(np.percentile(loc_dist, 90)) if loc_dist else math.nan,
        "closed_form_loc_dist_p50_m": float(np.median(cf_dist)) if cf_dist else math.nan,
        "ap3d": ap,
        "aos": aos,
    }
    try:
        shown = json.loads(table.read_text())
    except (OSError, ValueError):
        shown = None
        problems.append("box3d eval wrote no JSON table")
    if shown is not None:
        accuracy["ap3d"] = shown.get(f"AP3D@{iou_threshold}", math.nan)
        accuracy["aos"] = shown.get("AOS", math.nan)
        if not (abs(accuracy["ap3d"] - ap) <= AP_TOL and abs(accuracy["aos"] - aos) <= AP_TOL):
            problems.append(f"eval AP3D/AOS {accuracy['ap3d']}/{accuracy['aos']} != pooled matching {ap}/{aos}")
        if not 0.0 <= accuracy["aos"] <= accuracy["ap3d"] <= 1.0:
            problems.append("AOS <= AP3D within [0, 1] fails")
        if shown.get("n_det") != n_kept or shown.get("n_gt") != n_gt:
            problems.append(f"eval counts n_det={shown.get('n_det')} n_gt={shown.get('n_gt')}, "
                            f"files hold {n_kept} and {n_gt}")
    if refined and not accuracy["loc_dist_p50_m"] < accuracy["closed_form_loc_dist_p50_m"]:
        problems.append("refined median location error is not below the closed form's")
    checks = ["rows", "tight_fit" if refined else "closed_form", "depuration", "eval"]
    if attempted > n_gt:
        checks.append("injected_removed")
    return Verdict(attempted, failed, problems, checks, accuracy, n_kept, lifted)
