import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box3d import metrics
from box3d.camera import Box3D, Dimensions
from box3d.kitti_io import LabelTable, frame_blocks
from box3d.metrics import (
    RECALL_POINTS_11,
    RECALL_POINTS_40,
    _clipped_areas,
    aos_and_os,
    average_precision,
    bev_corners,
    dimension_error,
    match_frame,
    match_run,
    orientation_similarity,
    pair_ious,
    passes_difficulty,
)


def _box(x=0.0, y=0.0, z=0.0, h=1.0, w=1.0, l=1.0, yaw=0.0):
    return Box3D(np.array([x, y, z]), Dimensions(h, w, l), yaw)


def _table(boxes, scores=None):
    """Label rows of 3D boxes, with no 2D box, and with the given scores."""
    scores = [math.nan] * len(boxes) if scores is None else scores
    return LabelTable(
        [[0.0] * 7 + [b.dims.h, b.dims.w, b.dims.l, *b.location, b.yaw, s] for b, s in zip(boxes, scores)],
        ["Car"] * len(boxes),
    )


def _columns(rows):
    """The four match columns of (score, TP, orientation similarity, IoU)
    rows."""
    score, is_tp, sims, ious = zip(*rows) if rows else ((),) * 4
    return np.array(score, dtype=float), np.array(is_tp, dtype=bool), np.array(sims, dtype=float), np.array(ious)


def _rows(matches):
    """match_frame's four columns as (score, TP, orientation similarity, IoU)
    rows, in descending score with ties in row order: the order in which the
    greedy visits them."""
    order = np.argsort(-matches[0], kind="stable")
    return list(zip(*(column[order].tolist() for column in matches)))


def _iou(a, b):
    """The 3D IoU of two Box3Ds: pair_ious on one-row tables, 0.0 where it
    returns no triple."""
    iou = pair_ious(_table([a]), [0, 1], _table([b]), [0, 1])[2]
    return float(iou[0]) if len(iou) else 0.0


def _match_tables(detections, ground_truths, iou_threshold):
    """match_frame on one frame's tables, without a run's columns."""
    return match_frame(detections, ground_truths, iou_threshold)


def _match(detections, ground_truths, iou_threshold):
    """match_frame on (Box3D, score) pairs and Box3Ds, as rows (see _rows)."""
    return _rows(_match_tables(_table([b for b, _ in detections], [s for _, s in detections]), _table(ground_truths),
                               iou_threshold))


# ---------------------------------------------------------------------------
# scalar reference: the per-pair clipping the batched kernel replaced


def _quad(x, z, w, l, yaw):
    """Ground-plane (x, z) corners, counterclockwise, of a box's footprint."""
    c, s = math.cos(yaw), math.sin(yaw)
    hl, hw = 0.5 * l, 0.5 * w
    return [(x + ox * c + oz * s, z - ox * s + oz * c) for ox, oz in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def _bev_corners_ref(box):
    return _quad(box.location[0], box.location[2], box.dims.w, box.dims.l, box.yaw)


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


def _iou_ref(a, b) -> float:
    """IoU of two Box3Ds, one pair at a time with Python floats."""
    a_y, b_y = a.location[1], b.location[1]
    # y points down: a box spans [y - h, y]
    overlap_y = min(a_y, b_y) - max(a_y - a.dims.h, b_y - b.dims.h)
    if overlap_y <= 0:
        return 0.0
    inter = _clipped_area(_bev_corners_ref(a), _bev_corners_ref(b)) * overlap_y
    if inter <= 0:
        return 0.0
    vol_a = a.dims.h * a.dims.w * a.dims.l
    vol_b = b.dims.h * b.dims.w * b.dims.l
    return inter / (vol_a + vol_b - inter)


def _same(x, y) -> bool:
    """Equal to the bit (the sign of a zero too); NaN is the same as NaN."""
    return (math.isnan(x) and math.isnan(y)) or (x == y and math.copysign(1.0, x) == math.copysign(1.0, y))


# ---------------------------------------------------------------------------
# rotated 3D IoU


def test_identical_boxes_full_overlap():
    a = _box(1.0, 2.0, 10.0, yaw=0.4)
    assert _iou(a, a) == pytest.approx(1.0)


def test_distant_boxes_zero():
    assert _iou(_box(), _box(x=100.0)) == 0.0


def test_unit_cubes_half_offset():
    assert _iou(_box(), _box(x=0.5)) == pytest.approx(1.0 / 3.0)


def test_vertical_offset_only():
    # y down, boxes span [y-h, y]: offset 0.25 leaves 0.75 overlap
    assert _iou(_box(), _box(y=0.25)) == pytest.approx(0.75 / 1.25)


@given(
    yaw_a=st.floats(min_value=-math.pi, max_value=math.pi),
    yaw_b=st.floats(min_value=-math.pi, max_value=math.pi),
    dx=st.floats(min_value=-2, max_value=2),
    dz=st.floats(min_value=-2, max_value=2),
)
@settings(max_examples=50)
def test_iou_symmetry(yaw_a, yaw_b, dx, dz):
    a = _box(yaw=yaw_a, l=3.0)
    b = _box(x=dx, z=dz, yaw=yaw_b, l=3.0)
    assert _iou(a, b) == pytest.approx(_iou(b, a), abs=1e-12)


@given(
    shift=st.floats(min_value=-math.pi, max_value=math.pi),
    tx=st.floats(min_value=-20, max_value=20),
    tz=st.floats(min_value=-20, max_value=20),
)
@settings(max_examples=50)
def test_iou_rigid_motion_invariance(shift, tx, tz):
    a = _box(yaw=0.3, l=3.0)
    b = _box(x=0.8, z=0.4, yaw=-0.5, l=3.0)
    base = _iou(a, b)

    def moved(box):
        c, s = math.cos(shift), math.sin(shift)
        x, y, z = box.location
        return Box3D(
            np.array([x * c + z * s + tx, y, -x * s + z * c + tz]),
            box.dims,
            box.yaw + shift,
        )

    assert _iou(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


def test_bev_intersection_disjoint_is_zero():
    a, b = _box(), _box(x=5.0)
    assert _clipped_area(_bev_corners_ref(a), _bev_corners_ref(b)) == 0.0
    assert _clipped_areas(bev_corners(_table([a])), bev_corners(_table([b]))).tolist() == [0.0]
    assert _iou(a, b) == 0.0


def test_bev_corners_equal_scalar_reference():
    rng = np.random.default_rng(4)
    boxes = [_box(*rng.uniform(-40.0, 40.0, 3), *rng.uniform(0.0, 6.0, 3), rng.uniform(-4.0, 4.0))
             for _ in range(2000)]
    boxes += [_box(yaw=k * math.pi / 4) for k in range(-4, 4)]
    assert bev_corners(_table(boxes)).tolist() == [[list(c) for c in _bev_corners_ref(b)] for b in boxes]


def _assert_clips_like_reference(pairs):
    subject = np.array([a for a, _ in pairs], dtype=float).reshape(-1, 4, 2)
    clip = np.array([b for _, b in pairs], dtype=float).reshape(-1, 4, 2)
    for (a, b), area in zip(pairs, _clipped_areas(subject, clip).tolist()):
        assert _same(area, _clipped_area(a, b)), (a, b)


@given(
    a=st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 80.0), st.floats(0.0, 3.0), st.floats(0.0, 6.0),
                st.floats(-math.pi, math.pi)),
    kind=st.sampled_from(["near", "identical", "edge", "corner", "quarter_turn", "flat", "non_finite"]),
    jitter=st.one_of(st.tuples(*[st.floats(-1e-9, 1e-9)] * 5), st.tuples(*[st.floats(-1.0, 1.0)] * 5),
                     st.just((0.0,) * 5)),
    bad=st.tuples(st.integers(0, 3), st.integers(0, 1), st.sampled_from([math.nan, math.inf, -math.inf])),
)
@settings(max_examples=400)
def test_batched_clip_equals_scalar_reference(a, kind, jitter, bad):
    x, z, w, l, yaw = a
    c, s = math.cos(yaw), math.sin(yaw)
    if kind == "edge":  # the next box along a's length, sharing an edge
        b = (x + l * c, z - l * s, w, l, yaw)
    elif kind == "corner":  # the next box along a's diagonal, sharing a corner
        b = (x + l * c + w * s, z - l * s + w * c, w, l, yaw)
    elif kind == "quarter_turn":
        b = (x, z, w, l, yaw + math.pi / 2)
    elif kind == "flat":  # a zero-area quad, or a width matching a's length
        b = (x, z, 0.0, l, yaw) if jitter[0] >= 0 else (x, z, l, w, yaw + math.pi / 2)
    else:
        b = a
    if kind == "near":
        b = tuple(v + d for v, d in zip(b, jitter))
    quad_a, quad_b = _quad(*a), _quad(*b)
    if kind == "non_finite":
        corner, axis, value = bad
        quad_b = [tuple(v if (i, k) != (corner, axis) else value for k, v in enumerate(p))
                  for i, p in enumerate(quad_b)]
    _assert_clips_like_reference([(quad_a, quad_b), (quad_b, quad_a)])


def test_batched_clip_equals_scalar_reference_on_random_near_duplicates():
    rng = np.random.default_rng(9)
    params = np.column_stack([rng.uniform(-30.0, 30.0, 20_000), rng.uniform(0.0, 60.0, 20_000),
                              rng.uniform(0.5, 2.5, 20_000), rng.uniform(2.0, 5.0, 20_000),
                              rng.uniform(-math.pi, math.pi, 20_000)])
    scale = rng.choice([0.0, 1e-12, 1e-6, 0.3], size=(20_000, 1))
    near = params + scale * rng.normal(size=params.shape)
    _assert_clips_like_reference([(_quad(*p), _quad(*q)) for p, q in zip(params.tolist(), near.tolist())])


def test_next_of_a_batch_equals_next_of_each_row_alone():
    """Rows of every used count from 0 to W, a full row directly before an
    empty one: a wrap value written outside its own row shows in the full
    row's last slot."""
    w = 8
    n = np.array([3, w, 0, 1, 2, 4, 5, 6, 7])
    assert sorted(n.tolist()) == list(range(w + 1))
    values = np.random.default_rng(2).uniform(-1.0, 1.0, (len(n), w))
    got = metrics._next(values, n)
    assert got.tolist() == [metrics._next(values[r:r + 1], n[r:r + 1])[0].tolist() for r in range(len(n))]
    # a used count of n sends the first value to slot n - 1, and a row of
    # none keeps the plain shift
    assert got[1].tolist() == values[1, 1:].tolist() + [values[1, 0]]
    assert got[2].tolist() == values[2, 1:].tolist() + [values[2, 0]]
    assert got[0].tolist() == values[0, 1:3].tolist() + [values[0, 0]] + values[0, 4:].tolist() + [values[0, 0]]


# ---------------------------------------------------------------------------
# orientation similarity


def test_orientation_similarity_values():
    assert orientation_similarity(0.3, 0.3) == pytest.approx(1.0)
    assert orientation_similarity(0.0, math.pi) == pytest.approx(0.0)
    assert orientation_similarity(0.0, math.pi / 2) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# AP / AOS / OS on the hand-computed fixture


def _fixture_matches():
    """5 detections vs 3 ground truths, ranks: TP FP TP FP TP.

    Orientation similarities of the TPs: 0, 1, 0.5 (by descending score).
    Hand PR table: recalls 1/3, 1/3, 2/3, 2/3, 1; precisions 1, 1/2, 2/3,
    1/2, 3/5.
    """
    return _columns([
        (0.9, True, 0.0, 1.0),
        (0.8, False, 0.0, 0.0),
        (0.7, True, 1.0, 1.0),
        (0.6, False, 0.0, 0.1),
        (0.5, True, 0.5, 1.0),
    ])


def test_ap_hand_computed():
    # 11-point: 4 points at precision 1, 3 at 2/3, 4 at 3/5
    expected = Fraction(4, 1) + 3 * Fraction(2, 3) + 4 * Fraction(3, 5)
    assert average_precision(_fixture_matches(), 3) == pytest.approx(float(expected / 11))
    assert average_precision(_fixture_matches(), 3) == pytest.approx(42.0 / 55.0)


def test_aos_os_hand_computed():
    # cumulative similarity / rank: 0, 0, 1/3, 1/4, 3/10
    aos, os_score = aos_and_os(_fixture_matches(), 3)
    expected_aos = (4 * Fraction(1, 3) + 3 * Fraction(1, 3) + 4 * Fraction(3, 10)) / 11
    assert aos == pytest.approx(float(expected_aos))
    assert aos == pytest.approx(53.0 / 165.0)
    assert os_score == pytest.approx(float(expected_aos / Fraction(42, 55)))


def test_all_correct_ap_one():
    matches = _columns([(s, True, 1.0, 1.0) for s in (0.2, 0.9, 0.5)])
    assert average_precision(matches, 3) == pytest.approx(1.0)
    aos, os_score = aos_and_os(matches, 3)
    assert aos == pytest.approx(1.0)
    assert os_score == pytest.approx(1.0)


def test_no_detections_ap_zero():
    assert average_precision(_columns([]), 3) == 0.0
    assert aos_and_os(_columns([]), 3) == (0.0, 0.0)


def test_orientations_flipped_pi_gives_zero_os():
    matches = _columns([(s, True, 0.0, 1.0) for s in (0.9, 0.8)])
    aos, os_score = aos_and_os(matches, 2)
    assert aos == 0.0
    assert os_score == 0.0


def test_aos_never_exceeds_ap_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        matches = _columns([
            (float(rng.uniform()), bool(rng.uniform() < 0.7), float(rng.uniform()), 0.8)
            for _ in range(n)
        ])
        n_gt = int(rng.integers(1, 8))
        ap = average_precision(matches, n_gt)
        aos, _ = aos_and_os(matches, n_gt)
        assert aos <= ap + 1e-12


def test_metrics_order_invariance():
    rng = np.random.default_rng(2)
    matches = [
        (float(s), bool(t), float(o), 0.9)
        for s, t, o in zip(rng.permutation(20) / 20.0, rng.uniform(size=20) < 0.6, rng.uniform(size=20))
    ]
    base_ap = average_precision(_columns(matches), 9)
    base_aos = aos_and_os(_columns(matches), 9)
    for _ in range(5):
        shuffled = _columns([matches[i] for i in rng.permutation(len(matches))])
        assert average_precision(shuffled, 9) == pytest.approx(base_ap)
        assert aos_and_os(shuffled, 9) == pytest.approx(base_aos)


def test_match_frame_greedy_consumes_each_gt_once():
    gt = [_box(z=10.0), _box(z=30.0)]
    dets = [
        (_box(z=10.0), 0.9),
        (_box(z=10.0), 0.8),  # duplicate: its gt is already consumed
        (_box(z=30.0), 0.7),
    ]
    matches = _match(dets, gt, iou_threshold=0.7)
    flags = sorted(((score, is_tp) for score, is_tp, _, _ in matches), reverse=True)
    assert flags == [(0.9, True), (0.8, False), (0.7, True)]


def _match_frame_loop(detections, ground_truths, iou_threshold):
    """Reference: the per-pair greedy loop match_frame replaced; (score, TP,
    orientation similarity, IoU) rows in the order it visits them."""
    order = sorted(range(len(detections)), key=lambda i: -detections[i][1])
    used = [False] * len(ground_truths)
    out = []
    for i in order:
        box, score = detections[i]
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(ground_truths):
            if used[j]:
                continue
            iou = _iou_ref(box, gt)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= iou_threshold:
            used[best_j] = True
            out.append((score, True, orientation_similarity(box.yaw, ground_truths[best_j].yaw), best_iou))
        else:
            out.append((score, False, 0.0, best_iou))
    return out


def _car(rng, x, z):
    return _box(x, rng.uniform(1.4, 1.9), z, *rng.uniform([1.3, 1.4, 3.2], [1.8, 1.9, 4.6]),
                rng.uniform(-math.pi, math.pi))


def _moved(box, dx=0.0, dy=0.0, dz=0.0, yaw=None):
    return Box3D(box.location + np.array([dx, dy, dz]), box.dims, box.yaw if yaw is None else yaw)


def _crowded_frame(rng):
    """Up to 29 ground truths, and detections that are noisy copies,
    duplicates, exact copies, boxes touching or nearly touching a ground
    truth along its length or width, boxes stacked on one (a ground-plane
    overlap only), boxes just outside its bounding circle (a vertical
    overlap only), boxes with a NaN coordinate, and false detections
    anywhere.  A few ground truths get a twin with a NaN height."""
    n_gt = int(rng.integers(0, 30))
    gts = [_car(rng, rng.uniform(-12.0, 12.0), rng.uniform(4.0, 50.0)) for _ in range(n_gt)]
    dets = []
    for _ in range(int(rng.integers(0, 36))):
        kind = int(rng.integers(0, 9)) if gts else 8
        gt = gts[int(rng.integers(0, len(gts)))] if gts else None
        if kind == 0:
            dets.append(_moved(gt, *rng.normal(0.0, 0.4, 3), gt.yaw + rng.normal(0.0, 0.2)))
        elif kind == 1 and dets:
            dets.append(dets[int(rng.integers(0, len(dets)))])
        elif kind == 2:
            dets.append(Box3D(gt.location.copy(), gt.dims, gt.yaw))
        elif kind in (3, 4):
            # beside the ground truth along its length (3) or width (4) axis
            eps = (0.0, 1e-12, -1e-12, 1e-9, -1e-9)[int(rng.integers(0, 5))]
            step = gt.dims.l + eps if kind == 3 else gt.dims.w + eps
            c, s = math.cos(gt.yaw), math.sin(gt.yaw)
            dx, dz = (step * c, -step * s) if kind == 3 else (step * s, step * c)
            dets.append(_moved(gt, dx=dx, dz=dz, yaw=gt.yaw))
        elif kind == 5:  # vertically stacked: same footprint, touching or apart
            dets.append(_moved(gt, dy=-gt.dims.h - (0.0, 1e-12, 0.5)[int(rng.integers(0, 3))]))
        elif kind == 6:  # vertical overlap only, ground-plane circles just apart
            reach = 0.5 * (math.hypot(gt.dims.l, gt.dims.w) + math.hypot(3.0, 1.5))
            angle = rng.uniform(-math.pi, math.pi)
            far = reach + (1e-9, 1e-5, 0.3)[int(rng.integers(0, 3))]
            dets.append(_box(gt.location[0] + far * math.cos(angle), gt.location[1],
                             gt.location[2] + far * math.sin(angle), 1.5, 1.5, 3.0,
                             rng.uniform(-math.pi, math.pi)))
        elif kind == 7:  # no usable location
            loc = gt.location.copy()
            loc[int(rng.integers(0, 3))] = math.nan
            dets.append(Box3D(loc, gt.dims, gt.yaw))
        else:
            dets.append(_car(rng, rng.uniform(-14.0, 14.0), rng.uniform(3.0, 55.0)))
    for gt in gts[: int(rng.integers(0, 3))]:
        gts.append(Box3D(gt.location * np.array([1.0, math.nan, 1.0]), gt.dims, gt.yaw))
    # few distinct scores make ties common
    scores = rng.integers(0, 5, len(dets)) / 4.0 if rng.uniform() < 0.5 else rng.uniform(size=len(dets))
    return [(d, float(s)) for d, s in zip(dets, scores)], gts


@pytest.mark.parametrize("iou_threshold", [0.5, 0.7])
def test_match_frame_matches_loop_reference(iou_threshold):
    rng = np.random.default_rng(5)
    for _ in range(150):
        dets, gts = _crowded_frame(rng)
        assert _match(dets, gts, iou_threshold) == _match_frame_loop(dets, gts, iou_threshold)
        # the columns come in detection order
        scores = _match_tables(_table([b for b, _ in dets], [s for _, s in dets]), _table(gts), iou_threshold)[0]
        assert scores.tolist() == [s for _, s in dets]
    assert _match([], [_box()], iou_threshold) == []
    assert _match([(_box(), 0.5)], [], iou_threshold) == [(0.5, False, 0.0, 0.0)]
    # a detection without a score counts 1.0
    assert _rows(_match_tables(_table([_box()]), _table([]), iou_threshold)) == [(1.0, False, 0.0, 0.0)]


def _big_frame(rng, n_gt=64, n_det=70):
    """More pairs than the default block budget: a grid of ground truths and
    noisy copies of them."""
    gts = [_car(rng, -14.0 + 3.5 * (k % 8), 5.0 + 6.0 * (k // 8)) for k in range(n_gt)]
    dets = [_moved(gts[k % n_gt], *rng.normal(0.0, 0.3, 3), gts[k % n_gt].yaw + rng.normal(0.0, 0.1))
            for k in range(n_det)]
    return [(d, float(s)) for d, s in zip(dets, rng.integers(0, 3, n_det) / 2.0)], gts


def _random_run(seed):
    """Frames of a run: crowded ones, empty ones, two ground truths at one
    IoU from a detection, NaN scores, and one frame over the block budget."""
    rng = np.random.default_rng(seed)
    frames = [_crowded_frame(rng) for _ in range(24)]
    frames += [([], []), ([], [_box(z=10.0)]), ([(_box(z=10.0), 0.5)], []), _big_frame(rng)]
    frames.append(([(_box(h=1.5, w=2.0, l=4.0), 0.9), (_box(x=-0.5, h=1.5, w=2.0, l=4.0), 0.8)],
                   [_box(x=-0.5, h=1.5, w=2.0, l=4.0), _box(x=0.5, h=1.5, w=2.0, l=4.0)]))
    for f in rng.choice(len(frames), 6, replace=False).tolist():
        frames[f] = ([(d, math.nan if rng.uniform() < 0.5 else s) for d, s in frames[f][0]], frames[f][1])
    return [frames[f] for f in rng.permutation(len(frames))]


def _joined(frames):
    """The run's detection and ground-truth tables and their row offsets."""
    dets = [d for ds, _ in frames for d in ds]
    det_offsets = np.cumsum([0] + [len(ds) for ds, _ in frames])
    gt_offsets = np.cumsum([0] + [len(gs) for _, gs in frames])
    return (_table([b for b, _ in dets], [s for _, s in dets]), det_offsets,
            _table([g for _, gs in frames for g in gs]), gt_offsets)


@pytest.mark.parametrize("budget", [1, 500, metrics.PAIR_BUDGET])
def test_pair_ious_equal_scalar_reference(monkeypatch, budget):
    monkeypatch.setattr(metrics, "PAIR_BUDGET", budget)
    frames = _random_run(12)
    assert max(len(ds) * len(gs) for ds, gs in frames) > metrics.PAIR_BUDGET or budget == 1
    dets, det_offsets, gts, gt_offsets = _joined(frames)
    d, g, iou = pair_ious(dets, det_offsets, gts, gt_offsets)
    want = [
        (det_offsets[f] + i, gt_offsets[f] + j, value)
        for f, (ds, gs) in enumerate(frames) for i, (box, _) in enumerate(ds) for j, gt in enumerate(gs)
        for value in [_iou_ref(box, gt)] if value > 0
    ]
    assert list(zip(d.tolist(), g.tolist(), iou.tolist())) == want


@pytest.mark.parametrize("budget", [1, 500, metrics.PAIR_BUDGET])
@pytest.mark.parametrize("iou_threshold", [0.5, 0.7])
def test_run_pass_matches_per_frame_loop(monkeypatch, budget, iou_threshold):
    monkeypatch.setattr(metrics, "PAIR_BUDGET", budget)
    car = dict(h=1.5, w=2.0, l=4.0)
    frames = _random_run(13) + [
        # the later frame's detection outscores the earlier frame's, and
        # takes nothing from it: each ground truth is its frame's row 0
        ([(_box(z=10.0), 0.5)], [_box(z=10.0)]),
        ([(_box(z=20.0), 0.9)], [_box(z=20.0)]),
        # NaN counts 1.0 and takes the ground truth; -0.0 and 0.0 tie
        ([(_box(**car), -0.0), (_box(**car), 0.0), (_box(**car), math.nan)], [_box(**car), _box(x=0.1, **car)]),
        # the first detection's best IoU (about 0.23) is below the threshold,
        # so it leaves the ground truth to the second
        ([(_box(x=2.5, **car), 0.9), (_box(**car), 0.8)], [_box(**car)]),
    ]
    dets, det_offsets, gts, gt_offsets = _joined(frames)
    run = match_run(dets, gts, iou_threshold, pair_ious(dets, det_offsets, gts, gt_offsets))
    assert run[0].tobytes() == np.where(np.isnan(dets.score), 1.0, dets.score).tobytes()
    for f, (ds, gs) in enumerate(frames):
        rows = slice(det_offsets[f], det_offsets[f + 1])
        det, gt = dets[rows], gts[gt_offsets[f]:gt_offsets[f + 1]]
        got = match_frame(det, gt, iou_threshold, [column[rows] for column in run])
        # a detection without a score counts 1.0
        scored = [(box, 1.0 if math.isnan(s) else s) for box, s in ds]
        assert _rows(got) == _match_frame_loop(scored, gs, iou_threshold)
        alone = match_frame(det, gt, iou_threshold)
        assert [(c.dtype, c.tobytes()) for c in alone] == [(c.dtype, c.tobytes()) for c in got]
    at = det_offsets[-5:].tolist()
    assert [_rows([column[first:last] for column in run]) for first, last in zip(at, at[1:])] == [
        [(0.5, True, 1.0, 1.0)],
        [(0.9, True, 1.0, 1.0)],
        [(1.0, True, 1.0, 1.0), (-0.0, True, 1.0, _iou(_box(**car), _box(x=0.1, **car))), (0.0, False, 0.0, 0.0)],
        [(0.9, False, 0.0, 1.5 / 6.5), (0.8, True, 1.0, 1.0)],
    ]


@pytest.mark.parametrize("iou_threshold", [0.5, 0.7])
def test_match_run_settles_unshared_detections_as_the_greedy_does(iou_threshold):
    """match_run settles a detection whose ground truths no other detection
    overlaps in array code, and loops over the rest; each frame must equal the
    greedy loop all the same."""
    car = dict(h=1.5, w=2.0, l=4.0)
    frames = [
        # g0 is overlapped by both detections; d1 also overlaps g1, which no
        # other detection overlaps.  d0 outscores d1 and takes g0, so d1 is
        # left g1's IoU, below the threshold; settled alone, d1 would take g0
        ([(_box(z=-0.2, **car), 0.9), (_box(**car), 0.8)], [_box(**car), _box(z=1.9, **car)]),
        # one unshared detection, its one IoU (about 0.23) below the threshold
        ([(_box(x=2.5, **car), 0.7)], [_box(**car)]),
        # one unshared detection at two equal IoUs: the lower row, turned by
        # pi, wins, so its orientation similarity is 0.0
        ([(_box(**car), 0.6)], [_box(x=-0.5, yaw=math.pi, **car), _box(x=0.5, **car)]),
    ]
    dets, det_offsets, gts, gt_offsets = _joined(frames)
    d, g, iou = pair_ious(dets, det_offsets, gts, gt_offsets)
    assert list(zip(d.tolist(), g.tolist())) == [(0, 0), (1, 0), (1, 1), (2, 2), (3, 3), (3, 4)]
    assert iou[-2] == iou[-1]
    run = match_run(dets, gts, iou_threshold, (d, g, iou))
    for f, (ds, gs) in enumerate(frames):
        rows = slice(det_offsets[f], det_offsets[f + 1])
        assert _rows([column[rows] for column in run]) == _match_frame_loop(ds, gs, iou_threshold)
    assert _rows(run) == [
        (0.9, True, 1.0, float(iou[0])),
        (0.8, False, 0.0, float(iou[2])),
        (0.7, False, 0.0, 1.5 / 6.5),
        (0.6, True, 0.0, 10.5 / 13.5),
    ]


@given(frames=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8),
       start=st.tuples(st.integers(1, 20), st.integers(1, 20)), one_table=st.booleans(),
       budget=st.sampled_from([1, 7, metrics.PAIR_BUDGET]))
def test_frame_pairs_equal_nested_loops(frames, start, one_table, budget):
    """Each block of frame_pairs holds the a x b pairs of its frames, frame by
    frame, a ascending, then b ascending; of one table's frames, the pairs
    a < b only.  The blocks are kitti_io.frame_blocks of the frames weighted
    by their pair counts.  The offsets start past row 0, so that no row is
    taken for its place in the block."""
    a_offsets = start[0] + np.cumsum([0] + [n for n, _ in frames])
    b_offsets = a_offsets if one_table else start[1] + np.cumsum([0] + [n for _, n in frames])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "PAIR_BUDGET", budget)
        blocks = list(metrics.frame_pairs(a_offsets, None if one_table else b_offsets))
    assert all(a.dtype.kind == b.dtype.kind == "i" for _, a, b in blocks)
    n_a, n_b = np.diff(a_offsets).tolist(), np.diff(b_offsets).tolist()
    weights = [n * (n - 1) // 2 for n in n_a] if one_table else [n * m for n, m in zip(n_a, n_b)]
    assert [(block.start, block.stop, list(zip(a.tolist(), b.tolist()))) for block, a, b in blocks] == [
        (first, last, [(i, j) for f in range(first, last) for i in range(a_offsets[f], a_offsets[f + 1])
                       for j in range(b_offsets[f], b_offsets[f + 1]) if not one_table or i < j])
        for first, last in frame_blocks(weights, budget)
    ]


@pytest.mark.parametrize("frames", [
    # pairs that the cull drops, apart on the ground plane or vertically, and
    # frames without a pair
    [([(_box(z=10.0), 0.5)], [_box(x=50.0, z=10.0)]), ([(_box(z=10.0), 0.5)], [_box(y=-5.0, z=10.0)]),
     ([], [_box()]), ([(_box(), 0.5)], [])],
    [],  # a run of zero frames
])
def test_pair_ious_without_a_survivor_returns_empty_columns(frames):
    d, g, iou = pair_ious(*_joined(frames))
    assert (d.dtype.kind, g.dtype.kind, iou.dtype) == ("i", "i", np.float64)
    assert len(d) == len(g) == len(iou) == 0


def test_pair_ious_memory_grows_by_its_survivors_not_by_their_clipping():
    """The cull's survivors are clipped in blocks.  On a crowded run 4x as
    long, the traced peak of pair_ious grows by a few words per extra
    survivor and table row (the survivors' rows and IoUs, each table's cull
    columns and corners), not by the ~1 kB of clip temporaries that each
    survivor would add were they all clipped at once."""
    rng = np.random.default_rng(3)
    frames = [_crowded_frame(rng) for _ in range(40)]

    def peak(run):
        dets, det_offsets, gts, gt_offsets = _joined(run)
        cull_d, cull_g = metrics._Cull.of(dets.location, dets.dims), metrics._Cull.of(gts.location, gts.dims)
        survivors = sum(int(metrics._may_meet(cull_d.take(d), cull_g.take(g)).sum())
                        for _, d, g in metrics.frame_pairs(det_offsets, gt_offsets))
        tracemalloc.start()
        try:
            pair_ious(dets, det_offsets, gts, gt_offsets)
            return tracemalloc.get_traced_memory()[1], survivors, len(dets) + len(gts)
        finally:
            tracemalloc.stop()

    (peak_1, survivors_1, rows_1), (peak_4, survivors_4, rows_4) = peak(frames), peak(frames * 4)
    assert survivors_4 > metrics.PAIR_BUDGET  # several clip blocks
    assert peak_4 - peak_1 < 256 * ((survivors_4 - survivors_1) + (rows_4 - rows_1))


def _may_meet(a, b):
    """The cull's verdict on the one rows of two tables: whether the pair
    survives it."""
    return bool(metrics._may_meet(metrics._Cull.of(a.location, a.dims), metrics._Cull.of(b.location, b.dims))[0])


@given(
    dims_a=st.tuples(*[st.floats(0.1, 6.0)] * 3),
    dims_b=st.tuples(*[st.floats(0.1, 6.0)] * 3),
    yaw_a=st.floats(-math.pi, math.pi),
    yaw_b=st.floats(-math.pi, math.pi),
    direction=st.floats(-math.pi, math.pi),
    gap=st.one_of(st.floats(-0.5, 0.5), st.sampled_from([0.0, 1e-12, 2e-6, 2.1e-6])),
    dy=st.floats(-7.0, 7.0),
    origin=st.tuples(st.floats(-60.0, 60.0), st.floats(-3.0, 3.0), st.floats(0.0, 80.0)),
    corner_to_corner=st.booleans(),
)
@settings(max_examples=300)
def test_culled_pairs_have_zero_iou(dims_a, dims_b, yaw_a, yaw_b, direction, gap, dy, origin,
                                    corner_to_corner):
    # b sits at its bounding-circle distance from a, plus the gap; a corner of
    # each box may point at the other, the one way such boxes can touch
    _, w_a, l_a = dims_a
    _, w_b, l_b = dims_b
    if corner_to_corner:
        direction = math.atan2(w_a, l_a) - yaw_a
        yaw_b = math.atan2(w_b, l_b) - direction - math.pi
    a = _box(*origin, *dims_a, yaw_a)
    reach = 0.5 * (math.hypot(w_a, l_a) + math.hypot(w_b, l_b))
    dist = max(reach + gap, 0.0)
    b = _box(origin[0] + dist * math.cos(direction), origin[1] + dy,
             origin[2] + dist * math.sin(direction), *dims_b, yaw_b)
    culled = not _may_meet(_table([a]), _table([b]))
    assert culled == (not _may_meet(_table([b]), _table([a])))
    if culled:
        assert _iou_ref(a, b) == _iou_ref(b, a) == 0.0
        # the clipping kernel, without the cull, agrees
        ta, tb = _table([a]), _table([b])
        assert metrics._ious(ta.location, ta.dims, tb.location, tb.dims, bev_corners(ta), bev_corners(tb)) == 0.0
        assert metrics._ious(tb.location, tb.dims, ta.location, ta.dims, bev_corners(tb), bev_corners(ta)) == 0.0
        for first, second in ((a, b), (b, a)):
            assert all(len(v) == 0 for v in pair_ious(_table([first]), [0, 1], _table([second]), [0, 1]))


def test_box_with_a_non_positive_dimension_never_intersects():
    # a DontCare row keeps its -1 placeholders; no such box overlaps another
    det = _table([_box(z=10.0)], [0.9])
    for k in range(3):
        for value in (0.0, -1.0):
            gt = _table([_box(z=10.0)])
            gt.dims[0, k] = value
            assert not _may_meet(det, gt) and not _may_meet(gt, det)
            assert _rows(_match_tables(det, gt, 0.5)) == [(0.9, False, 0.0, 0.0)]


def test_match_frame_equal_iou_takes_first_ground_truth():
    # the first detection overlaps both ground truths by the same IoU; taking
    # the first leaves the second detection only its below-threshold IoU
    gts = [_box(x=-0.5, h=1.5, w=2.0, l=4.0), _box(x=0.5, h=1.5, w=2.0, l=4.0)]
    dets = [(_box(h=1.5, w=2.0, l=4.0), 0.9), (_box(x=-0.5, h=1.5, w=2.0, l=4.0), 0.8)]
    assert _iou(dets[0][0], gts[0]) == _iou(dets[0][0], gts[1]) == 10.5 / 13.5
    assert _match(dets, gts, 0.7) == [
        (0.9, True, 1.0, 10.5 / 13.5),
        (0.8, False, 0.0, 0.6),
    ]


def _ap_aos_os_loop(matches, n_gt, recall_points):
    """Reference: the per-rank and per-grid-point loops AP and AOS replaced."""
    if n_gt <= 0 or not matches:
        return 0.0, 0.0, 0.0
    recalls, precisions, sims = [], [], []
    tp, sim = 0, 0.0
    for rank, (_, is_tp, orientation_sim, _) in enumerate(sorted(matches, key=lambda m: -m[0]), start=1):
        if is_tp:
            tp += 1
            sim += orientation_sim
        recalls.append(tp / n_gt)
        precisions.append(tp / rank)
        sims.append(sim / rank)

    def interpolated(values):
        total = 0.0
        for r in recall_points:
            best = 0.0
            for rec, val in zip(recalls, values):
                if rec >= r and val > best:
                    best = val
            total += best
        return total / len(recall_points)

    ap, aos = interpolated(precisions), interpolated(sims)
    return ap, aos, (aos / ap if ap > 0 else 0.0)


@pytest.mark.parametrize("recall_points", [RECALL_POINTS_11, RECALL_POINTS_40])
def test_ap_aos_os_match_loop_reference(recall_points):
    rng = np.random.default_rng(11)
    for trial in range(1000):
        n = int(rng.integers(1, 40))
        # few distinct scores make ties common; false positives carry a
        # similarity the metrics must ignore
        scores = rng.integers(0, 6, n) / 5.0 if trial % 2 else rng.uniform(size=n)
        matches = [
            (float(s), bool(t), float(o), 0.5)
            for s, t, o in zip(scores, rng.uniform(size=n) < 0.6, rng.uniform(size=n))
        ]
        n_tp = sum(is_tp for _, is_tp, _, _ in matches)
        # every fifth list has fewer ground truths than true positives
        n_gt = max(1, n_tp - 2 if trial % 5 == 0 else int(rng.integers(n_tp, n_tp + 6)))
        ap = average_precision(_columns(matches), n_gt, recall_points)
        aos, os_score = aos_and_os(_columns(matches), n_gt, recall_points)
        assert (ap, aos, os_score) == _ap_aos_os_loop(matches, n_gt, recall_points)


def test_recall_grid_variants():
    assert len(RECALL_POINTS_11) == 11
    assert len(RECALL_POINTS_40) == 40
    assert RECALL_POINTS_40[0] == pytest.approx(1 / 40)
    assert RECALL_POINTS_40[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# dimension error


def _dim_error(detections, ground_truths):
    """dimension_error of one frame of Box3Ds."""
    return float(dimension_error(_table(detections), [0, len(detections)],
                                 _table(ground_truths), [0, len(ground_truths)])[0])


def test_dimension_error_exact_dims():
    gts = [_box(z=10.0), _box(z=30.0)]
    dets = [_box(z=10.2), _box(z=29.5)]
    assert _dim_error(dets, gts) == 0.0


def test_dimension_error_3_4_5():
    gt = [_box(z=10.0)]
    det = [Box3D(np.array([0.0, 0.0, 10.5]), Dimensions(1.0 + 0.4, 1.0 + 0.3, 1.0), 0.0)]
    assert _dim_error(det, gt) == pytest.approx(0.5)


def test_dimension_error_matches_closest_gt():
    gts = [_box(z=10.0, h=2.0), _box(z=40.0, h=1.0)]
    det = [_box(z=38.0, h=1.0)]  # closest gt is the far one: zero error
    assert _dim_error(det, gts) == pytest.approx(0.0)


def _dimension_error_loop(detections, ground_truths):
    """Reference: the per-pair loop dimension_error replaced."""
    total = 0.0
    for det in detections:
        gt = min(ground_truths, key=lambda g: float(np.linalg.norm(g.location - det.location)))
        total += math.sqrt(
            (det.dims.w - gt.dims.w) ** 2
            + (det.dims.h - gt.dims.h) ** 2
            + (det.dims.l - gt.dims.l) ** 2
        )
    return total / len(detections)


def test_dimension_error_matches_loop_reference():
    rng = np.random.default_rng(8)
    for trial in range(200):
        def boxes(n):
            return [
                _box(*rng.uniform(-20.0, 20.0, 3), *rng.uniform(0.5, 5.0, 3), rng.uniform(-3.0, 3.0))
                for _ in range(n)
            ]
        gts = boxes(int(rng.integers(1, 8)))
        if trial % 4 == 0:  # exact ties: the first of two ground truths at one center wins
            twin = gts[0]
            gts.append(Box3D(twin.location.copy(), Dimensions(9.0, 9.0, 9.0), twin.yaw))
        dets = boxes(int(rng.integers(1, 8))) + [_box(*gts[0].location)]
        assert _dim_error(dets, gts) == pytest.approx(_dimension_error_loop(dets, gts), rel=1e-12)


def test_dimension_error_of_a_frame_without_ground_truth_is_nan():
    assert math.isnan(_dim_error([_box()], []))
    assert math.isnan(_dim_error([], [_box()]))


def _dimension_error_frame(detections, ground_truths) -> float:
    """Reference: the per-frame dimension_error the run-level pass replaced,
    on two LabelTables."""
    if not len(ground_truths):
        raise ValueError("no ground truth to match against")
    if not len(detections):
        return 0.0
    with np.errstate(all="ignore"):
        diff = detections.location[:, None, :] - ground_truths.location[None, :, :]
        closest = (diff * diff).sum(axis=2).argmin(axis=1)  # D x G squared center distances
        err = detections.dims - ground_truths.dims[closest]
        return float(np.sqrt((err * err).sum(axis=1)).sum()) / len(detections)


def _assert_dimension_errors_equal_per_frame_reference(frames):
    """The run-level means of (detections, ground truths) frames of label
    rows equal the per-frame reference bit for bit; NaN for a frame with no
    detection or no ground truth."""
    def table(rows):
        return LabelTable([[0.0] * 7 + [h, w, l, x, y, z, 0.0, math.nan] for x, y, z, h, w, l in rows])

    dets, gts = [table(ds) for ds, _ in frames], [table(gs) for _, gs in frames]
    det_offsets = np.cumsum([0, *map(len, dets)])
    gt_offsets = np.cumsum([0, *map(len, gts)])
    means = dimension_error(LabelTable.concatenate([table([]), *dets]), det_offsets,
                            LabelTable.concatenate([table([]), *gts]), gt_offsets)
    assert means.shape == (len(frames),)
    for got, d, g in zip(means.tolist(), dets, gts):
        want = _dimension_error_frame(d, g) if len(d) and len(g) else math.nan
        assert _same(got, want), (got, want)


@st.composite
def _dimension_error_run(draw):
    """Frames of (x, y, z, h, w, l) detection and ground-truth rows:
    detection counts on both sides of numpy's 8-term pairwise block, frames
    without detections or without ground truth, dims of spread magnitudes,
    and in some frames centres tied exactly, centres equidistant but for
    rounding (one offset with its components permuted), a NaN centre, or a
    dimension whose square overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for _ in range(draw(st.integers(0, 6))):
        n_det, n_gt = draw(st.sampled_from([0, 1, 2, 3, 7, 8, 9, 12, 17])), draw(st.sampled_from([0, 1, 2, 4]))
        dets, gts = (np.column_stack([rng.uniform(-50.0, 50.0, (n, 3)), 10.0 ** rng.uniform(-3.0, 3.0, (n, 3))])
                     for n in (n_det, n_gt))
        kind = draw(st.sampled_from(["plain", "tied", "permuted", "nan", "overflow"]))
        if kind == "tied" and n_gt > 1:
            gts[1, :3] = gts[0, :3]
        elif kind == "permuted" and n_det and n_gt > 1:
            offset = rng.uniform(-5.0, 5.0, 3)
            gts[0, :3], gts[1, :3] = dets[0, :3] + offset, dets[0, :3] + offset[[2, 0, 1]]
        elif kind == "nan" and n_det and n_gt:
            rows = dets if rng.uniform() < 0.5 else gts
            rows[rng.integers(len(rows)), rng.integers(3)] = math.nan
        elif kind == "overflow" and n_det and n_gt:
            rows = dets if rng.uniform() < 0.5 else gts
            rows[rng.integers(len(rows)), 3 + rng.integers(3)] = draw(st.sampled_from([1e200, 1e300]))
        frames.append((dets.tolist(), gts.tolist()))
    return frames


@given(frames=_dimension_error_run(), budget=st.sampled_from([1, 6, 40, metrics.PAIR_BUDGET]))
@settings(max_examples=300, deadline=None)
def test_run_dimension_error_equals_per_frame_reference(frames, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "PAIR_BUDGET", budget)
        _assert_dimension_errors_equal_per_frame_reference(frames)


def test_run_dimension_error_equals_per_frame_reference_on_a_random_run():
    # crowded frames of up to 35 detections, empty frames, and one frame over
    # the block budget; some dims overflow when squared
    rows = []
    for ds, gs in _random_run(14):
        rows.append(tuple([(*b.location.tolist(), b.dims.h, b.dims.w, b.dims.l) for b in boxes]
                          for boxes in ([b for b, _ in ds], gs)))
    rows[3] = (rows[3][0], [(*g[:3], 1e200, *g[4:]) for g in rows[3][1]])
    rows[5] = ([(*d[:3], d[3], 1e300, d[5]) for d in rows[5][0]], rows[5][1])
    assert max(len(ds) * len(gs) for ds, gs in rows) > metrics.PAIR_BUDGET
    assert max(len(ds) for ds, gs in rows if gs) >= 8
    _assert_dimension_errors_equal_per_frame_reference(rows)


# ---------------------------------------------------------------------------
# difficulty gates


def test_difficulty_gates():
    assert passes_difficulty(45.0, 0, 0.1, "easy")
    assert not passes_difficulty(30.0, 0, 0.1, "easy")
    assert passes_difficulty(30.0, 1, 0.2, "moderate")
    assert not passes_difficulty(30.0, 2, 0.2, "moderate")
    assert passes_difficulty(30.0, 2, 0.5, "hard")
    assert passes_difficulty(5.0, 3, 0.9, "all")
