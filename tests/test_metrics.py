import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box3d.camera import Box3D, Dimensions
from box3d.kitti_io import LabelTable
from box3d.metrics import (
    MatchedDetection,
    RECALL_POINTS_11,
    RECALL_POINTS_40,
    _clipped_area,
    aos_and_os,
    average_precision,
    bev_corners,
    dimension_error,
    iou_3d,
    match_frame,
    may_intersect,
    orientation_similarity,
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


def _match(detections, ground_truths, iou_threshold):
    """match_frame on (Box3D, score) pairs and Box3Ds."""
    return match_frame(_table([b for b, _ in detections], [s for _, s in detections]), _table(ground_truths),
                       iou_threshold)


def _mc_iou(a, b, n=1_000_000, seed=0):
    """Monte-Carlo point-sampling oracle over the joint bounding region."""
    rng = np.random.default_rng(seed)

    def bounds(box):
        from box3d.camera import box_vertices

        v = box_vertices(box)
        return v.min(axis=0), v.max(axis=0)

    lo_a, hi_a = bounds(a)
    lo_b, hi_b = bounds(b)
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    pts = rng.uniform(lo, hi, size=(n, 3))

    def inside(box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        rel = pts - box.location
        ox = rel[:, 0] * c - rel[:, 2] * s
        oz = rel[:, 0] * s + rel[:, 2] * c
        return (
            (np.abs(ox) <= box.dims.l / 2)
            & (np.abs(oz) <= box.dims.w / 2)
            & (rel[:, 1] <= 0)
            & (rel[:, 1] >= -box.dims.h)
        )

    in_a = inside(a)
    in_b = inside(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


# ---------------------------------------------------------------------------
# rotated 3D IoU


def test_identical_boxes_full_overlap():
    a = _box(1.0, 2.0, 10.0, yaw=0.4)
    assert iou_3d(a, a) == pytest.approx(1.0)


def test_distant_boxes_zero():
    assert iou_3d(_box(), _box(x=100.0)) == 0.0


def test_unit_cubes_half_offset():
    assert iou_3d(_box(), _box(x=0.5)) == pytest.approx(1.0 / 3.0)


def test_vertical_offset_only():
    # y down, boxes span [y-h, y]: offset 0.25 leaves 0.75 overlap
    assert iou_3d(_box(), _box(y=0.25)) == pytest.approx(0.75 / 1.25)


def test_rotated_iou_against_monte_carlo():
    rng = np.random.default_rng(42)
    for trial in range(12):
        a = _box(
            h=rng.uniform(1, 2), w=rng.uniform(1, 2), l=rng.uniform(2, 5),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        b = _box(
            x=rng.uniform(-1.5, 1.5), y=rng.uniform(-0.5, 0.5), z=rng.uniform(-1.5, 1.5),
            h=rng.uniform(1, 2), w=rng.uniform(1, 2), l=rng.uniform(2, 5),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        assert iou_3d(a, b) == pytest.approx(_mc_iou(a, b, seed=trial), abs=0.01)


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
    assert iou_3d(a, b) == pytest.approx(iou_3d(b, a), abs=1e-12)


@given(
    shift=st.floats(min_value=-math.pi, max_value=math.pi),
    tx=st.floats(min_value=-20, max_value=20),
    tz=st.floats(min_value=-20, max_value=20),
)
@settings(max_examples=50)
def test_iou_rigid_motion_invariance(shift, tx, tz):
    a = _box(yaw=0.3, l=3.0)
    b = _box(x=0.8, z=0.4, yaw=-0.5, l=3.0)
    base = iou_3d(a, b)

    def moved(box):
        c, s = math.cos(shift), math.sin(shift)
        x, y, z = box.location
        return Box3D(
            np.array([x * c + z * s + tx, y, -x * s + z * c + tz]),
            box.dims,
            box.yaw + shift,
        )

    assert iou_3d(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


def test_bev_intersection_disjoint_is_zero():
    a, b = _box(), _box(x=5.0)
    corners_a, corners_b = (bev_corners((*c.location, c.dims.h, c.dims.w, c.dims.l, c.yaw)) for c in (a, b))
    assert _clipped_area(corners_a, corners_b) == 0.0
    assert iou_3d(a, b) == 0.0


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
    return [
        MatchedDetection(0.9, True, 0.0, 1.0),
        MatchedDetection(0.8, False, 0.0, 0.0),
        MatchedDetection(0.7, True, 1.0, 1.0),
        MatchedDetection(0.6, False, 0.0, 0.1),
        MatchedDetection(0.5, True, 0.5, 1.0),
    ]


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
    matches = [MatchedDetection(s, True, 1.0, 1.0) for s in (0.2, 0.9, 0.5)]
    assert average_precision(matches, 3) == pytest.approx(1.0)
    aos, os_score = aos_and_os(matches, 3)
    assert aos == pytest.approx(1.0)
    assert os_score == pytest.approx(1.0)


def test_no_detections_ap_zero():
    assert average_precision([], 3) == 0.0
    assert aos_and_os([], 3) == (0.0, 0.0)


def test_orientations_flipped_pi_gives_zero_os():
    matches = [MatchedDetection(s, True, 0.0, 1.0) for s in (0.9, 0.8)]
    aos, os_score = aos_and_os(matches, 2)
    assert aos == 0.0
    assert os_score == 0.0


def test_aos_never_exceeds_ap_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        matches = [
            MatchedDetection(
                float(rng.uniform()), bool(rng.uniform() < 0.7), float(rng.uniform()), 0.8
            )
            for _ in range(n)
        ]
        n_gt = int(rng.integers(1, 8))
        ap = average_precision(matches, n_gt)
        aos, _ = aos_and_os(matches, n_gt)
        assert aos <= ap + 1e-12


def test_metrics_order_invariance():
    rng = np.random.default_rng(2)
    matches = [
        MatchedDetection(float(s), bool(t), float(o), 0.9)
        for s, t, o in zip(rng.permutation(20) / 20.0, rng.uniform(size=20) < 0.6, rng.uniform(size=20))
    ]
    base_ap = average_precision(matches, 9)
    base_aos = aos_and_os(matches, 9)
    for _ in range(5):
        shuffled = [matches[i] for i in rng.permutation(len(matches))]
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
    flags = sorted(((m.score, m.is_tp) for m in matches), reverse=True)
    assert flags == [(0.9, True), (0.8, False), (0.7, True)]


def _match_frame_loop(detections, ground_truths, iou_threshold):
    """Reference: the per-pair greedy loop match_frame replaced."""
    order = sorted(range(len(detections)), key=lambda i: -detections[i][1])
    used = [False] * len(ground_truths)
    out = []
    for i in order:
        box, score = detections[i]
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(ground_truths):
            if used[j]:
                continue
            iou = iou_3d(box, gt)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= iou_threshold:
            used[best_j] = True
            out.append(
                MatchedDetection(
                    score, True, orientation_similarity(box.yaw, ground_truths[best_j].yaw), best_iou
                )
            )
        else:
            out.append(MatchedDetection(score, False, 0.0, best_iou))
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
    assert _match([], [_box()], iou_threshold) == []
    assert _match([(_box(), 0.5)], [], iou_threshold) == [MatchedDetection(0.5, False, 0.0, 0.0)]
    # a detection without a score counts 1.0
    assert match_frame(_table([_box()]), _table([]), iou_threshold) == [MatchedDetection(1.0, False, 0.0, 0.0)]


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
    if not may_intersect(_table([a]), _table([b]))[0, 0]:
        assert iou_3d(a, b) == 0.0
    assert may_intersect(_table([a]), _table([b]))[0, 0] == may_intersect(_table([b]), _table([a]))[0, 0]


def test_box_with_a_non_positive_dimension_never_intersects():
    # a DontCare row keeps its -1 placeholders; no such box overlaps another
    det = _table([_box(z=10.0)], [0.9])
    for k in range(3):
        for value in (0.0, -1.0):
            gt = _table([_box(z=10.0)])
            gt.dims[0, k] = value
            assert not may_intersect(det, gt)[0, 0] and not may_intersect(gt, det)[0, 0]
            assert match_frame(det, gt, 0.5) == [MatchedDetection(0.9, False, 0.0, 0.0)]


def test_match_frame_equal_iou_takes_first_ground_truth():
    # the first detection overlaps both ground truths by the same IoU; taking
    # the first leaves the second detection only its below-threshold IoU
    gts = [_box(x=-0.5, h=1.5, w=2.0, l=4.0), _box(x=0.5, h=1.5, w=2.0, l=4.0)]
    dets = [(_box(h=1.5, w=2.0, l=4.0), 0.9), (_box(x=-0.5, h=1.5, w=2.0, l=4.0), 0.8)]
    assert iou_3d(dets[0][0], gts[0]) == iou_3d(dets[0][0], gts[1]) == 10.5 / 13.5
    assert _match(dets, gts, 0.7) == [
        MatchedDetection(0.9, True, 1.0, 10.5 / 13.5),
        MatchedDetection(0.8, False, 0.0, 0.6),
    ]


def _ap_aos_os_loop(matches, n_gt, recall_points):
    """Reference: the per-rank and per-grid-point loops AP and AOS replaced."""
    if n_gt <= 0 or not matches:
        return 0.0, 0.0, 0.0
    recalls, precisions, sims = [], [], []
    tp, sim = 0, 0.0
    for rank, m in enumerate(sorted(matches, key=lambda m: -m.score), start=1):
        if m.is_tp:
            tp += 1
            sim += m.orientation_sim
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
            MatchedDetection(float(s), bool(t), float(o), 0.5)
            for s, t, o in zip(scores, rng.uniform(size=n) < 0.6, rng.uniform(size=n))
        ]
        n_tp = sum(m.is_tp for m in matches)
        # every fifth list has fewer ground truths than true positives
        n_gt = max(1, n_tp - 2 if trial % 5 == 0 else int(rng.integers(n_tp, n_tp + 6)))
        ap = average_precision(matches, n_gt, recall_points)
        aos, os_score = aos_and_os(matches, n_gt, recall_points)
        assert (ap, aos, os_score) == _ap_aos_os_loop(matches, n_gt, recall_points)


def test_recall_grid_variants():
    assert len(RECALL_POINTS_11) == 11
    assert len(RECALL_POINTS_40) == 40
    assert RECALL_POINTS_40[0] == pytest.approx(1 / 40)
    assert RECALL_POINTS_40[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# dimension error


def test_dimension_error_exact_dims():
    gts = [_box(z=10.0), _box(z=30.0)]
    dets = [_box(z=10.2), _box(z=29.5)]
    assert dimension_error(_table(dets), _table(gts)) == 0.0


def test_dimension_error_3_4_5():
    gt = [_box(z=10.0)]
    det = [Box3D(np.array([0.0, 0.0, 10.5]), Dimensions(1.0 + 0.4, 1.0 + 0.3, 1.0), 0.0)]
    assert dimension_error(_table(det), _table(gt)) == pytest.approx(0.5)


def test_dimension_error_matches_closest_gt():
    gts = [_box(z=10.0, h=2.0), _box(z=40.0, h=1.0)]
    det = [_box(z=38.0, h=1.0)]  # closest gt is the far one: zero error
    assert dimension_error(_table(det), _table(gts)) == pytest.approx(0.0)


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
        assert dimension_error(_table(dets), _table(gts)) == pytest.approx(_dimension_error_loop(dets, gts), rel=1e-12)


def test_dimension_error_empty_gt_raises():
    with pytest.raises(ValueError):
        dimension_error(_table([_box()]), _table([]))


# ---------------------------------------------------------------------------
# difficulty gates


def test_difficulty_gates():
    assert passes_difficulty(45.0, 0, 0.1, "easy")
    assert not passes_difficulty(30.0, 0, 0.1, "easy")
    assert passes_difficulty(30.0, 1, 0.2, "moderate")
    assert not passes_difficulty(30.0, 2, 0.2, "moderate")
    assert passes_difficulty(30.0, 2, 0.5, "hard")
    assert passes_difficulty(5.0, 3, 0.9, "all")
