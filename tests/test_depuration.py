import math
from dataclasses import fields
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box3d import depuration, metrics
from box3d.camera import Box2D, Box3D, CameraIntrinsics, Dimensions, box_iou_2d
from box3d.depuration import (
    DEFAULT_DEPURATION_CONFIG,
    DEFAULT_DEPURATION_CONFIG as CFG,
    DepurationConfig,
    RULE_ADJACENT_DEPTH,
    RULE_DIMS,
    RULE_HEIGHT_DEPTH,
    RULE_VERTICAL,
    RULES,
    VERDICTS,
    Verdict,
    depurate,
    pair_rules,
)
from box3d.kitti_io import LabelTable
from box3d.properties import ClassPrior
from box3d.synthetic import SyntheticSceneSpec, exact_box2d, generate_scene

K = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
CAR = Dimensions(1.52, 1.64, 3.86)


def _ground_object(x, z, yaw=0.2, dims=CAR, y=1.65):
    b = Box3D(np.array([x, y, z]), dims, yaw)
    return (exact_box2d(b, K), b)


def _table(scene):
    """The label rows of a scene of (Box2D, Box3D) pairs."""
    return LabelTable(
        [[0.0, 0.0, 0.0, *b2, b3.dims.h, b3.dims.w, b3.dims.l, *b3.location, b3.yaw, math.nan] for b2, b3 in scene],
        ["Car"] * len(scene),
    )


def _label(u0, v0, u1, v1, h, y, z, w=1.64, l=3.86):
    return [0.0, 0.0, 0.0, u0, v0, u1, v1, h, w, l, 0.0, y, z, 0.0, 0.0]


def _pairs(table):
    """(Box2D, Box3D) of each label row."""
    return [(Box2D(*box), Box3D(location, Dimensions(*dims), yaw))
            for box, dims, location, yaw in zip(table.box.tolist(), table.dims.tolist(), table.location, table.yaw)]


def _synthetic_scene(seed, n=4):
    gt, _, _ = generate_scene(
        SyntheticSceneSpec(n_objects_min=n, n_objects_max=n, seed=seed, dims_sigma=0.05)
    )
    return _pairs(gt.objects)


def _fails(rule, scene):
    return [rule in v.violated_rules for v in depurate(_table(scene), K.fv, CFG)]


# the rules' constants, at their values in depuration
RULE_CONSTANTS = {name: getattr(depuration, name) for name in (
    "CAR_PRIOR", "DIM_TOLERANCE", "HEIGHT_MONOTONIC_EPS", "ADJACENCY_IOU_MIN", "DEPTH_GAP_MAX")}


def _constants(**values):
    """The rules' constants, with the given ones in place of depuration's."""
    return {**RULE_CONSTANTS, **values}


# (config, rule constants): the defaults; a narrower adjacency, a smaller
# depth gap and no height band; the same with a narrow dims band around a
# shorter car; and bands whose lower edges are 0, so that -0.0 and 0.0 sit on
# them
CFGS = [(CFG, _constants()),
        (CFG, _constants(ADJACENCY_IOU_MIN=0.2, DEPTH_GAP_MAX=3.0, HEIGHT_MONOTONIC_EPS=0.0)),
        (CFG, _constants(ADJACENCY_IOU_MIN=0.2, DEPTH_GAP_MAX=3.0, HEIGHT_MONOTONIC_EPS=0.0,
                         CAR_PRIOR=ClassPrior("Car", Dimensions(1.52, 1.64, 3.5)), DIM_TOLERANCE=0.05)),
        (DepurationConfig(vertical_centers=(0.5, 1.0), vertical_slack=0.5), _constants(DIM_TOLERANCE=1.0))]


def _edges(cfg, constants):
    """A case's band edges, as depurate computes them: those of h, w and l,
    then those of the bottom-face Y."""
    mean, tolerance = constants["CAR_PRIOR"].mean_dims, constants["DIM_TOLERANCE"]
    return [*([m * (1.0 - tolerance), m * (1.0 + tolerance)] for m in (mean.h, mean.w, mean.l)),
            [min(cfg.vertical_centers) - cfg.vertical_slack, max(cfg.vertical_centers) + cfg.vertical_slack]]


# per column (h, w, l, bottom-face Y): values that no band holds or that sit
# on the edge of a band of CFGS
ODD_VALUES = [[math.nan, math.inf, -math.inf, -0.0, 0.0, *(edge for case in CFGS for edge in _edges(*case)[k])]
              for k in range(4)]


# ---------------------------------------------------------------------------
# reference: one function per rule, each pair rule with its own pair loop


def _depurate_loop(table, fv, cfg):
    """(kept, violated rules, hard violation) per row of a LabelTable, under
    depuration's rule constants as they are at the call."""
    boxes, dims, location = table.box.tolist(), table.dims.tolist(), table.location.tolist()
    n = len(boxes)
    mean_dims = depuration.CAR_PRIOR.mean_dims

    def dims_ok(d):
        lo, hi = 1.0 - depuration.DIM_TOLERANCE, 1.0 + depuration.DIM_TOLERANCE
        for value, mean in zip(d, (mean_dims.h, mean_dims.w, mean_dims.l)):
            if not mean * lo <= value <= mean * hi:
                return False
        return True

    def vertical_ok(y):
        return (min(cfg.vertical_centers) - cfg.vertical_slack <= y
                <= max(cfg.vertical_centers) + cfg.vertical_slack)

    height = [v_max - v_min for _, v_min, _, v_max in boxes]
    center_u = [0.5 * (u_min + u_max) for u_min, _, u_max, _ in boxes]
    height_depth_ok = [True] * n
    residual = [abs(h * p[2] - fv * d[0]) for h, p, d in zip(height, location, dims)]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(dims[i][0] - dims[j][0]) > depuration.HEIGHT_MONOTONIC_EPS:
                continue
            if location[i][2] > location[j][2]:
                far, near = i, j
            elif location[j][2] > location[i][2]:
                far, near = j, i
            else:
                continue
            if height[far] >= height[near]:
                height_depth_ok[far if residual[far] >= residual[near] else near] = False

    adjacent_ok = [True] * n
    for i in range(n):
        left_gaps, right_gaps = [], []
        for j in range(n):
            if j == i:
                continue
            if box_iou_2d(boxes[i], boxes[j]) <= depuration.ADJACENCY_IOU_MIN:
                continue
            gap = abs(location[i][2] - location[j][2])
            if center_u[j] < center_u[i]:
                left_gaps.append(gap)
            elif center_u[j] > center_u[i]:
                right_gaps.append(gap)
        if left_gaps and right_gaps:
            if min(left_gaps) > depuration.DEPTH_GAP_MAX and min(right_gaps) > depuration.DEPTH_GAP_MAX:
                adjacent_ok[i] = False

    out = []
    for i in range(n):
        violated = set()
        if not dims_ok(dims[i]):
            violated.add(RULE_DIMS)
        if not vertical_ok(location[i][1]):
            violated.add(RULE_VERTICAL)
        if not height_depth_ok[i]:
            violated.add(RULE_HEIGHT_DEPTH)
        if not adjacent_ok[i]:
            violated.add(RULE_ADJACENT_DEPTH)
        hard = RULE_VERTICAL in violated
        out.append((not hard and len(violated - {RULE_VERTICAL}) < 2, frozenset(violated), hard))
    return out


def _as_tuples(verdicts):
    return [(v.kept, v.violated_rules, v.hard_violation) for v in verdicts]


def _odd(rng, value, k):
    """value, or one time in ten a value of column k of ODD_VALUES."""
    pool = ODD_VALUES[k]
    return pool[int(rng.integers(len(pool)))] if rng.random() < 0.1 else value


def _crowded_scene(rng):
    """A LabelTable of a frame of 2-30 objects whose depths, heights,
    bottom-face Ys and 2D centres often tie, with exact copies, edge-touching
    2D boxes and objects on the vertical band's edges, and whose dimensions
    and bottom-face Ys are sometimes NaN, infinite, -0.0 or on a band's edge."""
    rows = []
    for _ in range(int(rng.integers(2, 31))):
        if rows and rng.random() < 0.1:
            rows.append(rows[int(rng.integers(len(rows)))])
            continue
        z = float(rng.choice([12.0, 20.0, 40.0])) if rng.random() < 0.5 else float(rng.uniform(5.0, 60.0))
        h = float(rng.choice([1.52, 1.6, 1.82])) if rng.random() < 0.5 else float(rng.uniform(0.6, 2.5))
        y = float(rng.choice([1.65, 0.53842871, 2.9684, -1.0])) if rng.random() < 0.4 else float(rng.uniform(0.0, 3.5))
        w, l = float(rng.uniform(0.7, 2.5)), float(rng.uniform(1.8, 6.0))
        cu = float(rng.choice([500.0, 600.0, 700.0])) if rng.random() < 0.5 else float(rng.uniform(300.0, 900.0))
        half_w = float(rng.choice([50.0, 100.0])) if rng.random() < 0.5 else float(rng.uniform(5.0, 200.0))
        v_max = float(rng.uniform(180.0, 370.0))
        height_px = float(rng.choice([40.0, 80.0])) if rng.random() < 0.5 else float(rng.uniform(5.0, 250.0))
        rows.append(_label(cu - half_w, v_max - height_px, cu + half_w, v_max, _odd(rng, h, 0), _odd(rng, y, 3), z,
                           _odd(rng, w, 1), _odd(rng, l, 2)))
    return LabelTable(rows, ["Car"] * len(rows))


def test_depurate_equals_the_per_rule_loops_on_crowded_scenes():
    rng = np.random.default_rng(6)
    for k in range(300):
        table, (cfg, constants) = _crowded_scene(rng), CFGS[k % len(CFGS)]
        with patch.multiple(depuration, **constants):
            assert _as_tuples(depurate(table, K.fv, cfg)) == _depurate_loop(table, K.fv, cfg)
    for seed in range(20):
        table = _table(_synthetic_scene(seed, n=6))
        assert _as_tuples(depurate(table, K.fv, CFG)) == _depurate_loop(table, K.fv, CFG)


# ---------------------------------------------------------------------------
# reference: the depurate of one pair visit with a gap list per row and side,
# before it kept running minimum gaps; verbatim but for its name and for
# reading the rule constants of depuration at the call in place of config
# fields


def _depurate_parent(table, camera: CameraIntrinsics,
                     cfg: DepurationConfig = DEFAULT_DEPURATION_CONFIG):
    boxes, dims, location = table.box.tolist(), table.dims.tolist(), table.location.tolist()
    n = len(boxes)
    height = [v_max - v_min for _, v_min, _, v_max in boxes]
    center_u = [0.5 * (u_min + u_max) for u_min, _, u_max, _ in boxes]
    z = [p[2] for p in location]
    residual = [abs(height[i] * z[i] - camera.fv * dims[i][0]) for i in range(n)]
    blamed = set()
    left_gaps = [[] for _ in range(n)]
    right_gaps = [[] for _ in range(n)]
    for i in range(n):
        box_i, zi, hi, ui = boxes[i], z[i], dims[i][0], center_u[i]
        for j in range(i + 1, n):
            zj = z[j]
            if box_iou_2d(box_i, boxes[j]) > depuration.ADJACENCY_IOU_MIN:
                gap = abs(zi - zj)
                if center_u[j] < ui:
                    left_gaps[i].append(gap)
                    right_gaps[j].append(gap)
                elif center_u[j] > ui:
                    right_gaps[i].append(gap)
                    left_gaps[j].append(gap)
            if abs(hi - dims[j][0]) > depuration.HEIGHT_MONOTONIC_EPS:
                continue
            if zi > zj:
                far, near = i, j
            elif zj > zi:
                far, near = j, i
            else:
                continue
            if height[far] >= height[near]:
                blamed.add(far if residual[far] >= residual[near] else near)

    lo, hi = 1.0 - depuration.DIM_TOLERANCE, 1.0 + depuration.DIM_TOLERANCE
    mean_dims = depuration.CAR_PRIOR.mean_dims
    dim_bands = [(m * lo, m * hi) for m in (mean_dims.h, mean_dims.w, mean_dims.l)]
    y_lo = min(cfg.vertical_centers) - cfg.vertical_slack
    y_hi = max(cfg.vertical_centers) + cfg.vertical_slack
    verdicts = []
    for i in range(n):
        violated = set()
        if not all(low <= v <= high for (low, high), v in zip(dim_bands, dims[i])):
            violated.add(RULE_DIMS)
        if not y_lo <= location[i][1] <= y_hi:
            violated.add(RULE_VERTICAL)
        if i in blamed:
            violated.add(RULE_HEIGHT_DEPTH)
        left, right = left_gaps[i], right_gaps[i]
        if left and right and min(left) > depuration.DEPTH_GAP_MAX and min(right) > depuration.DEPTH_GAP_MAX:
            violated.add(RULE_ADJACENT_DEPTH)
        verdicts.append(Verdict(frozenset(violated)))
    return verdicts


# rule constants, each with the default config: the defaults, then every
# combination of an adjacency IoU at 0, inside (0, 1) and at 1, a depth gap
# at 0 and at 3 m, and a height band at the default and at 0
PROPERTY_CFGS = [_constants()] + [
    _constants(ADJACENCY_IOU_MIN=iou, DEPTH_GAP_MAX=gap, HEIGHT_MONOTONIC_EPS=eps)
    for iou in (0.0, 0.2, 1.0) for gap in (0.0, 3.0) for eps in (depuration.HEIGHT_MONOTONIC_EPS, 0.0)]


def _tied(pool, low, high):
    """A value of the pool, so that rows tie, or any value in [low, high]."""
    return st.sampled_from(pool) | st.floats(low, high)


# label rows of small pools, so that boxes coincide, touch, share a centre u
# or have no area, heights are exactly the default band apart (0.3 and 0.6),
# dimensions sit on their band edges and depths are exactly 3 m apart (10 and
# 13); or one of a few rows that tie on purpose: two of the same 3D height
# whose blame residuals tie at 2 when fv = 1, and two overlapping rows of
# centre u 150 at different depths with a third overlapping both from the left
_label_row = st.sampled_from([
    _label(100.0, 100.0, 200.0, 102.0, 18.0, 1.65, 8.0),
    _label(150.0, 100.0, 250.0, 102.0, 18.0, 1.65, 10.0),
    _label(120.0, 90.0, 180.0, 190.0, 1.5, 1.65, 20.0),
    _label(100.0, 100.0, 200.0, 200.0, 1.5, 1.65, 40.0),
    _label(50.0, 100.0, 150.0, 200.0, 1.5, 1.65, 10.0),
]) | st.builds(
    lambda u0, du, v0, dv, h, y, z, w, l: _label(u0, v0, u0 + du, v0 + dv, h, y, z, w, l),
    _tied([100.0, 150.0, 200.0], 0.0, 1000.0),
    _tied([0.0, 50.0, 100.0], -20.0, 300.0),
    _tied([100.0, 150.0], 0.0, 370.0),
    _tied([0.0, 2.0, 50.0, 100.0], -20.0, 300.0),
    _tied([0.3, 0.6, 1.2, 1.5, 18.0, *_edges(*CFGS[0])[0]], 0.3, 2.5),
    _tied([1.65, -1.0, 0.53842871, 2.9684], -2.0, 4.0),
    _tied([8.0, 10.0, 13.0, 20.0, 40.0], 1.0, 80.0),
    _tied([CAR.w, *_edges(*CFGS[0])[1]], 0.5, 3.0),
    _tied([CAR.l, *_edges(*CFGS[0])[2]], 1.5, 6.0),
)


@given(
    rows=st.lists(_label_row, min_size=1, max_size=40),
    picks=st.lists(st.integers(0, 39), max_size=40),
    fv=st.sampled_from([1.0, K.fv]),
)
@settings(max_examples=150, deadline=None)
def test_depurate_equals_the_gap_list_depurate(rows, picks, fv):
    # a frame of 0-40 of the drawn rows, picked with repeats: exact duplicates
    table = LabelTable([rows[k % len(rows)] for k in picks], ["Car"] * len(picks))
    camera = CameraIntrinsics(fv, fv, 609.5593, 172.854)
    for constants in PROPERTY_CFGS:
        with patch.multiple(depuration, **constants):
            assert depurate(table, fv, CFG) == _depurate_parent(table, camera, CFG)


def _run(frames):
    """One LabelTable of a run's frames of label rows, and its row offsets."""
    rows = [row for frame in frames for row in frame]
    return LabelTable(rows, ["Car"] * len(rows)), np.cumsum([0] + [len(frame) for frame in frames])


def _run_verdicts(frames, fvs, cfg):
    """depurate of each frame of a run, fed its slice of one pair_rules pass."""
    labels, offsets = _run(frames)
    rules = pair_rules(labels, offsets, np.repeat(fvs, np.diff(offsets)), cfg)
    return [depurate(labels[a:b], fv, cfg, [r[a:b] for r in rules])
            for a, b, fv in zip(offsets[:-1], offsets[1:], fvs)]


@pytest.mark.parametrize("budget", [1, metrics.PAIR_BUDGET])
def test_pair_rules_over_a_run_give_the_per_frame_verdicts(monkeypatch, budget):
    """A run of crowded frames, with 0-row and 1-row frames and one frame of
    more pairs than the default budget, at a budget of one pair and at the
    default, under each of CFGS: each frame's verdicts from its slice of the
    run's pass are the frame's own, and both references'.  One frame holds
    every value of ODD_VALUES in each dimension and in the bottom-face Y."""
    monkeypatch.setattr(metrics, "PAIR_BUDGET", budget)
    rng = np.random.default_rng(11)
    frames = [_crowded_scene(rng).data.tolist() for _ in range(12)]
    big = []
    while len(big) < 100:
        big += _crowded_scene(rng).data.tolist()
    # a frame whose r-th row holds the r-th value of ODD_VALUES in each column
    odd = [list(row) for row in big[:len(ODD_VALUES[0])]]
    for k, column in enumerate((7, 8, 9, 11)):
        for row, value in zip(odd, ODD_VALUES[k], strict=True):
            row[column] = value
    frames += [[], [frames[0][0]], big, [], [frames[1][0]], odd]
    frames = [frames[k] for k in rng.permutation(len(frames))]
    assert len(big) * (len(big) - 1) // 2 > metrics.PAIR_BUDGET or budget == 1
    fvs = rng.choice([1.0, K.fv, 2.0 * K.fv], len(frames))
    for cfg, constants in CFGS:
        with patch.multiple(depuration, **constants):
            got = _run_verdicts(frames, fvs, cfg)
            for frame, fv, verdicts in zip(frames, fvs, got):
                table = LabelTable(frame, ["Car"] * len(frame))
                assert verdicts == depurate(table, fv, cfg)
                assert verdicts == _depurate_parent(table, CameraIntrinsics(fv, fv, 609.5593, 172.854), cfg)
                assert _as_tuples(verdicts) == _depurate_loop(table, fv, cfg)
    # the frames' rows would pair across frames: as one frame, they judge otherwise
    labels, _ = _run(frames)
    assert depurate(labels, K.fv, CFG) != [v for verdicts in _run_verdicts(frames, [K.fv] * len(frames), CFG)
                                           for v in verdicts]


# depths that are NaN, infinite or tie, and 3D heights that are NaN
_odd_label_row = st.builds(
    lambda row, z, h: row[:7] + [h] + row[8:12] + [z] + row[13:],
    _label_row,
    st.sampled_from([math.nan, math.inf, -math.inf, 10.0, 13.0]) | st.floats(1.0, 80.0),
    st.sampled_from([math.nan, 1.5]) | st.floats(0.3, 2.5),
)


@given(
    frames=st.lists(st.lists(_odd_label_row, max_size=12), min_size=1, max_size=5),
    fv=st.sampled_from([1.0, K.fv]),
    budget=st.sampled_from([1, 7, metrics.PAIR_BUDGET]),
)
@settings(max_examples=150, deadline=None)
def test_pair_rules_keep_the_gap_list_rules_on_nan_and_infinite_depths(frames, fv, budget):
    """A gap is the first of a row's gaps unless a later one is smaller, so a
    row whose first adjacent neighbour's gap is NaN keeps a NaN gap."""
    camera = CameraIntrinsics(fv, fv, 609.5593, 172.854)
    with patch.object(metrics, "PAIR_BUDGET", budget):
        for constants in PROPERTY_CFGS[:5]:
            with patch.multiple(depuration, **constants):
                got = _run_verdicts(frames, [fv] * len(frames), CFG)
                assert got == [_depurate_parent(LabelTable(frame, ["Car"] * len(frame)), camera, CFG)
                               for frame in frames]


def test_each_rule_bit_pattern_is_the_verdict_of_its_rules():
    """depurate gives row k the Verdict of bit pattern k of pair_rules' last
    column: the rules RULES[b] of its set bits b, removed by vertical alone
    or by any two rules, and a hard violation exactly when vertical is set."""
    assert RULES == (RULE_DIMS, RULE_VERTICAL, RULE_HEIGHT_DEPTH, RULE_ADJACENT_DEPTH)
    table = LabelTable([_label(0.0, 0.0, 1.0, 1.0, 1.5, 1.65, 10.0)] * 16, ["Car"] * 16)
    pairs = [np.full(16, -1.0), np.full(16, -1.0), np.arange(16)]
    verdicts = depurate(table, K.fv, CFG, pairs)
    assert verdicts == list(VERDICTS)
    for bits, v in enumerate(verdicts):
        assert v == Verdict(frozenset(rule for b, rule in enumerate(RULES) if bits >> b & 1))
        assert v.kept == (bits in (0b0000, 0b0001, 0b0100, 0b1000))
        assert v.hard_violation == bool(bits & 0b0010)


def test_empty_scene_has_no_verdicts():
    assert depurate(_table([]), K.fv, CFG) == []


# ---------------------------------------------------------------------------
# rule 1: dimensions


def _alone(dims=CAR, y=1.65):
    return [_ground_object(0.0, 20.0, dims=dims, y=y)]


def test_mean_dims_pass():
    assert _fails(RULE_DIMS, _alone(CAR)) == [False]


def test_extreme_dims_fail():
    assert _fails(RULE_DIMS, _alone(Dimensions(5.0, 5.0, 20.0))) == [True]


def test_dims_boundary_inclusive_then_exclusive():
    assert _fails(RULE_DIMS, _alone(Dimensions(1.52 * 1.5, 1.64, 3.86))) == [False]
    assert _fails(RULE_DIMS, _alone(Dimensions(1.52 * 1.5 + 1e-9, 1.64, 3.86))) == [True]
    assert _fails(RULE_DIMS, _alone(Dimensions(1.52 * 0.5, 1.64, 3.86))) == [False]
    assert _fails(RULE_DIMS, _alone(Dimensions(1.52 * 0.5 - 1e-9, 1.64, 3.86))) == [True]
    assert _fails(RULE_DIMS, _alone(Dimensions(1.52, 1.64 * 1.5 + 1e-9, 3.86))) == [True]
    assert _fails(RULE_DIMS, _alone(Dimensions(1.52, 1.64, 3.86 * 0.5 - 1e-9))) == [True]


# ---------------------------------------------------------------------------
# rule 2: vertical location


def test_camera_height_level_passes():
    assert _fails(RULE_VERTICAL, _alone(y=1.65)) == [False]


def test_sky_box_fails():
    assert _fails(RULE_VERTICAL, _alone(y=-3.0)) == [True]


def test_vertical_boundary():
    # [min(centers) - slack, max(centers) + slack] = [0.53842871, 2.9684]
    assert _fails(RULE_VERTICAL, _alone(y=2.968)) == [False]
    assert _fails(RULE_VERTICAL, _alone(y=2.969)) == [True]
    assert _fails(RULE_VERTICAL, _alone(y=0.539)) == [False]
    assert _fails(RULE_VERTICAL, _alone(y=0.538)) == [True]


# ---------------------------------------------------------------------------
# rule 3: projected height vs depth


def test_pinhole_consistent_pair_passes():
    scene = [_ground_object(0.0, 10.0), _ground_object(3.0, 40.0)]
    assert _fails(RULE_HEIGHT_DEPTH, scene) == [False, False]


def test_far_object_with_larger_projected_height_blamed():
    near = _ground_object(0.0, 10.0)
    far_box2d, far_box3d = _ground_object(3.0, 40.0)
    # corrupt the far detection's 2D box to be taller than the near one
    corrupted = Box2D(far_box2d.u_min, far_box2d.v_min - 200.0, far_box2d.u_max, far_box2d.v_max)
    assert _fails(RULE_HEIGHT_DEPTH, [near, (corrupted, far_box3d)]) == [False, True]


def test_single_object_passes_vacuously():
    assert _fails(RULE_HEIGHT_DEPTH, [_ground_object(0.0, 15.0)]) == [False]


def test_equal_residuals_blame_the_far_object():
    # fv = 1: both residuals |2*Z - 18| are exactly 2
    camera = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
    tall = Dimensions(18.0, 1.64, 3.86)
    near = (Box2D(0.0, 0.0, 1.0, 2.0), Box3D(np.array([0.0, 1.65, 8.0]), tall, 0.0))
    far = (Box2D(5.0, 0.0, 6.0, 2.0), Box3D(np.array([0.0, 1.65, 10.0]), tall, 0.0))
    for scene in ([near, far], [far, near]):
        blamed = [RULE_HEIGHT_DEPTH in v.violated_rules for v in depurate(_table(scene), camera.fv, CFG)]
        assert blamed == [v is far for v in scene]


def test_different_heights_not_compared():
    tall = _ground_object(0.0, 40.0, dims=Dimensions(3.0, 1.64, 3.86))
    short = _ground_object(3.0, 10.0)
    assert _fails(RULE_HEIGHT_DEPTH, [tall, short]) == [False, False]


# ---------------------------------------------------------------------------
# rule 4: adjacent depth


def test_no_overlap_passes():
    scene = [_ground_object(-8.0, 20.0), _ground_object(8.0, 20.0)]
    assert _fails(RULE_ADJACENT_DEPTH, scene) == [False, False]


def test_far_object_between_two_near_neighbors_fails():
    left = _ground_object(-2.2, 12.0)
    right = _ground_object(2.2, 12.0)
    middle = _ground_object(0.0, 40.0)  # overlaps both in 2D, 28 m away
    assert _fails(RULE_ADJACENT_DEPTH, [left, middle, right]) == [False, True, False]
    # the same scene in another order: each pair is visited once, from either end
    assert _fails(RULE_ADJACENT_DEPTH, [middle, right, left]) == [True, False, False]


def test_one_sided_overlap_passes_regardless_of_gap():
    left = _ground_object(-3.4, 12.0)
    obj = _ground_object(0.0, 40.0)
    # ensure they overlap and nothing sits to the right of obj
    assert _fails(RULE_ADJACENT_DEPTH, [left, obj]) == [False, False]


# ---------------------------------------------------------------------------
# co-determination


def test_clean_synthetic_scene_all_kept():
    # exact scenes may trip one soft rule (projected-height distortion from
    # yaw, or genuinely isolated-depth overlaps) but never lose an object
    for seed in range(20):
        scene = _synthetic_scene(seed)
        verdicts = depurate(_table(scene), K.fv, CFG)
        assert all(v.kept for v in verdicts)
        assert all(not v.hard_violation for v in verdicts)


def test_sky_box_removed_on_hard_rule_alone():
    scene = _synthetic_scene(1)
    sky = Box3D(np.array([0.0, -3.0, 25.0]), CAR, 0.3)
    scene.append((exact_box2d(sky, K), sky))
    verdicts = depurate(_table(scene), K.fv, CFG)
    assert not verdicts[-1].kept
    assert verdicts[-1].hard_violation
    assert RULE_VERTICAL in verdicts[-1].violated_rules
    assert all(v.kept for v in verdicts[:-1])


def test_single_soft_violation_kept():
    scene = _synthetic_scene(2)
    weird_dims = Box3D(np.array([5.0, 1.65, 30.0]), Dimensions(0.5, 0.5, 1.0), 0.1)
    scene.append((exact_box2d(weird_dims, K), weird_dims))
    verdicts = depurate(_table(scene), K.fv, CFG)
    assert verdicts[-1].violated_rules == frozenset({RULE_DIMS})
    assert verdicts[-1].kept


def test_two_soft_violations_removed():
    # wrong dims AND far between two near neighbors
    left = _ground_object(-2.2, 12.0)
    right = _ground_object(2.2, 12.0)
    bad = Box3D(np.array([0.0, 1.65, 40.0]), Dimensions(0.5, 0.5, 1.0), 0.0)
    scene = [left, (exact_box2d(bad, K), bad), right]
    verdicts = depurate(_table(scene), K.fv, CFG)
    assert not verdicts[1].kept
    assert not verdicts[1].hard_violation
    assert {RULE_DIMS, RULE_ADJACENT_DEPTH} <= verdicts[1].violated_rules
    assert verdicts[0].kept and verdicts[2].kept


def test_verdict_invariant_removed_implies_rules():
    scene = _synthetic_scene(3)
    sky = Box3D(np.array([2.0, -4.0, 30.0]), CAR, 0.0)
    scene.append((exact_box2d(sky, K), sky))
    for v in depurate(_table(scene), K.fv, CFG):
        if not v.kept:
            assert v.violated_rules


def test_idempotence_on_clean_and_injected_scenes():
    for seed in range(15):
        scene = _synthetic_scene(seed, n=5)
        if seed % 3 == 0:
            sky = Box3D(np.array([1.0, -3.0, 20.0]), CAR, 0.5)
            scene.append((exact_box2d(sky, K), sky))
        kept = [pair for pair, v in zip(scene, depurate(_table(scene), K.fv, CFG)) if v.kept]
        second = depurate(_table(kept), K.fv, CFG)
        assert all(v.kept for v in second)


def test_scene_order_invariance():
    rng = np.random.default_rng(0)
    scene = _synthetic_scene(4, n=5)
    sky = Box3D(np.array([1.0, -3.0, 20.0]), CAR, 0.5)
    scene.append((exact_box2d(sky, K), sky))
    base = depurate(_table(scene), K.fv, CFG)
    for _ in range(5):
        perm = rng.permutation(len(scene))
        shuffled = [scene[i] for i in perm]
        verdicts = depurate(_table(shuffled), K.fv, CFG)
        for new_pos, old_pos in enumerate(perm):
            assert verdicts[new_pos] == base[old_pos]


@given(
    objects=st.lists(
        st.tuples(
            st.floats(-15.0, 15.0),                                      # x
            st.sampled_from([-2.0, 1.65, 1.7]) | st.floats(-3.0, 3.5),   # bottom-face y
            st.sampled_from([12.0, 20.0, 40.0]) | st.floats(8.0, 60.0),  # z; repeats tie
            st.floats(-math.pi, math.pi),                                # yaw
            st.sampled_from([1.0, 0.4, 1.8]) | st.floats(0.3, 2.0),      # dims scale
            st.sampled_from([0.0, -200.0]) | st.floats(-80.0, 20.0),     # 2D box top shift, px
        ),
        min_size=1, max_size=9,
    ),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_verdicts_permute_with_the_scene(objects, data):
    scene = []
    for x, y, z, yaw, scale, shift in objects:
        box3d = Box3D(np.array([x, y, z]), Dimensions(CAR.h * scale, CAR.w, CAR.l * scale), yaw)
        b = exact_box2d(box3d, K)
        scene.append((Box2D(b.u_min, b.v_min + shift, b.u_max, b.v_max), box3d))
    perm = data.draw(st.permutations(range(len(scene))))
    base = depurate(_table(scene), K.fv, CFG)
    assert _as_tuples(base) == _depurate_loop(_table(scene), K.fv, CFG)
    assert depurate(_table([scene[i] for i in perm]), K.fv, CFG) == [base[i] for i in perm]


def test_config_holds_only_the_vertical_band():
    # the dims rule reads CAR_PRIOR, and the other thresholds are module constants
    assert [f.name for f in fields(DepurationConfig)] == ["vertical_centers", "vertical_slack"]


def test_config_validation():
    for bad in ({"vertical_slack": -0.1}, {"vertical_slack": math.nan}, {"vertical_centers": (2.0, 1.0)},
                {"vertical_centers": ()}, {"vertical_centers": (1.0, math.inf)}, {"vertical_centers": (math.nan,)}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            DepurationConfig(**bad)
