import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box3d.camera import Box2D, Box3D, CameraIntrinsics, Dimensions, box_iou_2d
from box3d.depuration import (
    DEFAULT_DEPURATION_CONFIG as CFG,
    DepurationConfig,
    RULE_ADJACENT_DEPTH,
    RULE_DIMS,
    RULE_HEIGHT_DEPTH,
    RULE_VERTICAL,
    depurate,
)
from box3d.kitti_io import LabelTable
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
    return [rule in v.violated_rules for v in depurate(_table(scene), K, CFG)]


# ---------------------------------------------------------------------------
# reference: one function per rule, each pair rule with its own pair loop


def _depurate_loop(scene, camera, cfg):
    """(kept, violated rules, hard violation) per object."""
    n = len(scene)

    def dims_ok(d):
        lo, hi = 1.0 - cfg.dim_tolerance, 1.0 + cfg.dim_tolerance
        for value, mean in ((d.h, cfg.mean_dims.h), (d.w, cfg.mean_dims.w), (d.l, cfg.mean_dims.l)):
            if not mean * lo <= value <= mean * hi:
                return False
        return True

    def vertical_ok(y):
        return (min(cfg.vertical_centers) - cfg.vertical_slack <= y
                <= max(cfg.vertical_centers) + cfg.vertical_slack)

    height_depth_ok = [True] * n
    residual = [abs(b2.height * b3.location[2] - camera.fv * b3.dims.h) for b2, b3 in scene]
    for i in range(n):
        for j in range(i + 1, n):
            b3i, b3j = scene[i][1], scene[j][1]
            if abs(b3i.dims.h - b3j.dims.h) > cfg.height_monotonic_eps:
                continue
            if b3i.location[2] > b3j.location[2]:
                far, near = i, j
            elif b3j.location[2] > b3i.location[2]:
                far, near = j, i
            else:
                continue
            if scene[far][0].height >= scene[near][0].height:
                height_depth_ok[far if residual[far] >= residual[near] else near] = False

    adjacent_ok = [True] * n
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
                adjacent_ok[i] = False

    out = []
    for i, (_, box3d) in enumerate(scene):
        violated = set()
        if not dims_ok(box3d.dims):
            violated.add(RULE_DIMS)
        if not vertical_ok(box3d.location[1]):
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


def _crowded_scene(rng):
    """A frame of 2-30 objects whose depths, heights, bottom-face Ys and 2D
    centres often tie, with exact copies, edge-touching 2D boxes and
    objects on the vertical band's edges."""
    scene = []
    for _ in range(int(rng.integers(2, 31))):
        if scene and rng.random() < 0.1:
            scene.append(scene[int(rng.integers(len(scene)))])
            continue
        z = float(rng.choice([12.0, 20.0, 40.0])) if rng.random() < 0.5 else float(rng.uniform(5.0, 60.0))
        h = float(rng.choice([1.52, 1.6, 1.82])) if rng.random() < 0.5 else float(rng.uniform(0.6, 2.5))
        y = float(rng.choice([1.65, 0.53842871, 2.9684, -1.0])) if rng.random() < 0.4 else float(rng.uniform(0.0, 3.5))
        dims = Dimensions(h, float(rng.uniform(0.7, 2.5)), float(rng.uniform(1.8, 6.0)))
        cu = float(rng.choice([500.0, 600.0, 700.0])) if rng.random() < 0.5 else float(rng.uniform(300.0, 900.0))
        half_w = float(rng.choice([50.0, 100.0])) if rng.random() < 0.5 else float(rng.uniform(5.0, 200.0))
        v_max = float(rng.uniform(180.0, 370.0))
        height_px = float(rng.choice([40.0, 80.0])) if rng.random() < 0.5 else float(rng.uniform(5.0, 250.0))
        box2d = Box2D(cu - half_w, v_max - height_px, cu + half_w, v_max)
        scene.append((box2d, Box3D(np.array([float(rng.uniform(-15.0, 15.0)), y, z]), dims, 0.0)))
    return scene


def test_depurate_equals_the_per_rule_loops_on_crowded_scenes():
    rng = np.random.default_rng(6)
    cfgs = [CFG, DepurationConfig(adjacency_iou_min=0.2, depth_gap_max=3.0, height_monotonic_eps=0.0)]
    for k in range(300):
        scene = _crowded_scene(rng)
        cfg = cfgs[k % 2]
        assert _as_tuples(depurate(_table(scene), K, cfg)) == _depurate_loop(scene, K, cfg)
    for seed in range(20):
        scene = _synthetic_scene(seed, n=6)
        assert _as_tuples(depurate(_table(scene), K, CFG)) == _depurate_loop(scene, K, CFG)


def test_empty_scene_has_no_verdicts():
    assert depurate(_table([]), K, CFG) == []


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
        blamed = [RULE_HEIGHT_DEPTH in v.violated_rules for v in depurate(_table(scene), camera, CFG)]
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
        verdicts = depurate(_table(scene), K, CFG)
        assert all(v.kept for v in verdicts)
        assert all(not v.hard_violation for v in verdicts)


def test_sky_box_removed_on_hard_rule_alone():
    scene = _synthetic_scene(1)
    sky = Box3D(np.array([0.0, -3.0, 25.0]), CAR, 0.3)
    scene.append((exact_box2d(sky, K), sky))
    verdicts = depurate(_table(scene), K, CFG)
    assert not verdicts[-1].kept
    assert verdicts[-1].hard_violation
    assert RULE_VERTICAL in verdicts[-1].violated_rules
    assert all(v.kept for v in verdicts[:-1])


def test_single_soft_violation_kept():
    scene = _synthetic_scene(2)
    weird_dims = Box3D(np.array([5.0, 1.65, 30.0]), Dimensions(0.5, 0.5, 1.0), 0.1)
    scene.append((exact_box2d(weird_dims, K), weird_dims))
    verdicts = depurate(_table(scene), K, CFG)
    assert verdicts[-1].violated_rules == frozenset({RULE_DIMS})
    assert verdicts[-1].kept


def test_two_soft_violations_removed():
    # wrong dims AND far between two near neighbors
    left = _ground_object(-2.2, 12.0)
    right = _ground_object(2.2, 12.0)
    bad = Box3D(np.array([0.0, 1.65, 40.0]), Dimensions(0.5, 0.5, 1.0), 0.0)
    scene = [left, (exact_box2d(bad, K), bad), right]
    verdicts = depurate(_table(scene), K, CFG)
    assert not verdicts[1].kept
    assert not verdicts[1].hard_violation
    assert {RULE_DIMS, RULE_ADJACENT_DEPTH} <= verdicts[1].violated_rules
    assert verdicts[0].kept and verdicts[2].kept


def test_verdict_invariant_removed_implies_rules():
    scene = _synthetic_scene(3)
    sky = Box3D(np.array([2.0, -4.0, 30.0]), CAR, 0.0)
    scene.append((exact_box2d(sky, K), sky))
    for v in depurate(_table(scene), K, CFG):
        if not v.kept:
            assert v.violated_rules


def test_idempotence_on_clean_and_injected_scenes():
    for seed in range(15):
        scene = _synthetic_scene(seed, n=5)
        if seed % 3 == 0:
            sky = Box3D(np.array([1.0, -3.0, 20.0]), CAR, 0.5)
            scene.append((exact_box2d(sky, K), sky))
        kept = [pair for pair, v in zip(scene, depurate(_table(scene), K, CFG)) if v.kept]
        second = depurate(_table(kept), K, CFG)
        assert all(v.kept for v in second)


def test_scene_order_invariance():
    rng = np.random.default_rng(0)
    scene = _synthetic_scene(4, n=5)
    sky = Box3D(np.array([1.0, -3.0, 20.0]), CAR, 0.5)
    scene.append((exact_box2d(sky, K), sky))
    base = depurate(_table(scene), K, CFG)
    for _ in range(5):
        perm = rng.permutation(len(scene))
        shuffled = [scene[i] for i in perm]
        verdicts = depurate(_table(shuffled), K, CFG)
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
    base = depurate(_table(scene), K, CFG)
    assert _as_tuples(base) == _depurate_loop(scene, K, CFG)
    assert depurate(_table([scene[i] for i in perm]), K, CFG) == [base[i] for i in perm]


def test_config_validation():
    nan_thresholds = ({name: math.nan} for name in (
        "dim_tolerance", "vertical_slack", "height_monotonic_eps", "adjacency_iou_min", "depth_gap_max"))
    for bad in ({"dim_tolerance": -0.1}, {"vertical_centers": (2.0, 1.0)}, {"vertical_centers": ()},
                {"vertical_centers": (1.0, math.inf)}, {"vertical_centers": (math.nan,)}, *nan_thresholds):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            DepurationConfig(**bad)
