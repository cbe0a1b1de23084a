import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box3d.camera import Box2D, Box3D, CameraIntrinsics, Dimensions, project_point
from box3d.depuration import (
    DEFAULT_DEPURATION_CONFIG as CFG,
    DepurationConfig,
    RULE_ADJACENT_DEPTH,
    RULE_DIMS,
    RULE_HEIGHT_DEPTH,
    RULE_VERTICAL,
    check_adjacent_depth,
    check_dimensions,
    check_height_depth,
    check_vertical,
    depurate,
)
from box3d.synthetic import SyntheticSceneSpec, exact_box2d, generate_scene

K = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
CAR = Dimensions(1.52, 1.64, 3.86)


def _ground_object(x, z, yaw=0.2, dims=CAR, y=1.65):
    b = Box3D(np.array([x, y, z]), dims, yaw)
    return (exact_box2d(b, K), b)


def _synthetic_scene(seed, n=4):
    gt, _, _ = generate_scene(
        SyntheticSceneSpec(n_objects_min=n, n_objects_max=n, seed=seed, dims_sigma=0.05)
    )
    return [(o.box2d, o.box3d()) for o in gt.objects]


# ---------------------------------------------------------------------------
# rule 1: dimensions


def test_mean_dims_pass():
    assert check_dimensions(CAR, CFG)


def test_extreme_dims_fail():
    assert not check_dimensions(Dimensions(5.0, 5.0, 20.0), CFG)


def test_dims_boundary_inclusive_then_exclusive():
    assert check_dimensions(Dimensions(1.52 * 1.5, 1.64, 3.86), CFG)
    assert not check_dimensions(Dimensions(1.52 * 1.5 + 1e-9, 1.64, 3.86), CFG)
    assert check_dimensions(Dimensions(1.52 * 0.5, 1.64, 3.86), CFG)
    assert not check_dimensions(Dimensions(1.52 * 0.5 - 1e-9, 1.64, 3.86), CFG)


# ---------------------------------------------------------------------------
# rule 2: vertical location


def test_camera_height_level_passes():
    assert check_vertical(1.65, CFG)


def test_sky_box_fails():
    assert not check_vertical(-3.0, CFG)


def test_vertical_boundary():
    # [min(centers) - slack, max(centers) + slack] = [0.53842871, 2.9684]
    assert check_vertical(2.968, CFG)
    assert not check_vertical(2.969, CFG)
    assert check_vertical(0.539, CFG)
    assert not check_vertical(0.538, CFG)


# ---------------------------------------------------------------------------
# rule 3: projected height vs depth


def test_pinhole_consistent_pair_passes():
    scene = [_ground_object(0.0, 10.0), _ground_object(3.0, 40.0)]
    assert check_height_depth(scene, K, CFG) == [True, True]


def test_far_object_with_larger_projected_height_blamed():
    near = _ground_object(0.0, 10.0)
    far_box2d, far_box3d = _ground_object(3.0, 40.0)
    # corrupt the far detection's 2D box to be taller than the near one
    corrupted = Box2D(far_box2d.u_min, far_box2d.v_min - 200.0, far_box2d.u_max, far_box2d.v_max)
    flags = check_height_depth([near, (corrupted, far_box3d)], K, CFG)
    assert flags == [True, False]


def test_single_object_passes_vacuously():
    assert check_height_depth([_ground_object(0.0, 15.0)], K, CFG) == [True]


def test_different_heights_not_compared():
    tall = _ground_object(0.0, 40.0, dims=Dimensions(3.0, 1.64, 3.86))
    short = _ground_object(3.0, 10.0)
    assert check_height_depth([tall, short], K, CFG) == [True, True]


# ---------------------------------------------------------------------------
# rule 4: adjacent depth


def test_no_overlap_passes():
    scene = [_ground_object(-8.0, 20.0), _ground_object(8.0, 20.0)]
    assert check_adjacent_depth(scene, CFG) == [True, True]


def test_far_object_between_two_near_neighbors_fails():
    left = _ground_object(-2.2, 12.0)
    right = _ground_object(2.2, 12.0)
    middle = _ground_object(0.0, 40.0)  # overlaps both in 2D, 28 m away
    scene = [left, middle, right]
    assert check_adjacent_depth(scene, CFG) == [True, False, True]


def test_one_sided_overlap_passes_regardless_of_gap():
    left = _ground_object(-3.4, 12.0)
    obj = _ground_object(0.0, 40.0)
    # ensure they overlap and nothing sits to the right of obj
    assert check_adjacent_depth([left, obj], CFG) == [True, True]


# ---------------------------------------------------------------------------
# co-determination


def test_clean_synthetic_scene_all_kept():
    # exact scenes may trip one soft rule (projected-height distortion from
    # yaw, or genuinely isolated-depth overlaps) but never lose an object
    for seed in range(20):
        scene = _synthetic_scene(seed)
        verdicts = depurate(scene, K, CFG)
        assert all(v.kept for v in verdicts)
        assert all(not v.hard_violation for v in verdicts)


def test_sky_box_removed_on_hard_rule_alone():
    scene = _synthetic_scene(1)
    sky = Box3D(np.array([0.0, -3.0, 25.0]), CAR, 0.3)
    scene.append((exact_box2d(sky, K), sky))
    verdicts = depurate(scene, K, CFG)
    assert not verdicts[-1].kept
    assert verdicts[-1].hard_violation
    assert RULE_VERTICAL in verdicts[-1].violated_rules
    assert all(v.kept for v in verdicts[:-1])


def test_single_soft_violation_kept():
    scene = _synthetic_scene(2)
    weird_dims = Box3D(np.array([5.0, 1.65, 30.0]), Dimensions(0.5, 0.5, 1.0), 0.1)
    scene.append((exact_box2d(weird_dims, K), weird_dims))
    verdicts = depurate(scene, K, CFG)
    assert verdicts[-1].violated_rules == frozenset({RULE_DIMS})
    assert verdicts[-1].kept


def test_two_soft_violations_removed():
    # wrong dims AND far between two near neighbors
    left = _ground_object(-2.2, 12.0)
    right = _ground_object(2.2, 12.0)
    bad = Box3D(np.array([0.0, 1.65, 40.0]), Dimensions(0.5, 0.5, 1.0), 0.0)
    scene = [left, (exact_box2d(bad, K), bad), right]
    verdicts = depurate(scene, K, CFG)
    assert not verdicts[1].kept
    assert not verdicts[1].hard_violation
    assert {RULE_DIMS, RULE_ADJACENT_DEPTH} <= verdicts[1].violated_rules
    assert verdicts[0].kept and verdicts[2].kept


def test_verdict_invariant_removed_implies_rules():
    scene = _synthetic_scene(3)
    sky = Box3D(np.array([2.0, -4.0, 30.0]), CAR, 0.0)
    scene.append((exact_box2d(sky, K), sky))
    for v in depurate(scene, K, CFG):
        if not v.kept:
            assert v.violated_rules


def test_idempotence_on_clean_and_injected_scenes():
    for seed in range(15):
        scene = _synthetic_scene(seed, n=5)
        if seed % 3 == 0:
            sky = Box3D(np.array([1.0, -3.0, 20.0]), CAR, 0.5)
            scene.append((exact_box2d(sky, K), sky))
        kept = [pair for pair, v in zip(scene, depurate(scene, K, CFG)) if v.kept]
        second = depurate(kept, K, CFG)
        assert all(v.kept for v in second)


def test_scene_order_invariance():
    rng = np.random.default_rng(0)
    scene = _synthetic_scene(4, n=5)
    sky = Box3D(np.array([1.0, -3.0, 20.0]), CAR, 0.5)
    scene.append((exact_box2d(sky, K), sky))
    base = depurate(scene, K, CFG)
    for _ in range(5):
        perm = rng.permutation(len(scene))
        shuffled = [scene[i] for i in perm]
        verdicts = depurate(shuffled, K, CFG)
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
    base = depurate(scene, K, CFG)
    assert depurate([scene[i] for i in perm], K, CFG) == [base[i] for i in perm]


def test_config_validation():
    with pytest.raises(ValueError):
        DepurationConfig(dim_tolerance=-0.1)
    with pytest.raises(ValueError):
        DepurationConfig(vertical_centers=(2.0, 1.0))
