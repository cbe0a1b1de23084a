import math

import numpy as np
import pytest

from box3d.camera import (
    BehindCameraError,
    Box3D,
    CameraIntrinsics,
    Dimensions,
    vertex_offsets,
)
from box3d.properties import global_from_local
from box3d.viewpoints import (
    N_VIEWPOINTS,
    away_from_viewpoint_boundaries,
    classify_viewpoint,
    extremal_vertices,
    format_viewpoint_table,
    local_yaw,
    octant_of_local_yaw,
    selected_vertex_indices,
)

K = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
CAR = Dimensions(1.52, 1.64, 3.86)

# Alternate corner-numbering convention kept for cross-referencing
# diagrams: a front-right view reads its upper/lower/left/right extremes as
# corners 6, 1, 5, 3 in it.  Only these four entries are pinned; the
# numbering of the remaining corners is free.
DIAGRAM_NUMBERS = {3: 6, 4: 1, 0: 5, 5: 3}


def _pose(theta_l, depth=25.0, x=0.0, y=1.65, dims=CAR):
    """Pose with the requested local yaw at the given position."""
    theta_ray = math.atan2(depth, x)
    return Box3D(np.array([x, y, depth]), dims, global_from_local(theta_l, theta_ray))


def _random_clean_poses(seed, n, angle_margin_deg=2.0):
    rng = np.random.default_rng(seed)
    poses = []
    while len(poses) < n:
        dims = Dimensions(*(np.array([CAR.h, CAR.w, CAR.l]) + rng.normal(0, 0.08, 3)))
        loc = np.array([rng.uniform(-20, 20), rng.uniform(0.3, 2.5), rng.uniform(5, 60)])
        b = Box3D(loc, dims, rng.uniform(-math.pi, math.pi))
        if loc[2] - 0.5 * (dims.l + dims.w) <= 0.5:  # keep every corner in front
            continue
        if away_from_viewpoint_boundaries(b, math.radians(angle_margin_deg)):
            poses.append(b)
    return poses


# ---------------------------------------------------------------------------
# selection table


def test_table_has_16_entries_and_valid_ids():
    for vid in range(N_VIEWPOINTS):
        assert len(selected_vertex_indices(vid)) == 4
    for bad in (-1, 16):
        with pytest.raises(ValueError):
            selected_vertex_indices(bad)


def test_every_selected_offset_is_a_box_vertex():
    for vid in range(N_VIEWPOINTS):
        assert all(0 <= i < 8 for i in selected_vertex_indices(vid))


def test_left_right_selectors_never_share_a_vertical_edge():
    for vid in range(N_VIEWPOINTS):
        left, right, _, _ = selected_vertex_indices(vid)
        # opposite l-sign or opposite w-sign (different columns)
        assert (left & 4) != (right & 4) or (left & 1) != (right & 1)


def test_frozen_corner_selectors_for_class_1():
    # regression pin of the top/bottom selectors for class 1 (first octant,
    # camera above the top face): top edge from the far top corner
    # (+l/2, -h, -w/2), bottom edge from the near bottom corner (-l/2, 0, +w/2)
    _, _, top, bottom = selected_vertex_indices(1)
    assert (top, bottom) == (3, 4)
    dims = Dimensions(1.0, 2.0, 4.0)
    assert vertex_offsets(dims)[[top, bottom]].tolist() == [[2.0, -1.0, -1.0], [-2.0, 0.0, 1.0]]


def test_mirror_classes_swap_left_right_with_w_flip():
    for octant in range(8):
        for above in (0, 1):
            left, right, top, bottom = selected_vertex_indices(2 * octant + above)
            # the mirror image flips the w sign, the 1 bit of a vertex index
            assert selected_vertex_indices(2 * (7 - octant) + above) == (right ^ 1, left ^ 1, top ^ 1, bottom ^ 1)


def test_format_viewpoint_table_lists_all_classes():
    text = format_viewpoint_table()
    for vid in range(N_VIEWPOINTS):
        assert f"viewpoint {vid:2d}" in text


# ---------------------------------------------------------------------------
# classification


def test_octant_boundaries_closed_above():
    assert octant_of_local_yaw(math.pi / 4) == 0  # boundary -> lower octant
    assert octant_of_local_yaw(math.pi / 4 + 1e-9) == 1
    assert octant_of_local_yaw(0.0) == 7  # 0 wraps to the top of the circle
    assert octant_of_local_yaw(2 * math.pi) == 7
    assert octant_of_local_yaw(-1e-9) == 7


def test_facing_camera_look_down_class_is_documented_id():
    # local yaw exactly 0, camera above the box top: class 15 by definition
    assert 2 * octant_of_local_yaw(0.0) + 1 == 15
    b = _pose(-1e-9, depth=20.0)
    assert b.location[1] > b.dims.h
    assert classify_viewpoint(b) == 15


def test_classification_deterministic_and_in_range():
    rng = np.random.default_rng(11)
    for _ in range(200):
        b = Box3D(
            np.array([rng.uniform(-20, 20), rng.uniform(0.2, 3.0), rng.uniform(5, 60)]),
            CAR,
            rng.uniform(-math.pi, math.pi),
        )
        vid = classify_viewpoint(b)
        assert 0 <= vid < 16
        assert vid == classify_viewpoint(b)


def test_camera_above_flag_flips_class_parity():
    low = _pose(0.5, y=1.0)   # camera above the top plane? 1.0 < h -> no
    high = _pose(0.5, y=2.0)  # 2.0 > h -> yes
    assert classify_viewpoint(low) % 2 == 0
    assert classify_viewpoint(high) % 2 == 1


# ---------------------------------------------------------------------------
# extremal oracle


def test_dead_ahead_extremes_are_near_face_with_index_tie_break():
    b = Box3D(np.array([0.0, 1.65, 20.0]), CAR, 0.0)
    left, right, top, bottom = extremal_vertices(b, K)
    # near face z = -w/2 wins both u extremes by perspective; within a
    # vertical edge the u tie goes to the lower (bottom) index
    assert (left, right) == (5, 1)


def test_extremal_raises_behind_camera():
    b = Box3D(np.array([0.0, 1.65, 0.5]), CAR, 0.0)  # near vertices cross z=0
    with pytest.raises(BehindCameraError):
        extremal_vertices(b, K)


def test_front_right_pose_extremes_in_both_numbering_conventions():
    b = _pose(math.radians(30.0), depth=25.0)
    assert classify_viewpoint(b) == 1
    left, right, top, bottom = extremal_vertices(b, K)
    assert (top, bottom, left, right) == (3, 4, 0, 5)
    assert (
        DIAGRAM_NUMBERS[top], DIAGRAM_NUMBERS[bottom],
        DIAGRAM_NUMBERS[left], DIAGRAM_NUMBERS[right],
    ) == (6, 1, 5, 3)


def test_half_turn_swaps_u_extremes_to_opposite_columns():
    b = _pose(math.radians(30.0))
    flipped = Box3D(b.location.copy(), b.dims, b.yaw + math.pi)
    l0, r0, _, _ = extremal_vertices(b, K)
    l1, r1, _, _ = extremal_vertices(flipped, K)
    # rotating the object by pi maps each corner column to its diagonal twin
    assert (l1 & 4, l1 & 1) == (4 - (l0 & 4), 1 - (l0 & 1))
    assert (r1 & 4, r1 & 1) == (4 - (r0 & 4), 1 - (r0 & 1))


# ---------------------------------------------------------------------------
# oracle consistency (the ground truth for the taxonomy)


def test_table_matches_oracle_on_clean_poses():
    poses = _random_clean_poses(seed=101, n=500)
    for b in poses:
        assert extremal_vertices(b, K) == selected_vertex_indices(classify_viewpoint(b))


def test_agreement_rate_away_from_boundaries_at_least_99pct():
    poses = _random_clean_poses(seed=202, n=500)
    hits = sum(
        extremal_vertices(b, K) == selected_vertex_indices(classify_viewpoint(b))
        for b in poses
    )
    assert hits / len(poses) >= 0.99


def test_boundary_predicate_rejects_near_boundary_poses():
    assert not away_from_viewpoint_boundaries(_pose(math.radians(45.0)))  # octant edge
    assert not away_from_viewpoint_boundaries(_pose(math.radians(0.5)))   # face-on sliver
    assert not away_from_viewpoint_boundaries(_pose(0.5, y=CAR.h + 0.005))  # top-plane margin
    assert away_from_viewpoint_boundaries(_pose(math.radians(30.0)))


def test_boundary_predicate_rejects_a_ray_no_longer_than_the_box():
    # at a local yaw of 30 deg, every other check passes at these depths
    assert away_from_viewpoint_boundaries(_pose(math.radians(30.0), depth=CAR.l + 0.01))
    for depth in (CAR.l, 3.0, 2.5):
        assert not away_from_viewpoint_boundaries(_pose(math.radians(30.0), depth=depth))


def test_local_yaw_matches_global_relation():
    b = _pose(math.radians(100.0), depth=30.0, x=8.0)
    assert local_yaw(b) == pytest.approx(math.radians(100.0), abs=1e-12)
