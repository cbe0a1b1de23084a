import math
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from box3d.camera import (
    BehindCameraError,
    Box2D,
    Box3D,
    CameraIntrinsics,
    Dimensions,
    box_iou_2d,
    box_vertices,
    project_point,
    vertex_offsets,
    wrap_angle,
    yaw_rotation,
)
from box3d.kitti_io import DetectionTable, PropertyTable
from box3d.solver import DecodedRows, SolverConfig, decode_rows, lift_batch

K = CameraIntrinsics(700.0, 700.0, 600.0, 180.0)

finite_angle = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_project_principal_axis_point():
    assert np.allclose(project_point(K, (0, 0, 10)), [600.0, 180.0])


def test_project_hand_arithmetic():
    # u = 600 + 700 * 1/10
    assert np.allclose(project_point(K, (1, 0, 10)), [670.0, 180.0])


def test_project_behind_camera_raises():
    with pytest.raises(BehindCameraError):
        project_point(K, (0, 0, -1))
    with pytest.raises(BehindCameraError):
        project_point(K, (0, 0, 0.0))


@given(
    u=st.floats(min_value=-5000, max_value=5000),
    v=st.floats(min_value=-5000, max_value=5000),
    depth=st.floats(min_value=1e-3, max_value=1e4),
)
def test_project_back_project_round_trip(u, v, depth):
    # the closed-form lift back-projects the bottom-center pixel (u, v) at
    # depth fv*h/(v - v_min); projecting its location gives the pixel back
    h = 1.5
    v_min = v - K.fv * h / depth
    row = [u - 50.0, v_min, u + 50.0, v + 10.0, h, 1.64, 3.86, 0.0, 0.0, 0.0, u, v, K.fu, K.fv, K.cu, K.cv, 1.0]
    result = lift_batch(DecodedRows(row), (1e4, 1e4), SolverConfig(refine=False))
    px = project_point(K, result.location[0])
    assert abs(px[0] - u) < 1e-9
    assert abs(px[1] - v) < 1e-9


def _ray_angles(us):
    """The angles of the viewing rays through image columns us, as
    decode_rows takes them at bottom-face centers in those columns: it gives
    a local yaw of 0 the global yaw 2*pi - ray, wrapped to -ray."""
    n = len(us)
    detections = DetectionTable(np.column_stack([us, np.zeros(n), us, np.ones(n), np.ones(n)]), ["Car"] * n)
    properties = PropertyTable(np.tile([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0], (n, 1)))  # local yaw 0
    return -decode_rows(detections, properties, astuple(K)).yaw


def test_ray_angle_examples():
    # atan2(z, x) of any point projecting to the column
    assert _ray_angles([K.cu, K.cu + K.fu, K.cu - K.fu]) == pytest.approx([math.pi / 2, math.pi / 4, 3 * math.pi / 4])


def test_ray_angle_monotonic_decreasing_and_in_range():
    us = np.linspace(-1e6, 1e6, 2001)
    angles = _ray_angles(us)
    assert np.all(np.diff(angles) < 0)
    assert np.all((angles > 0) & (angles < math.pi))


def test_yaw_rotation_identity():
    assert np.allclose(yaw_rotation(0.0), np.eye(3))


def test_yaw_rotation_quarter_turn():
    assert np.allclose(yaw_rotation(math.pi / 2) @ np.array([0, 0, 1.0]), [1, 0, 0], atol=1e-12)


@given(theta=finite_angle)
def test_yaw_rotation_orthonormal(theta):
    r = yaw_rotation(theta)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0)


@given(theta=finite_angle)
def test_yaw_rotation_periodic(theta):
    assert np.allclose(yaw_rotation(theta), yaw_rotation(theta + 2 * math.pi), atol=1e-12)


def test_unit_cube_vertices():
    b = Box3D(np.array([0.0, 0.0, 10.0]), Dimensions(1.0, 1.0, 1.0), 0.0)
    verts = box_vertices(b)
    expected = {
        (0.5, 0.0, 10.5), (0.5, 0.0, 9.5), (0.5, -1.0, 10.5), (0.5, -1.0, 9.5),
        (-0.5, 0.0, 10.5), (-0.5, 0.0, 9.5), (-0.5, -1.0, 10.5), (-0.5, -1.0, 9.5),
    }
    assert {tuple(np.round(v, 12)) for v in verts} == expected


def test_vertex_index_bit_pattern():
    offs = vertex_offsets(Dimensions(2.0, 4.0, 6.0))
    for i, (x, y, z) in enumerate(offs):
        assert (x < 0) == bool(i & 4)
        assert (y < 0) == bool(i & 2)
        assert (z < 0) == bool(i & 1)


@given(
    yaw=finite_angle,
    x=st.floats(min_value=-30, max_value=30),
    z=st.floats(min_value=1, max_value=80),
)
def test_bottom_face_centroid_is_location(yaw, x, z):
    b = Box3D(np.array([x, 1.3, z]), Dimensions(1.5, 1.7, 4.2), yaw)
    verts = box_vertices(b)
    bottom = verts[[0, 1, 4, 5]]
    assert np.allclose(bottom.mean(axis=0), b.location, atol=1e-12)


def test_half_turn_permutes_to_diagonal_opposites():
    dims = Dimensions(1.5, 1.7, 4.2)
    loc = np.array([2.0, 1.4, 25.0])
    a = box_vertices(Box3D(loc, dims, 0.4))
    b = box_vertices(Box3D(loc, dims, 0.4 + math.pi))
    for i in range(8):
        assert np.allclose(a[i], b[i ^ 5], atol=1e-9)


@given(theta=finite_angle)
def test_wrap_angle_range_and_equivalence(theta):
    w = wrap_angle(theta)
    assert -math.pi <= w < math.pi
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)


def test_invalid_intrinsics_and_dimensions():
    with pytest.raises(ValueError):
        CameraIntrinsics(0.0, 700.0, 600.0, 180.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(700.0, 700.0, math.nan, 180.0)
    with pytest.raises(ValueError):
        Dimensions(1.0, -0.5, 2.0)


# ---------------------------------------------------------------------------
# 2D box overlap


def test_box_iou_2d_hand_computed():
    a = Box2D(0.0, 0.0, 4.0, 2.0)
    assert box_iou_2d(a, a) == 1.0
    # 2 x 2 overlap of an 8 and a 4 area box: 4 / (8 + 4 - 4)
    assert box_iou_2d(a, Box2D(2.0, 0.0, 4.0, 2.0)) == 0.5
    # 1 x 1 overlap of two 2 x 2 boxes: 1 / 7
    assert box_iou_2d(Box2D(0, 0, 2, 2), Box2D(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)
    assert box_iou_2d(Box2D(1, 1, 3, 3), Box2D(0, 0, 2, 2)) == pytest.approx(1.0 / 7.0)


def test_box_iou_2d_touching_and_degenerate_are_zero():
    a = Box2D(0.0, 0.0, 2.0, 2.0)
    assert box_iou_2d(a, Box2D(2.0, 0.0, 4.0, 2.0)) == 0.0  # shared edge
    assert box_iou_2d(a, Box2D(2.0, 2.0, 4.0, 4.0)) == 0.0  # shared corner
    assert box_iou_2d(a, Box2D(5.0, 5.0, 6.0, 6.0)) == 0.0  # apart
    assert box_iou_2d(a, Box2D(1.0, 0.0, 1.0, 2.0)) == 0.0  # zero width
    assert box_iou_2d(a, Box2D(1.0, 1.0, 1.0, 1.0)) == 0.0  # a point


def _boxes_overlap(a, b):
    """Reference: the overlap predicate box_iou_2d(a, b) > 0 replaced."""
    return (
        min(a.u_max, b.u_max) > max(a.u_min, b.u_min)
        and min(a.v_max, b.v_max) > max(a.v_min, b.v_min)
    )


def test_box_iou_2d_positive_iff_old_overlap_predicate():
    rng = np.random.default_rng(5)
    for _ in range(5000):
        # a coarse integer grid makes touching edges, zero-width and
        # inverted boxes common
        a, b = (Box2D(*rng.integers(0, 6, 4).astype(float)) for _ in range(2))
        assert (box_iou_2d(a, b) > 0) == _boxes_overlap(a, b)
        assert box_iou_2d(a, b) == box_iou_2d(b, a)
        assert 0.0 <= box_iou_2d(a, b) <= 1.0


def _box_iou_2d_builtins(a, b) -> float:
    """Reference: box_iou_2d as written with the min and max builtins."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


# small and signed-zero coordinates coincide and touch; st.floats() adds NaN,
# the infinities and any other float
_coordinate = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, math.nan, math.inf, -math.inf]) | st.floats()


@st.composite
def _box_pairs(draw):
    """Two boxes, the second taking each coordinate from the first's four
    (equal, touching edges and corners, zero-width) or a fresh one; either
    box may be inverted."""
    a = [draw(_coordinate) for _ in range(4)]
    b = [draw(st.sampled_from(a) | _coordinate) for _ in range(4)]
    return Box2D(*a), Box2D(*b)


@given(st.lists(_box_pairs(), min_size=1, max_size=8))
@example([(Box2D(0.0, 0.0, -0.0, 1.0), Box2D(0.0, 0.0, 1.0, 1.0))])  # an overlap width of -0.0
@example([(Box2D(0.0, 0.0, 1.0, -0.0), Box2D(0.0, 0.0, 1.0, 1.0))])  # an overlap height of -0.0
@example([(Box2D(0.0, 0.0, 1e-200, 1e-200), Box2D(0.0, 0.0, 1e-200, 1e-200))])  # areas that underflow to 0
@example([(Box2D(0.0, 0.0, 2.0, 2.0), Box2D(2.0, 0.0, 4.0, 2.0))])  # touching edges
@example([(Box2D(0.0, 0.0, 2.0, 2.0), Box2D(2.0, 2.0, 4.0, 4.0))])  # touching corners
@example([(Box2D(2.0, 2.0, 0.0, 0.0), Box2D(0.0, 0.0, 2.0, 2.0))])  # inverted
@example([(Box2D(math.nan, 0.0, 1.0, 1.0), Box2D(0.0, 0.0, 1.0, 1.0))])
@example([(Box2D(-math.inf, 0.0, math.inf, 1.0), Box2D(0.0, 0.0, 1.0, 1.0))])
@example([  # all of the above in one array, next to an overlap of 1/7
    (Box2D(0.0, 0.0, -0.0, 1.0), Box2D(0.0, 0.0, 1.0, 1.0)), (Box2D(0.0, 0.0, 1.0, -0.0), Box2D(0.0, 0.0, 1.0, 1.0)),
    (Box2D(0.0, 0.0, 1e-200, 1e-200), Box2D(0.0, 0.0, 1e-200, 1e-200)),
    (Box2D(0.0, 0.0, 2.0, 2.0), Box2D(2.0, 0.0, 4.0, 2.0)), (Box2D(0.0, 0.0, 2.0, 2.0), Box2D(2.0, 2.0, 4.0, 4.0)),
    (Box2D(0.0, 0.0, 2.0, 2.0), Box2D(1.0, 1.0, 3.0, 3.0)), (Box2D(2.0, 2.0, 0.0, 0.0), Box2D(0.0, 0.0, 2.0, 2.0)),
    (Box2D(math.nan, 0.0, 1.0, 1.0), Box2D(0.0, 0.0, 1.0, 1.0)),
    (Box2D(-math.inf, 0.0, math.inf, 1.0), Box2D(0.0, 0.0, 1.0, 1.0)),
])
@settings(max_examples=400)  # of up to 8 pairs each
def test_box_iou_2d_is_the_builtin_min_max_form_bit_for_bit(pairs):
    # compared as bytes, so that NaN equals NaN and -0.0 differs from 0.0;
    # each pair alone, then all of them as one (P, 4) array against another
    pairs = pairs + [(b, a) for a, b in pairs]
    want = [struct.pack("<d", _box_iou_2d_builtins(a, b)) for a, b in pairs]
    assert [struct.pack("<d", box_iou_2d(a, b)) for a, b in pairs] == want
    a, b = (np.array(boxes) for boxes in zip(*pairs))
    assert a.shape == b.shape == (len(pairs), 4)
    assert box_iou_2d(a, b).astype("<f8").tobytes() == b"".join(want)
