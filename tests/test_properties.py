import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from box3d.camera import (
    Box2D, Box3D, CameraIntrinsics, Detection2D, Dimensions, project_point, ray_angle, wrap_angle,
)
from box3d.properties import (
    CAR_PRIOR,
    ClassPrior,
    MultiBinOutput,
    RegressedProperties,
    alpha_from_local,
    cbf_anchor,
    decode_cbf,
    decode_local_angle,
    default_bin_centers,
    dimension_values,
    encode_cbf,
    encode_local_angle,
    global_from_local,
    local_from_global,
)
from box3d.solver import decode_rows, lift_batch

TWO_BIN = default_bin_centers(2)

angles = st.floats(min_value=-math.pi, max_value=math.pi - 1e-12)


def _mb(conf, sin, cos, centers=TWO_BIN):
    return MultiBinOutput(tuple(conf), tuple(sin), tuple(cos), tuple(centers))


def test_decode_zero_residual():
    assert decode_local_angle(_mb((0.9, 0.1), (0.0, 0.0), (1.0, 1.0))) == pytest.approx(0.0)


def test_decode_second_bin_quarter_residual():
    # center pi + atan2(1, 0) = 3pi/2 -> wraps to -pi/2
    m = _mb((0.1, 0.9), (0.0, 1.0), (1.0, 0.0))
    assert decode_local_angle(m) == pytest.approx(-math.pi / 2)


def test_decode_confidence_tie_takes_lowest_index():
    m = _mb((0.5, 0.5), (0.0, 1.0), (1.0, 0.0))
    assert decode_local_angle(m) == pytest.approx(0.0)


def test_decode_scale_invariant_residual():
    # unnormalized (sin, cos) pairs decode identically
    a = _mb((1.0, 0.0), (0.3, 0.0), (0.4, 1.0))
    b = _mb((1.0, 0.0), (0.6, 0.0), (0.8, 1.0))
    assert decode_local_angle(a) == decode_local_angle(b)


def test_decode_empty_bins_rejected():
    with pytest.raises(ValueError):
        MultiBinOutput((), (), (), ())


def test_encode_zero_angle():
    m = encode_local_angle(0.0, TWO_BIN)
    assert m.confidences == (1.0, 0.0)
    assert m.sin_residuals[0] == pytest.approx(0.0)
    assert m.cos_residuals[0] == pytest.approx(1.0)


@pytest.mark.parametrize("n_bins", [1, 2, 4, 8])
@given(theta=angles)
def test_encode_decode_round_trip(theta, n_bins):
    centers = default_bin_centers(n_bins)
    decoded = decode_local_angle(encode_local_angle(theta, centers))
    assert abs(wrap_angle(decoded - theta)) < 1e-12


def test_round_trip_quarter():
    assert decode_local_angle(encode_local_angle(math.pi / 4)) == pytest.approx(math.pi / 4)


def test_round_trip_bulk_uniform():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-math.pi, math.pi, 1000):
        decoded = decode_local_angle(encode_local_angle(theta))
        assert abs(wrap_angle(decoded - theta)) < 1e-12


def test_global_from_local_cancellation():
    assert global_from_local(3 * math.pi / 2, math.pi / 2) == pytest.approx(0.0)


def test_global_from_local_arithmetic():
    assert global_from_local(0.0, math.pi / 2) == pytest.approx(-math.pi / 2)


@given(theta=angles, theta_ray=st.floats(min_value=1e-6, max_value=math.pi - 1e-6))
def test_local_global_round_trip(theta, theta_ray):
    back = global_from_local(local_from_global(theta, theta_ray), theta_ray)
    assert abs(wrap_angle(back - theta)) < 1e-12


@given(alpha=angles)
def test_alpha_transform_involution(alpha):
    # the observation angle and the local yaw map to each other by the same
    # transform, so applying it twice is the identity
    assert abs(wrap_angle(alpha_from_local(alpha_from_local(alpha)) - alpha)) < 1e-12


def test_decode_dimensions_car_prior():
    assert dimension_values((0.0, 0.0, 0.0), CAR_PRIOR) == (1.52, 1.64, 3.86)


def test_decode_dimensions_additive():
    assert dimension_values((0.1, 0.0, 0.0), CAR_PRIOR)[0] == pytest.approx(1.62)


def test_decode_dimensions_nonpositive_rejected():
    # decoding leaves a non-positive dimension to the lift, which skips the row
    k = CameraIntrinsics(700.0, 700.0, 600.0, 180.0)
    prop = RegressedProperties((-2.0, 0.0, 0.0), encode_local_angle(0.3), 5, (0.0, -5.0))
    rows = decode_rows([Detection2D(Box2D(500.0, 150.0, 700.0, 250.0))], [prop], k)
    assert rows.dims[0, 0] == pytest.approx(-0.48)
    assert lift_batch(rows, (1242.0, 375.0)).status[0] == "degenerate_input"


@given(
    r1=st.tuples(*[st.floats(min_value=-0.2, max_value=0.2)] * 3),
    r2=st.tuples(*[st.floats(min_value=-0.2, max_value=0.2)] * 3),
)
def test_decode_dimensions_exactly_additive(r1, r2):
    prior = CAR_PRIOR
    a = np.array(dimension_values(r1, prior))
    b = np.array(dimension_values(r2, prior))
    combined = np.array(dimension_values(tuple(x + y for x, y in zip(r1, r2)), prior))
    mean = np.array([prior.mean_dims.h, prior.mean_dims.w, prior.mean_dims.l])
    assert np.allclose(a + b - mean, combined, atol=1e-12)


BOX = Box2D(100.0, 50.0, 200.0, 150.0)


def test_decode_cbf_anchor():
    assert decode_cbf((0.0, 0.0), BOX) == (150.0, 150.0)


def test_decode_cbf_additive():
    assert decode_cbf((3.0, -2.0), BOX) == (153.0, 148.0)


@given(
    du=st.floats(min_value=-20, max_value=20),
    dv=st.floats(min_value=-20, max_value=20),
    shift_u=st.floats(min_value=-300, max_value=300),
    shift_v=st.floats(min_value=-300, max_value=300),
)
def test_decode_cbf_translation_equivariant(du, dv, shift_u, shift_v):
    shifted = Box2D(BOX.u_min + shift_u, BOX.v_min + shift_v, BOX.u_max + shift_u, BOX.v_max + shift_v)
    base = decode_cbf((du, dv), BOX)
    moved = decode_cbf((du, dv), shifted)
    assert moved[0] - base[0] == pytest.approx(shift_u)
    assert moved[1] - base[1] == pytest.approx(shift_v)


def test_cbf_round_trip_against_projection():
    # project a true bottom-face center, regress the offset, decode it back
    k = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
    b = Box3D(np.array([3.0, 1.65, 22.0]), Dimensions(1.52, 1.64, 3.86), 0.8)
    from box3d.synthetic import exact_box2d

    box = exact_box2d(b, k)
    cbf = tuple(project_point(k, b.location))
    offset = encode_cbf(cbf, box)
    assert decode_cbf(offset, box) == pytest.approx(cbf, abs=1e-12)


def test_cbf_anchor_is_bottom_center():
    assert cbf_anchor(BOX) == (150.0, 150.0)
