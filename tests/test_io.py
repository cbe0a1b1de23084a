import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box3d.camera import Box2D, Box3D, CameraIntrinsics, Detection2D, Dimensions
from box3d.kitti_io import (
    DetectionTable,
    LabelTable,
    PropertyTable,
    coerce_fields,
    parse_calib,
    parse_detections,
    parse_keyvalue,
    parse_labels,
    parse_properties,
    write_calib,
    write_detections,
    write_labels,
    write_properties,
)
from box3d.depuration import DepurationConfig
from box3d.solver import SolverConfig, decode_rows, lift_batch
from box3d.synthetic import SyntheticSceneSpec, exact_box2d, generate_scene
from box3d.viewpoints import extremal_vertices

REAL_CALIB = (
    "P0: 7.215377000000e+02 0.000000000000e+00 6.095593000000e+02 0.000000000000e+00 "
    "0.000000000000e+00 7.215377000000e+02 1.728540000000e+02 0.000000000000e+00 "
    "0.000000000000e+00 0.000000000000e+00 1.000000000000e+00 0.000000000000e+00\n"
    "P2: 7.215377000000e+02 0.000000000000e+00 6.095593000000e+02 4.485728000000e+01 "
    "0.000000000000e+00 7.215377000000e+02 1.728540000000e+02 2.163791000000e-01 "
    "0.000000000000e+00 0.000000000000e+00 1.000000000000e+00 2.745884000000e-03\n"
)


# ---------------------------------------------------------------------------
# calibration


def test_parse_real_calib_line():
    k = parse_calib(REAL_CALIB)
    assert k.fu == pytest.approx(721.5377)
    assert k.fv == pytest.approx(721.5377)
    assert k.cu == pytest.approx(609.5593)
    assert k.cv == pytest.approx(172.854)


def test_parse_identity_like_calib():
    text = "P2: 1 0 0 0 0 1 0 0 0 0 1 0\n"
    k = parse_calib(text)
    assert (k.fu, k.fv, k.cu, k.cv) == (1.0, 1.0, 0.0, 0.0)


def test_parse_empty_calib_raises():
    with pytest.raises(ValueError):
        parse_calib("")


def test_parse_wrong_count_raises():
    with pytest.raises(ValueError):
        parse_calib("P2: 1 2 3\n")


def test_calib_round_trip():
    k = CameraIntrinsics(721.5377, 720.1, 609.5593, 172.854)
    back = parse_calib(write_calib(k))
    assert back == k


# ---------------------------------------------------------------------------
# labels


def _labels_fixture():
    # truncated occluded alpha  box  h w l  x y z  yaw  score (NaN: none)
    return LabelTable([
        [0.0, 0, -1.234567, 100.5, 120.25, 300.75, 250.0, 1.52, 1.64, 3.86, 2.5, 1.65, 22.125,
         0.654321, math.nan],
        [0.1, 1, 0.5, 400.0, 150.0, 430.0, 230.0, 1.8, 0.6, 0.8, -4.0, 1.6, 15.0, -2.0, 0.91],
    ], ["Car", "Pedestrian"])


def test_label_round_trip_numeric_identity():
    objs = _labels_fixture()
    text = write_labels(objs)
    back = parse_labels(text)
    assert len(back) == 2
    assert list(back.cls) == list(objs.cls)
    assert np.allclose(back.data, objs.data, atol=1e-6, equal_nan=True)
    assert np.array_equal(np.isnan(back.score), np.isnan(objs.score))
    # a second trip is byte-identical
    assert write_labels(back) == text


def test_dontcare_row_parsed_and_flagged():
    text = "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10\n"
    record = parse_labels(text)
    assert len(record) == 1
    assert list(record.cls) == ["DontCare"]
    assert record.dims.tolist() == [[-1.0, -1.0, -1.0]]  # the placeholders stay as written
    assert write_labels(record) == (
        "DontCare -1.000000 -1 -10.000000 503.890000 169.710000 590.610000 190.130000 -1.000000 "
        "-1.000000 -1.000000 -1000.000000 -1000.000000 -1000.000000 -10.000000\n"
    )


def test_score_column_optional():
    with_score = "Car 0 0 0.5 10 10 50 50 1.5 1.6 3.9 1 1.6 20 0.3 0.87\n"
    without = "Car 0 0 0.5 10 10 50 50 1.5 1.6 3.9 1 1.6 20 0.3\n"
    assert parse_labels(with_score).score[0] == pytest.approx(0.87)
    assert math.isnan(parse_labels(without).score[0])


def test_wrong_column_count_raises():
    with pytest.raises(ValueError):
        parse_labels("Car 1 2 3\n")


# ---------------------------------------------------------------------------
# detections


def test_detections_round_trip():
    dets = DetectionTable([[10.0, 20.0, 110.0, 90.0, 0.75], [300.0, 100.0, 420.0, 200.0, 0.5]],
                          ["Car", "Cyclist"])
    text = write_detections(dets)
    back = parse_detections(text)
    assert list(back) == [
        Detection2D(Box2D(10.0, 20.0, 110.0, 90.0), 0.75, "Car"),
        Detection2D(Box2D(300.0, 100.0, 420.0, 200.0), 0.5, "Cyclist"),
    ]


def test_detection_wrong_columns_raise():
    with pytest.raises(ValueError):
        parse_detections("Car 1 2 3\n")


# ---------------------------------------------------------------------------
# regressed-property sidecar


def _property_fixture():
    # dh dw dl viewpoint du dv, then conf sin cos of each of two bins
    return PropertyTable([
        [0.05, -0.02, 0.3, 9, 1.5, -0.75, 1.0, 0.25, 0.9682458, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 3, 0.0, 0.0, 0.2, 0.0, 1.0, 0.8, -0.5, 0.8660254],
    ])


def test_properties_round_trip():
    record = _property_fixture()
    text = write_properties(record)
    back = parse_properties(text)
    assert len(back) == 2 and back.n_bins == 2
    assert back.viewpoint.tolist() == record.viewpoint.tolist()
    assert np.allclose(back.dim_residual, record.dim_residual)
    assert np.allclose(back.cbf_offset, record.cbf_offset)
    assert np.allclose(back.bins, record.bins)


def test_properties_header_required():
    with pytest.raises(ValueError):
        parse_properties("1 2 3\n")


# ---------------------------------------------------------------------------
# parser errors: ValueError naming the 1-based line


def test_label_occlusion_overflow_is_value_error():
    good = "Car 0 0 0.5 10 10 50 50 1.5 1.6 3.9 1 1.6 20 0.3\n"
    with pytest.raises(ValueError, match=r"^line 3: "):
        parse_labels(good + "\n" + good.replace(" 0 0 ", " 0 1e400 ", 1))
    with pytest.raises(ValueError, match=r"^line 1: "):
        parse_labels(good.replace(" 0 0 ", " 0 nan ", 1))


def test_label_non_finite_number_names_line():
    good = "Car 0 0 0 1 2 3 4 1.5 1.6 3.9 0 1.6 20 0.1\n"
    parse_labels(good)
    for bad in ("nan", "inf", "-1e400"):
        with pytest.raises(ValueError, match=r"^line 2: label row has a non-finite number"):
            parse_labels(good + good.replace(" 1.6 20 ", f" {bad} 20 ", 1))


def test_detection_error_names_line():
    with pytest.raises(ValueError, match=r"^line 2: detection row has 4 columns"):
        parse_detections("Car 1 2 3 4 0.5\nCar 1 2 3\n")
    with pytest.raises(ValueError, match=r"^line 1: could not convert"):
        parse_detections("Car 1 2 x 4 0.5\n")


def test_property_error_line_counts_header():
    lines = write_properties(_property_fixture()).splitlines()
    with pytest.raises(ValueError, match=r"^line 4: invalid literal for int"):
        parse_properties("\n".join([lines[0], lines[1], "", lines[2].replace(" 3 ", " 1.5 ", 1)]))
    with pytest.raises(ValueError, match=r"^line 2: int too large to convert to float"):
        parse_properties("\n".join([lines[0], lines[2].replace(" 3 ", f" {'9' * 400} ", 1)]))
    with pytest.raises(ValueError, match=r"^line 2: property row has 1 columns"):
        parse_properties(lines[0] + "\nfoo\n")
    with pytest.raises(ValueError, match=r"^line 2: property file must start"):
        parse_properties("\n1 2 3\n")
    with pytest.raises(ValueError, match=r"^line 1: unexpected property columns"):
        parse_properties("# dh dw\n")


_coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
_names = st.sampled_from(["Car", "Van", "Pedestrian", "DontCare"])


def _at_written_precision(x):
    return float(f"{x:.6f}")


@given(st.lists(st.tuples(_names, st.lists(_coords, min_size=5, max_size=5)), max_size=5))
@settings(max_examples=100)
def test_detections_round_trip_at_written_precision(rows):
    dets = DetectionTable([v for _, v in rows], [name for name, _ in rows])
    text = write_detections(dets)
    back = parse_detections(text)
    for a, b in zip(dets, back, strict=True):
        assert b.cls == a.cls
        assert [*b.box, b.score] == [_at_written_precision(x) for x in (*a.box, a.score)]
    assert write_detections(back) == text


@given(
    st.lists(
        st.tuples(
            _names, st.integers(0, 3), st.booleans(),
            st.lists(_coords, min_size=10, max_size=10),
            st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=3, max_size=3),
        ),
        max_size=4,
    )
)
@settings(max_examples=100)
def test_labels_round_trip_at_written_precision(rows):
    objs = LabelTable(
        [[v[0], occluded, v[1], *v[2:6], *dims, *v[6:9], v[9], v[0] if scored else math.nan]
         for _, occluded, scored, v, dims in rows],
        [name for name, *_ in rows],
    )
    text = write_labels(objs)
    back = parse_labels(text)
    assert list(back.cls) == list(objs.cls)
    assert back.occluded.tolist() == objs.occluded.tolist()
    assert np.array_equal(np.isnan(back.score), np.isnan(objs.score))
    # every number but the occlusion level and the score
    columns = [0, *range(2, 14)]
    assert back.data[:, columns].tolist() == [
        [_at_written_precision(x) for x in row] for row in objs.data[:, columns].tolist()
    ]
    assert write_labels(back) == text


def _parse_or_line_error(parse, text, prefix="line "):
    try:
        parse(text)
    except ValueError as exc:
        assert str(exc).startswith(prefix), str(exc)


_token = st.one_of(
    st.sampled_from(["1e400", "-1e400", "inf", "nan", "-1", "16", "1.5", "0x1", "#", "x"]),
    st.floats().map(str),
)


@given(st.data())
@settings(max_examples=500)
def test_parsers_accept_or_name_line_of_mutated_row(data):
    """A valid row with one to three columns replaced and one column dropped
    or added, after a valid row: accepted, or a ValueError for its line."""
    props = write_properties(_property_fixture()).splitlines()
    cases = [
        (parse_labels, "", "Car 0.1 1 0.5 10 10 50 50 1.5 1.6 3.9 1 1.6 20 0.3", 2),
        (parse_detections, "", "Car 10 20 110 90 0.75", 2),
        (parse_properties, props[0] + "\n", props[1], 3),
    ]
    for parse, head, good, line_no in cases:
        cols = good.split()
        edits = st.lists(st.tuples(st.integers(0, len(cols) - 1), _token), min_size=1, max_size=3)
        for i, token in data.draw(edits):
            cols[i] = token
        change = data.draw(st.sampled_from(["keep", "drop", "add"]))
        if change == "drop":
            cols.pop()
        elif change == "add":
            cols.append(data.draw(_token))
        _parse_or_line_error(parse, f"{head}{good}\n{' '.join(cols)}\n", f"line {line_no}: ")


@given(st.text(max_size=80))
@settings(max_examples=200)
def test_parsers_accept_or_name_line_of_arbitrary_text(text):
    header = write_properties(PropertyTable(np.empty((0, 12)))).splitlines()[0]
    for parse in (parse_labels, parse_detections, lambda t: parse_properties(header + "\n" + t)):
        _parse_or_line_error(parse, text)


# ---------------------------------------------------------------------------
# key-value configs


def test_parse_keyvalue_basics():
    text = "a = 1.5\n# comment\nb = hello  # trailing\n\nc=2\n"
    assert parse_keyvalue(text) == {"a": "1.5", "b": "hello", "c": "2"}


def test_coerce_solver_config():
    cfg = coerce_fields(SolverConfig(), {"max_iterations": "7", "step_tol": "1e-4"})
    assert cfg.max_iterations == 7
    assert cfg.step_tol == pytest.approx(1e-4)


def test_coerce_unknown_key_raises():
    with pytest.raises(ValueError, match="'bogus'"):
        coerce_fields(SolverConfig(), {"bogus": "1"})


@pytest.mark.parametrize("spellings, value", [
    (("1", "true", "yes", "on", "True", "YES", "On"), True),
    (("0", "false", "no", "off", "FALSE", "No", "oFF"), False),
])
def test_coerce_boolean_spellings(spellings, value):
    for raw in spellings:
        assert coerce_fields(SolverConfig(refine=not value), {"refine": raw}).refine is value


@pytest.mark.parametrize("key, raw", [
    ("refine", "ture"), ("refine", ""), ("refine", "2"),
    ("max_iterations", "1.5"), ("step_tol", "small"),
])
def test_coerce_bad_value_names_key(key, raw):
    with pytest.raises(ValueError, match=rf"^config key '{key}': "):
        coerce_fields(SolverConfig(), {key: raw})


@pytest.mark.parametrize("config, key, raw", [
    *((SolverConfig(), key, raw) for key, raw in (
        ("truncation_margin_px", "nan"), ("truncation_margin_px", "-1"), ("step_tol", "nan"),
        ("residual_change_tol", "-1e-9"), ("damping", "nan"), ("max_iterations", "-3"),
        ("max_halvings", "-1"))),
    *((DepurationConfig(), key, raw) for key, raw in (
        ("vertical_slack", "nan"), ("depth_gap_max", "nan"), ("dim_tolerance", "-0.5"),
        ("vertical_centers", ""), ("vertical_centers", "1, inf"), ("vertical_centers", "2, 1"))),
])
def test_coerce_out_of_range_value_names_key(config, key, raw):
    with pytest.raises(ValueError, match=rf"^{key} must be"):
        coerce_fields(config, {key: raw})


def test_parse_keyvalue_line_without_equals_raises():
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_keyvalue("refine false\n")


def test_coerce_scene_spec_flags_and_ranges():
    spec = coerce_fields(
        SyntheticSceneSpec(),
        {"depth_min": "8", "allow_truncated": "true", "n_objects_max": "2"},
    )
    assert spec.depth_min == 8.0
    assert spec.allow_truncated is True
    assert spec.n_objects_max == 2


# ---------------------------------------------------------------------------
# synthetic generation


def test_generate_scene_deterministic_byte_identical():
    spec = SyntheticSceneSpec(n_objects_min=2, n_objects_max=4, seed=77, dims_sigma=0.05,
                              box_noise_sigma=1.0, cbf_noise_sigma=1.0, angle_noise_sigma=0.01)
    a_gt, a_det, a_props = generate_scene(spec)
    b_gt, b_det, b_props = generate_scene(spec)
    assert write_labels(a_gt.objects) == write_labels(b_gt.objects)
    assert write_detections(a_det) == write_detections(b_det)
    assert write_properties(a_props) == write_properties(b_props)


def test_generated_box_is_hull_of_projected_vertices():
    gt, _, _ = generate_scene(SyntheticSceneSpec(n_objects_min=3, n_objects_max=3, seed=5))
    from box3d.camera import box_vertices, project_point

    objs = gt.objects
    for box2d, dims, location, yaw in zip(objs.box.tolist(), objs.dims.tolist(), objs.location, objs.yaw):
        box3d = Box3D(location, Dimensions(*dims), yaw)
        u_min, v_min, u_max, v_max = box2d
        uv = np.stack([project_point(gt.camera, p) for p in box_vertices(box3d)])
        assert u_min == pytest.approx(uv[:, 0].min())
        assert u_max == pytest.approx(uv[:, 0].max())
        assert v_min == pytest.approx(uv[:, 1].min())
        assert v_max == pytest.approx(uv[:, 1].max())
        # and the extremes are attained by the viewpoint-selected corners
        left, right, top, bottom = extremal_vertices(box3d, gt.camera)
        assert uv[left, 0] == u_min
        assert uv[right, 0] == u_max
        assert uv[top, 1] == v_min
        assert uv[bottom, 1] == v_max


def test_border_straddling_object_flagged_truncated():
    spec = SyntheticSceneSpec(
        n_objects_min=1, n_objects_max=1, seed=3,
        lateral_min=-14.0, lateral_max=-11.0, depth_min=14.0, depth_max=18.0,
        allow_truncated=True, allow_boundary_poses=True,
    )
    gt, dets, props = generate_scene(spec)
    u_min, _, u_max, _ = gt.objects.box[0]
    assert u_min == 0.0 < u_max  # clamped at the left border, partly in view
    rows = decode_rows(dets, props, astuple(gt.camera))
    result = lift_batch(rows, (spec.image_width, spec.image_height))
    assert list(result.status) == ["truncated_init_only"]
    closed_form = lift_batch(rows, (spec.image_width, spec.image_height), SolverConfig(refine=False))
    assert np.array_equal(result.location, closed_form.location)


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSceneSpec(n_objects_min=0)
    with pytest.raises(ValueError):
        SyntheticSceneSpec(depth_min=10.0, depth_max=5.0)
    with pytest.raises(ValueError):
        SyntheticSceneSpec(box_noise_sigma=-1.0)
