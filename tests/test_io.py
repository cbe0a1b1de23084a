import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box3d import cli, kitti_io
from box3d.camera import Box2D, Box3D, CameraIntrinsics, Detection2D, Dimensions
from box3d.kitti_io import (
    DetectionTable,
    LabelTable,
    ParseError,
    PropertyTable,
    _property_columns,
    coerce_fields,
    join,
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
from box3d.properties import CAR_PRIOR
from box3d.solver import SolverConfig, decode_rows, lift_batch
from box3d.synthetic import SyntheticSceneSpec, exact_box2d, generate_scene
from box3d.viewpoints import away_from_viewpoint_boundaries, extremal_vertices

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
    k = CameraIntrinsics(*parse_calib([REAL_CALIB])[0])
    assert k.fu == pytest.approx(721.5377)
    assert k.fv == pytest.approx(721.5377)
    assert k.cu == pytest.approx(609.5593)
    assert k.cv == pytest.approx(172.854)


def test_parse_identity_like_calib():
    text = "P2: 1 0 0 0 0 1 0 0 0 0 1 0\n"
    k = CameraIntrinsics(*parse_calib([text])[0])
    assert (k.fu, k.fv, k.cu, k.cv) == (1.0, 1.0, 0.0, 0.0)


def test_parse_empty_calib_raises():
    with pytest.raises(ValueError):
        parse_calib([""])


def test_parse_wrong_count_raises():
    with pytest.raises(ValueError):
        parse_calib(["P2: 1 2 3\n"])


def test_calib_round_trip():
    k = CameraIntrinsics(721.5377, 720.1, 609.5593, 172.854)
    back = CameraIntrinsics(*parse_calib([write_calib(k)])[0])
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
    back = parse_labels([text]).objects
    assert len(back) == 2
    assert list(back.cls) == list(objs.cls)
    assert np.allclose(back.data, objs.data, atol=1e-6, equal_nan=True)
    assert np.array_equal(np.isnan(back.score), np.isnan(objs.score))
    # a second trip is byte-identical
    assert write_labels(back) == text


def test_dontcare_row_parsed_and_flagged():
    text = "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10\n"
    record = parse_labels([text]).objects
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
    assert parse_labels([with_score]).objects.score[0] == pytest.approx(0.87)
    assert math.isnan(parse_labels([without]).objects.score[0])


def test_wrong_column_count_raises():
    with pytest.raises(ValueError):
        parse_labels(["Car 1 2 3\n"])


# ---------------------------------------------------------------------------
# detections


def test_detections_round_trip():
    dets = DetectionTable([[10.0, 20.0, 110.0, 90.0, 0.75], [300.0, 100.0, 420.0, 200.0, 0.5]],
                          ["Car", "Cyclist"])
    text = write_detections(dets)
    back = parse_detections([text]).objects
    assert list(back) == [
        Detection2D(Box2D(10.0, 20.0, 110.0, 90.0), 0.75, "Car"),
        Detection2D(Box2D(300.0, 100.0, 420.0, 200.0), 0.5, "Cyclist"),
    ]


def test_detection_wrong_columns_raise():
    with pytest.raises(ValueError):
        parse_detections(["Car 1 2 3\n"])


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
    back = parse_properties([text]).objects
    assert len(back) == 2 and back.n_bins == 2
    assert back.viewpoint.tolist() == record.viewpoint.tolist()
    assert np.allclose(back.dim_residual, record.dim_residual)
    assert np.allclose(back.cbf_offset, record.cbf_offset)
    assert np.allclose(back.bins, record.bins)


def test_properties_header_required():
    with pytest.raises(ValueError):
        parse_properties(["1 2 3\n"])


# ---------------------------------------------------------------------------
# parser errors: ValueError naming the 1-based line


def test_label_occlusion_overflow_is_value_error():
    good = "Car 0 0 0.5 10 10 50 50 1.5 1.6 3.9 1 1.6 20 0.3\n"
    with pytest.raises(ValueError, match=r"^line 3: "):
        parse_labels([good + "\n" + good.replace(" 0 0 ", " 0 1e400 ", 1)])
    with pytest.raises(ValueError, match=r"^line 1: "):
        parse_labels([good.replace(" 0 0 ", " 0 nan ", 1)])


def test_label_non_finite_number_names_line():
    good = "Car 0 0 0 1 2 3 4 1.5 1.6 3.9 0 1.6 20 0.1\n"
    parse_labels([good])
    for bad in ("nan", "inf", "-1e400"):
        with pytest.raises(ValueError, match=r"^line 2: label row has a non-finite number"):
            parse_labels([good + good.replace(" 1.6 20 ", f" {bad} 20 ", 1)])


def test_detection_error_names_line():
    with pytest.raises(ValueError, match=r"^line 2: detection row has 4 columns"):
        parse_detections(["Car 1 2 3 4 0.5\nCar 1 2 3\n"])
    with pytest.raises(ValueError, match=r"^line 1: could not convert"):
        parse_detections(["Car 1 2 x 4 0.5\n"])


def test_property_error_line_counts_header():
    lines = write_properties(_property_fixture()).splitlines()
    with pytest.raises(ValueError, match=r"^line 4: invalid literal for int"):
        parse_properties(["\n".join([lines[0], lines[1], "", lines[2].replace(" 3 ", " 1.5 ", 1)])])
    with pytest.raises(ValueError, match=r"^line 2: int too large to convert to float"):
        parse_properties(["\n".join([lines[0], lines[2].replace(" 3 ", f" {'9' * 400} ", 1)])])
    with pytest.raises(ValueError, match=r"^line 2: property row has 1 columns"):
        parse_properties([lines[0] + "\nfoo\n"])
    with pytest.raises(ValueError, match=r"^line 2: property file must start"):
        parse_properties(["\n1 2 3\n"])
    with pytest.raises(ValueError, match=r"^line 1: unexpected property columns"):
        parse_properties(["# dh dw\n"])


_coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
_names = st.sampled_from(["Car", "Van", "Pedestrian", "DontCare"])


def _at_written_precision(x):
    return float(f"{x:.6f}")


@given(st.lists(st.tuples(_names, st.lists(_coords, min_size=5, max_size=5)), max_size=5))
@settings(max_examples=100)
def test_detections_round_trip_at_written_precision(rows):
    dets = DetectionTable([v for _, v in rows], [name for name, _ in rows])
    text = write_detections(dets)
    back = parse_detections([text]).objects
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
    back = parse_labels([text]).objects
    assert list(back.cls) == list(objs.cls)
    assert back.occluded.tolist() == objs.occluded.tolist()
    assert np.array_equal(np.isnan(back.score), np.isnan(objs.score))
    # every number but the occlusion level and the score
    columns = [0, *range(2, 14)]
    assert back.data[:, columns].tolist() == [
        [_at_written_precision(x) for x in row] for row in objs.data[:, columns].tolist()
    ]
    assert write_labels(back) == text


_ULP_NEAR_1E9 = 2.0 ** -23  # the spacing of floats in [2**29, 2**30)


def _signs(x):
    return st.sampled_from([x, -x])


_label_numbers = st.one_of(  # each written with at most 9 whole digits
    # ties of the millionths: (2k + 1) / 2e6 is within an ulp of a half
    st.integers(0, 10**15 - 10**7).map(lambda k: (2 * k + 1) / 2e6),
    st.integers(0, 10**6).map(lambda k: (2 * k + 1) / 128),  # exact ties
    st.floats(min_value=-5e-7, max_value=0.0, exclude_min=True),  # written as -0.000000
    st.floats(min_value=-999999999.0, max_value=999999999.0),
).flatmap(_signs)
_label_rows_st = st.lists(
    st.tuples(
        st.one_of(_names, st.sampled_from(["", "Pédestrian", "車"]),
                  st.text(st.characters(blacklist_characters="\0"), max_size=4)),
        st.one_of(st.sampled_from([-1.5, -0.5, -0.0, 2.0]), st.floats(min_value=-999999999.0, max_value=999999999.0)),
        st.lists(_label_numbers, min_size=13, max_size=13),
        st.one_of(st.just(math.nan), _label_numbers),
    ),
    min_size=1, max_size=8,
)
# a number that may take the table out of the array pass's range
_edge_numbers = st.one_of(
    st.integers(-8, 8).map(lambda i: 1e9 - 5e-7 + i * _ULP_NEAR_1E9),  # rounds to 1e9 or below it
    st.sampled_from([math.inf, math.nan]),
).flatmap(_signs)


@given(_label_rows_st, st.none() | st.tuples(st.integers(0, 7), st.integers(0, 14), _edge_numbers))
@settings(max_examples=150, deadline=None)
def test_label_array_pass_writes_the_row_formatters_bytes(rows, edge):
    # the array pass, called directly so that small tables are covered too
    data = np.array([[v[0], occluded, *v[1:], score] for _, occluded, v, score in rows])
    if edge is not None:
        row, col, value = edge
        data[row % len(data), col] = value
    table = LabelTable(data, [name for name, *_ in rows])
    # it writes the table unless a number is not finite (but a NaN score) or
    # is written with 10 whole digits, or the occlusion level has 10 digits
    scores = data[:, 14]
    numbers = [*data[:, [0, *range(2, 14)]].ravel().tolist(), *scores[~np.isnan(scores)].tolist()]
    falls_back = (any(not math.isfinite(x) or len(f"{abs(x):.6f}") > 16 for x in numbers)
                  or not (abs(data[:, 1]) < 1e9).all())
    text = kitti_io._label_array(table)
    assert (text is None) == falls_back
    if text is not None:
        assert text == kitti_io._label_rows(table)


def _label_rows_to_fall_back():
    n = kitti_io.LABEL_ARRAY_MIN_ROWS
    data = np.tile(_labels_fixture().data, (n, 1))[:n]
    return LabelTable(data, ["Car"] * n)


def _with(table, row, col, value):
    data = table.data.copy()
    data[row, col] = value
    return LabelTable(data, table.cls)


@pytest.mark.parametrize("change", [
    lambda t: _with(t, 3, 5, math.nan),
    lambda t: _with(t, 3, 0, math.inf),
    lambda t: _with(t, 3, 14, -math.inf),  # a score: only NaN means none
    lambda t: _with(t, 3, 12, 1e9 - 5e-7),  # written as 1000000000.000000
    lambda t: _with(t, 3, 1, -1e9),
    lambda t: LabelTable(t.data, [*t.cls[:-1], "Car\0"]),
    lambda t: t[:-1],  # below the crossover
], ids=["nan", "inf", "score_inf", "rounds_to_1e9", "occluded_1e9", "nul_in_name", "few_rows"])
def test_write_labels_falls_back_to_the_row_formatter(change):
    table = change(_label_rows_to_fall_back())
    assert len(table) < kitti_io.LABEL_ARRAY_MIN_ROWS or kitti_io._label_array(table) is None
    assert write_labels(table) == kitti_io._label_rows(table)


@pytest.mark.parametrize("occluded, error", [(math.nan, ValueError), (math.inf, OverflowError),
                                             (-math.inf, OverflowError)])
def test_write_labels_of_a_non_finite_occlusion_level_raises_what_int_raises(occluded, error):
    table = _with(_label_rows_to_fall_back(), 3, 1, occluded)
    with pytest.raises(error) as row_formatter:
        kitti_io._label_rows(table)
    with pytest.raises(error) as written:
        write_labels(table)
    assert str(written.value) == str(row_formatter.value)


def test_write_labels_of_a_large_table_equals_the_row_formatter():
    rng = np.random.default_rng(3)
    data = rng.normal(0.0, 10.0 ** rng.integers(-7, 9, (2000, 15)))
    data[:, 1] = rng.integers(-1, 4, 2000)
    data[::2, 14] = math.nan
    table = LabelTable(data, rng.choice(["Car", "Van", "DontCare"], 2000))
    assert kitti_io._label_array(table) is not None
    assert write_labels(table) == kitti_io._label_rows(table)


def _parse_or_line_error(parse, text, prefix="line "):
    try:
        parse([text])
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
    for parse in (parse_labels, parse_detections, lambda t: parse_properties([header + "\n" + t[0]])):
        _parse_or_line_error(parse, text)


# ---------------------------------------------------------------------------
# the block parse against the per-file parse it replaced


def _label_values(parts):
    if len(parts) not in (15, 16):
        raise ValueError(f"label row has {len(parts)} columns, expected 15 or 16")
    vals = [float(x) for x in parts[1:]]
    if not all(map(math.isfinite, vals)):
        raise ValueError("label row has a non-finite number")
    vals[1] = float(int(vals[1]))  # the occlusion level
    if len(vals) == 14:
        vals.append(math.nan)
    return vals


def _detection_values(parts):
    if len(parts) != 6:
        raise ValueError(f"detection row has {len(parts)} columns, expected 6")
    return [float(x) for x in parts[1:]]


def _property_values(parts, width):
    if len(parts) != width:
        raise ValueError(f"property row has {len(parts)} columns, expected {width}")
    vals = [float(x) for x in parts]
    # an integer class; OverflowError for one no float holds
    vals[3] = float(int(parts[3]))
    return vals


def _file_rows(lines, values):
    """Reference: class names and values(tokens) of the non-blank lines among
    numbered (n, line) pairs; a bad row raises ValueError("line N: ...")."""
    names, rows = [], []
    for n, line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            rows.append(values(parts))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {n}: {exc}") from exc
        names.append(parts[0])
    return names, rows


def _labels_file(text):
    """Reference: one label file parsed a row at a time."""
    names, rows = _file_rows(enumerate(text.splitlines(), start=1), _label_values)
    return LabelTable(rows, names)


def _detections_file(text):
    """Reference: one detection file parsed a row at a time."""
    names, rows = _file_rows(enumerate(text.splitlines(), start=1), _detection_values)
    return DetectionTable(rows, names)


def _properties_file(text):
    """Reference: one property file parsed a row at a time, after its header."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    n, header = lines[0] if lines else (1, "")
    if not header.lstrip().startswith("#"):
        raise ValueError(f"line {n}: property file must start with a '# <columns>' header")
    cols = header.lstrip("# ").split()
    expected = _property_columns(max(1, sum(1 for c in cols if c.startswith("conf"))))
    if cols != expected:
        raise ValueError(f"line {n}: unexpected property columns {cols}, expected {expected}")
    _, rows = _file_rows(lines[1:], lambda parts: _property_values(parts, len(cols)))
    return PropertyTable(np.array(rows, dtype=float).reshape(-1, len(cols)))


_KINDS = {
    "labels": (parse_labels, _labels_file),
    "detections": (parse_detections, _detections_file),
    "properties": (parse_properties, _properties_file),
}
_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 20).map(str),
    st.sampled_from(["-0.0", "-0.5", "1e5", "+3", "1_0", "0.000001"]),
)
_blank = st.sampled_from(["", " ", "\t", "  \t "])
_separator = st.sampled_from(["\n", "\r\n", "\r", "\x0c"])


@st.composite
def _frame_text(draw, kind, n_bins):
    """One frame's text: valid rows of `kind` among blank lines, with mixed
    line breaks and an optional final one."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        if kind == "properties":
            values = draw(st.lists(_number, min_size=6 + 3 * n_bins, max_size=6 + 3 * n_bins))
            values[3] = str(draw(st.integers(0, 15)))
            rows.append(" ".join(values))
        else:
            width = draw(st.sampled_from([14, 15])) if kind == "labels" else 5
            rows.append(" ".join([draw(_names), *draw(st.lists(_number, min_size=width, max_size=width))]))
    lines = []
    for row in rows:
        lines += draw(st.lists(_blank, max_size=2)) + [row]
    if kind == "properties":
        lines = [*draw(st.lists(_blank, max_size=1)), "# " + " ".join(_property_columns(n_bins)), *lines]
    text = "".join(line + draw(_separator) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n\x0c")


def _tokens_replaced(text, data):
    """text with one of its tokens replaced, if it has one."""
    tokens = re.split(r"(\s+)", text)
    words = [i for i, t in enumerate(tokens) if t and not t.isspace()]
    if words:
        tokens[data.draw(st.sampled_from(words))] = data.draw(_token)
    return "".join(tokens)


def _reference(kind, texts):
    """The per-file parse of a run: (tables, None), or (None, (frame, message))
    for the first frame that fails, in frame order: its own rows, then a bin
    count that differs from the first frame's."""
    tables = []
    for f, text in enumerate(texts):
        try:
            tables.append(_KINDS[kind][1](text))
        except ValueError as exc:
            return None, (f, str(exc))
        if kind == "properties" and tables[f].n_bins != tables[0].n_bins:
            return None, (f, f"{tables[f].n_bins} orientation bins, the block's first frame has {tables[0].n_bins}")
    return tables, None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_block_parse_equals_per_file_parse(data):
    """A run of several frames parsed in blocks, at a block budget of one byte
    and of more than the run, gives the per-file parse's rows and offsets, or
    the per-file parse's first error naming the same frame and line.  A
    property text with a bin count of its own may come before the text with
    a replaced token; the cli half covers faults inside one text, as a block
    of one frame has no bin count to differ from."""
    kind = data.draw(st.sampled_from(sorted(_KINDS)))
    n_bins = data.draw(st.integers(1, 3))
    texts = data.draw(st.lists(_frame_text(kind, n_bins), min_size=1, max_size=6))
    f = len(texts)
    if data.draw(st.booleans()):
        f = data.draw(st.integers(0, len(texts) - 1))
        texts[f] = _tokens_replaced(texts[f], data)
    if kind == "properties" and data.draw(st.booleans()):
        other = data.draw(st.sampled_from([b for b in (1, 2, 3) if b != n_bins]))
        texts.insert(data.draw(st.integers(0, f)), data.draw(_frame_text(kind, other)))
    tables, fault = _reference(kind, texts)
    parse = _KINDS[kind][0]

    if fault:
        with pytest.raises(ParseError) as info:
            parse(texts)
        assert (info.value.frame, str(info.value)) == fault
    else:
        block = parse(texts)
        expected = type(tables[0]).concatenate(tables)
        assert block.objects.data.tobytes() == expected.data.tobytes()  # -0.0 and NaN included
        assert block.objects.data.shape == expected.data.shape
        assert (block.objects.cls is None) == (expected.cls is None)
        if expected.cls is not None:
            assert block.objects.cls.tolist() == expected.cls.tolist()
        assert block.offsets.tolist() == np.cumsum([0, *map(len, tables)]).tolist()

    if fault and _reference(kind, [texts[fault[0]]])[1] is None:
        return  # the bin counts differ, which no block of one frame shows
    frames = [f"{i:06d}" for i in range(len(texts))]
    for budget in (1, sum(map(len, texts)) + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "BLOCK_BYTES", budget)
            reader = dict(zip(frames, texts)).__getitem__
            if fault:
                with pytest.raises(SystemExit) as info:
                    cli._parse_blocks(frames, [reader], lambda t: parse(cli._texts(t)))
                assert info.value.code == f"frame {frames[fault[0]]}: {fault[1]}"
            else:
                run = join(cli._parse_blocks(frames, [reader], lambda t: parse(cli._texts(t))))
                assert run.objects.data.tobytes() == block.objects.data.tobytes()
                assert run.offsets.tolist() == block.offsets.tolist()
                if block.objects.cls is not None:
                    assert run.objects.cls.tolist() == block.objects.cls.tolist()


def _calib_file(text):
    """Reference: one calibration file parsed on its own, as fu, fv, cu, cv."""
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("P2:"):
            continue
        values = line.split(":", 1)[1].split()
        if len(values) != 12:
            raise ValueError(f"P2 line has {len(values)} numbers, expected 12")
        p = [float(v) for v in values]
        return astuple(CameraIntrinsics(fu=p[0], fv=p[5], cu=p[2], cv=p[6]))
    raise ValueError("no P2 line in calibration file")


@st.composite
def _calib_text(draw):
    """One calibration file: a P2 line among other matrices and blank lines,
    or none; numbers written at full precision or as short tokens."""
    p2 = [draw(st.one_of(_number, st.floats(0.1, 2000.0).map(repr))) for _ in range(12)]
    lines = [*draw(st.lists(st.sampled_from(["", "  ", "P0: 1 0 0 0 0 1 0 0 0 0 1 0", "R0_rect: 1 0 0"]),
                            max_size=2)),
             *([] if draw(st.integers(0, 9)) == 0 else [" P2: " + " ".join(p2)]),
             *draw(st.lists(st.sampled_from(["P3: 1 2 3", "P2: 1 2", ""]), max_size=2))]
    return "".join(line + draw(_separator) for line in lines)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_block_calib_parse_equals_per_file_parse(data):
    """A block of calibration texts gives each file's own intrinsics, or the
    first failing file's error naming the same frame, through kitti_io and
    through cli._parse_blocks at a block budget of one byte and of more than
    the run."""
    texts = data.draw(st.lists(_calib_text(), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        f = data.draw(st.integers(0, len(texts) - 1))
        texts[f] = _tokens_replaced(texts[f], data)
    cameras, fault = [], None
    for f, text in enumerate(texts):
        try:
            cameras.append(_calib_file(text))
        except ValueError as exc:
            fault = (f, str(exc))
            break

    if fault:
        with pytest.raises(ParseError) as info:
            parse_calib(texts)
        assert (info.value.frame, str(info.value)) == fault
    else:
        assert parse_calib(texts).tolist() == [list(c) for c in cameras]
    frames = [f"{i:06d}" for i in range(len(texts))]
    for budget in (1, sum(map(len, texts)) + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "BLOCK_BYTES", budget)
            reader = dict(zip(frames, texts)).__getitem__
            if fault:
                with pytest.raises(SystemExit) as info:
                    cli._parse_blocks(frames, [reader], lambda t: parse_calib(cli._texts(t)))
                assert info.value.code == f"frame {frames[fault[0]]}: {fault[1]}"
            else:
                blocks = cli._parse_blocks(frames, [reader], lambda t: parse_calib(cli._texts(t)))
                assert np.concatenate(blocks).tolist() == [list(c) for c in cameras]


def test_block_parse_names_the_frame_whose_bins_differ():
    texts = [write_properties(PropertyTable(np.zeros((1, 6 + 3 * b)))) for b in (2, 2, 1)]
    with pytest.raises(ParseError, match="^1 orientation bins, the block's first frame has 2$") as info:
        parse_properties(texts)
    assert info.value.frame == 2


def test_block_parse_names_a_bad_row_and_a_bin_count_in_frame_order():
    two, one = (write_properties(PropertyTable(np.zeros((1, 6 + 3 * b)))) for b in (2, 1))
    with pytest.raises(ParseError, match="^1 orientation bins, the block's first frame has 2$") as info:
        parse_properties([two, one, two + "x\n"])
    assert info.value.frame == 1
    with pytest.raises(ParseError, match="^line 3: property row has 1 columns, expected 12$") as info:
        parse_properties([two, two + "x\n", one])
    assert info.value.frame == 1


@pytest.mark.parametrize("n_frames, n_rows", [(1, 1024), (1024, 1)])
def test_a_bad_row_is_named_in_logarithmically_many_parses(monkeypatch, n_frames, n_rows):
    calls = []

    def counted(texts, parse=kitti_io._labels):
        calls.append(len(texts))
        return parse(texts)

    monkeypatch.setattr(kitti_io, "_labels", counted)
    texts = [write_labels(LabelTable(np.zeros((n_rows, 15)), ["Car"] * n_rows))] * n_frames
    texts[-1] += "Car 1 2\n"
    with pytest.raises(ParseError, match=rf"^line {n_rows + 1}: label row has 3 columns, expected 15 or 16$") as info:
        parse_labels(texts)
    assert info.value.frame == n_frames - 1
    # the block; halves of the texts, then of the failing text's rows and the
    # text after the first; the bad row alone
    assert len(calls) <= 2 + math.ceil(math.log2(n_frames)) + math.ceil(math.log2(n_rows + 2))


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


@pytest.mark.parametrize("kwargs, message", [
    # below the bottom-face margin: the camera is never above the boxes
    ({"camera_height": -1.0}, "camera_height must be at least 0.02 unless allow_boundary_poses is set"),
    ({"camera_height": 0.01}, "camera_height must be at least 0.02 unless allow_boundary_poses is set"),
    # every box has the prior's height, and the camera is in its top plane
    ({"camera_height": CAR_PRIOR.mean_dims.h + 0.01}, "camera_height must be at least 0.02 from the car height"),
], ids=["below_the_camera", "inside_the_margin", "in_the_top_plane"])
def test_scene_spec_refuses_a_camera_height_that_leaves_no_pose(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        SyntheticSceneSpec(**kwargs)
    # the sampler agrees: no pose of that height passes the boundary check
    b = Box3D(np.array([2.0, kwargs["camera_height"], 20.0]), CAR_PRIOR.mean_dims, 0.5)
    assert not away_from_viewpoint_boundaries(b, 0.0)


@pytest.mark.parametrize("kwargs, message", [
    # every global yaw is within the margin of 0 deg, resp. 90 deg
    ({"yaw_min": 0.0, "yaw_max": 0.0}, "yaw_min and yaw_max must not both lie within boundary_margin_deg of 0 deg"),
    ({"yaw_min": math.pi / 2 - 0.03, "yaw_max": math.pi / 2 + 0.01},
     "yaw_min and yaw_max must not both lie within boundary_margin_deg of 90 deg"),
    # every local yaw is within the margin of a multiple of 45 deg
    ({"boundary_margin_deg": 22.5}, "boundary_margin_deg must be below 22.5 unless allow_boundary_poses is set"),
], ids=["yaw_on_a_boundary", "yaw_inside_the_margin", "margin_of_half_an_octant"])
def test_scene_spec_refuses_a_yaw_range_or_margin_that_leaves_no_pose(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        SyntheticSceneSpec(**kwargs)
    # the sampler agrees: no pose of a yaw in the range passes the boundary check
    spec = SyntheticSceneSpec(**kwargs, allow_boundary_poses=True)
    for yaw in np.linspace(spec.yaw_min, spec.yaw_max, 50):
        for x in (-5.0, 0.0, 5.0):
            b = Box3D(np.array([x, 1.65, 20.0]), CAR_PRIOR.mean_dims, yaw)
            assert not away_from_viewpoint_boundaries(b, math.radians(spec.boundary_margin_deg))


def test_scene_spec_keeps_a_yaw_range_that_reaches_past_the_margin():
    # one end exactly at the margin: a pose there is clear of the boundary
    SyntheticSceneSpec(yaw_min=-math.radians(2.0), yaw_max=0.0)
    gt, _, _ = generate_scene(SyntheticSceneSpec(yaw_min=-0.1, yaw_max=0.1, n_objects_min=1, n_objects_max=1))
    assert abs(gt.objects.yaw[0]) >= math.radians(2.0)
    # boundary poses are allowed
    generate_scene(SyntheticSceneSpec(yaw_min=0.0, yaw_max=0.0, boundary_margin_deg=30.0, allow_boundary_poses=True))


def test_scene_spec_keeps_camera_heights_that_can_be_sampled():
    # jittered heights leave poses clear of the top plane
    generate_scene(SyntheticSceneSpec(camera_height=CAR_PRIOR.mean_dims.h + 0.01, dims_sigma=0.05))
    # boundary poses are allowed, as for the benchmark's cars above the camera
    gt, _, _ = generate_scene(SyntheticSceneSpec(camera_height=-1.0, allow_boundary_poses=True))
    assert (gt.objects.location[:, 1] == -1.0).all()
