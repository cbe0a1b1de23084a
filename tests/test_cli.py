import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from box3d.cli import main
from box3d.kitti_io import parse_labels

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def pipeline_dirs(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--frames", "4", "--seed", "11"]) == 0
    return out


def test_synth_writes_all_subdirs(pipeline_dirs):
    for sub in ("calib", "detections", "properties", "gt"):
        files = list((pipeline_dirs / sub).glob("*.txt"))
        assert len(files) == 4


def test_solve_eval_round_trip(pipeline_dirs, tmp_path, capsys):
    results = tmp_path / "results"
    assert main([
        "solve", "--calib", str(pipeline_dirs / "calib"),
        "--detections", str(pipeline_dirs / "detections"),
        "--properties", str(pipeline_dirs / "properties"),
        "--out", str(results),
    ]) == 0
    json_path = tmp_path / "metrics.json"
    assert main([
        "eval", "--results", str(results), "--gt", str(pipeline_dirs / "gt"),
        "--iou", "0.7", "--json", str(json_path),
    ]) == 0
    table = json.loads(json_path.read_text())
    # exact synthetic data solves exactly
    assert table["AP3D@0.7"] == pytest.approx(1.0)
    assert table["OS"] == pytest.approx(1.0)
    assert table["E_d"] == pytest.approx(0.0, abs=1e-9)


def test_solve_no_refine_uses_closed_form_only(pipeline_dirs, tmp_path):
    refined = tmp_path / "refined"
    closed = tmp_path / "closed"
    for flag, out in (([], refined), (["--no-refine"], closed)):
        assert main([
            "solve", "--calib", str(pipeline_dirs / "calib"),
            "--detections", str(pipeline_dirs / "detections"),
            "--properties", str(pipeline_dirs / "properties"),
            "--out", str(out), *flag,
        ]) == 0
    frame = sorted(refined.glob("*.txt"))[0].name
    a = parse_labels((refined / frame).read_text())
    b = parse_labels((closed / frame).read_text())
    # same objects, but the locations differ in general (closed form is the
    # approximation stage)
    assert len(a) == len(b)


def _solve(data, out, *flags):
    return main([
        "solve", "--calib", str(data / "calib"), "--detections", str(data / "detections"),
        "--properties", str(data / "properties"), "--out", str(out), *flags,
    ])


def _skipped_rows(stderr):
    return [line.split(":")[1].split() for line in stderr.splitlines() if "skipped" in line]


def test_solve_skips_malformed_truncated_detections(tmp_path, capsys):
    spec = tmp_path / "spec.cfg"
    spec.write_text("allow_truncated = true\n")
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--frames", "20", "--seed", "0", "--spec", str(spec)]) == 0
    malformed, n_rows = set(), 0
    for path in sorted((data / "detections").glob("*.txt")):
        for j, line in enumerate(path.read_text().splitlines()):
            u0, v0, u1, v1 = map(float, line.split()[1:5])
            n_rows += 1
            if not (u0 < u1 and v0 < v1):
                malformed.add((path.stem, j))
    assert (len(malformed), n_rows) == (6, 61)
    capsys.readouterr()

    results = tmp_path / "results"
    assert _solve(data, results) == 0
    skipped = {(frame, int(row)) for _, frame, _, row in _skipped_rows(capsys.readouterr().err)}
    assert skipped == malformed
    assert len(list(results.glob("*.txt"))) == 20
    written = sum(len(parse_labels(p.read_text())) for p in results.glob("*.txt"))
    assert written == n_rows - len(malformed)


def test_solve_skips_non_finite_property_row(pipeline_dirs, tmp_path, capsys):
    props = pipeline_dirs / "properties" / "000001.txt"
    lines = props.read_text().splitlines()
    cols = lines[1].split()
    cols[5] = "nan"  # dv of the first row
    props.write_text("\n".join([lines[0], " ".join(cols), *lines[2:]]) + "\n")
    n_rows = len(lines) - 1

    results = tmp_path / "results"
    assert _solve(pipeline_dirs, results) == 0
    assert _skipped_rows(capsys.readouterr().err) == [["frame", "000001", "row", "0"]]
    text = (results / "000001.txt").read_text()
    assert "nan" not in text
    assert len(parse_labels(text)) == n_rows - 1


@pytest.mark.parametrize("token", ["nan", "1e400", "-inf"])
def test_solve_skips_non_finite_detection_row(pipeline_dirs, tmp_path, capsys, token):
    dets = pipeline_dirs / "detections" / "000003.txt"
    lines = dets.read_text().splitlines()
    cols = lines[0].split()
    cols[3] = token  # u_max of the first row
    dets.write_text("\n".join([" ".join(cols), *lines[1:]]) + "\n")

    results = tmp_path / "results"
    assert _solve(pipeline_dirs, results) == 0
    err = capsys.readouterr().err
    assert _skipped_rows(err) == [["frame", "000003", "row", "0"]]
    assert "(non_finite)" in err
    text = (results / "000003.txt").read_text()
    assert len(parse_labels(text)) == len(lines) - 1


def test_solve_malformed_file_exits_with_frame_and_line(pipeline_dirs, tmp_path):
    dets = pipeline_dirs / "detections" / "000002.txt"
    lines = dets.read_text().splitlines()
    lines[-1] += " 0.5"
    dets.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit, match=rf"^frame 000002: line {len(lines)}: detection row has 7 columns"):
        _solve(pipeline_dirs, tmp_path / "results")


def test_depurate_and_eval_malformed_result_exit_with_frame_and_line(pipeline_dirs, tmp_path):
    results = tmp_path / "results"
    assert _solve(pipeline_dirs, results) == 0
    path = results / "000001.txt"
    n_line = len(path.read_text().splitlines()) + 1
    with path.open("a") as f:
        f.write("Car 1 2\n")
    expected = rf"^frame 000001: line {n_line}: label row has 3 columns, expected 15 or 16$"
    with pytest.raises(SystemExit, match=expected):
        main(["depurate", "--in", str(results), "--calib", str(pipeline_dirs / "calib"),
              "--out", str(tmp_path / "kept")])
    with pytest.raises(SystemExit, match=expected):
        main(["eval", "--results", str(results), "--gt", str(pipeline_dirs / "gt")])


def test_depurate_malformed_result_exits_before_writing(tmp_path):
    data, results, kept = tmp_path / "data", tmp_path / "results", tmp_path / "kept"
    assert main(["synth", "--out", str(data), "--frames", "3", "--seed", "11"]) == 0
    assert _solve(data, results) == 0
    path = results / "000002.txt"
    n_line = len(path.read_text().splitlines()) + 1
    with path.open("a") as f:
        f.write("Car 1 2\n")
    with pytest.raises(SystemExit, match=rf"^frame 000002: line {n_line}: label row has 3 columns"):
        main(["depurate", "--in", str(results), "--calib", str(data / "calib"), "--out", str(kept)])
    assert not kept.exists()


def test_solve_missing_properties_file_exits_before_writing(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--frames", "3", "--seed", "11"]) == 0
    missing = data / "properties" / "000002.txt"
    missing.unlink()
    results = tmp_path / "results"
    with pytest.raises(SystemExit, match=rf"^frame 000002: missing properties file {re.escape(str(missing))}$"):
        _solve(data, results)
    assert not results.exists()


def test_eval_reports_result_frames_without_ground_truth(pipeline_dirs, tmp_path, capsys):
    results, kept = tmp_path / "results", tmp_path / "kept"
    assert _solve(pipeline_dirs, results) == 0
    assert main(["depurate", "--in", str(results), "--calib", str(pipeline_dirs / "calib"),
                 "--out", str(kept)]) == 0
    n_det = len(parse_labels((kept / "000001.txt").read_text()))
    (pipeline_dirs / "gt" / "000001.txt").unlink()
    capsys.readouterr()
    json_path = tmp_path / "metrics.json"
    assert main(["eval", "--results", str(kept), "--gt", str(pipeline_dirs / "gt"),
                 "--json", str(json_path)]) == 0
    # one line for the unscored frame, none for the depuration report
    assert capsys.readouterr().err.splitlines() == [
        f"box3d eval: frame 000001: not scored ({n_det} detections, no ground-truth file)"
    ]
    assert json.loads(json_path.read_text())["n_det"] == sum(
        len(parse_labels((kept / f"{i:06d}.txt").read_text())) for i in (0, 2, 3)
    )


def test_solve_refine_field_matches_no_refine_flag(pipeline_dirs, tmp_path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("refine = false\n")
    assert _solve(pipeline_dirs, tmp_path / "flag", "--no-refine") == 0
    assert _solve(pipeline_dirs, tmp_path / "field", "--config", str(cfg)) == 0
    for path in sorted((tmp_path / "flag").glob("*.txt")):
        assert path.read_text() == (tmp_path / "field" / path.name).read_text()


def test_depurate_cli(pipeline_dirs, tmp_path):
    results = tmp_path / "results"
    main([
        "solve", "--calib", str(pipeline_dirs / "calib"),
        "--detections", str(pipeline_dirs / "detections"),
        "--properties", str(pipeline_dirs / "properties"),
        "--out", str(results),
    ])
    kept = tmp_path / "kept"
    assert main([
        "depurate", "--in", str(results), "--calib", str(pipeline_dirs / "calib"),
        "--out", str(kept),
    ]) == 0
    assert (kept / "depuration_report.txt").exists()
    n_in = sum(len(parse_labels(p.read_text())) for p in results.glob("*.txt"))
    n_out = sum(len(parse_labels(p.read_text())) for p in kept.glob("*.txt"))
    assert n_out == n_in  # exact scenes lose nothing


def test_viewpoint_table_command(capsys):
    assert main(["viewpoint-table"]) == 0
    out = capsys.readouterr().out
    assert "viewpoint 15" in out
    assert out.count("left/u_min") == 16


def test_depuration_config_override(pipeline_dirs, tmp_path):
    results = tmp_path / "results"
    main([
        "solve", "--calib", str(pipeline_dirs / "calib"),
        "--detections", str(pipeline_dirs / "detections"),
        "--properties", str(pipeline_dirs / "properties"),
        "--out", str(results),
    ])
    cfg = tmp_path / "dep.cfg"
    # absurdly tight dims band plus adjacency never firing: still one soft rule
    cfg.write_text("dim_tolerance = 0.0\n")
    kept = tmp_path / "kept"
    assert main([
        "depurate", "--in", str(results), "--calib", str(pipeline_dirs / "calib"),
        "--out", str(kept), "--config", str(cfg),
    ]) == 0


def test_solve_skips_row_with_unknown_viewpoint_class(pipeline_dirs, tmp_path, capsys):
    props = pipeline_dirs / "properties" / "000001.txt"
    lines = props.read_text().splitlines()
    cols = lines[2].split()
    cols[3] = "16"  # viewpoint class of the second row
    props.write_text("\n".join([*lines[:2], " ".join(cols), *lines[3:]]) + "\n")
    n_rows = len(lines) - 1

    results = tmp_path / "results"
    assert _solve(pipeline_dirs, results) == 0
    err = capsys.readouterr().err
    assert _skipped_rows(err) == [["frame", "000001", "row", "1"]]
    assert "(degenerate_input)" in err
    assert len(list(results.glob("*.txt"))) == 4
    assert len(parse_labels((results / "000001.txt").read_text())) == n_rows - 1


def test_eval_non_finite_ground_truth_exits_with_frame_and_line(pipeline_dirs, tmp_path):
    results = tmp_path / "results"
    assert _solve(pipeline_dirs, results) == 0
    path = pipeline_dirs / "gt" / "000002.txt"
    n_line = len(path.read_text().splitlines()) + 1
    with path.open("a") as f:
        f.write("Car 0 0 0 1 2 3 4 1.5 1.6 3.9 0 nan 20 0.1\n")
    with pytest.raises(SystemExit, match=rf"^frame 000002: line {n_line}: label row has a non-finite number$"):
        main(["eval", "--results", str(results), "--gt", str(pipeline_dirs / "gt")])


def test_eval_exits_when_the_dimension_error_overflows(pipeline_dirs, tmp_path):
    results = tmp_path / "results"
    assert _solve(pipeline_dirs, results) == 0
    path = pipeline_dirs / "gt" / "000002.txt"
    cols = path.read_text().splitlines()[0].split()
    cols[8] = "1e300"  # the height of the first ground truth
    path.write_text(" ".join(cols) + "\n")
    with pytest.raises(SystemExit, match=r"^frame 000002: the dimension error overflows a float$"):
        main(["eval", "--results", str(results), "--gt", str(pipeline_dirs / "gt")])


def test_eval_overflowing_dimension_error_prints_no_numpy_warning(pipeline_dirs, tmp_path):
    results = tmp_path / "results"
    assert _solve(pipeline_dirs, results) == 0
    # h = 1e200 on the ground truth closest to the frame's first detection
    path = pipeline_dirs / "gt" / "000002.txt"
    gt = parse_labels(path.read_text())
    first = parse_labels((results / "000002.txt").read_text()).location[0]
    closest = int(np.linalg.norm(gt.location - first, axis=1).argmin())
    lines = path.read_text().splitlines()
    cols = lines[closest].split()
    cols[8] = "1e200"
    lines[closest] = " ".join(cols)
    path.write_text("\n".join(lines) + "\n")
    out = subprocess.run(
        [sys.executable, "-m", "box3d.cli", "eval", "--results", str(results), "--gt", str(pipeline_dirs / "gt")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert "Warning" not in out.stderr
    assert (out.returncode, out.stderr) == (1, "frame 000002: the dimension error overflows a float\n")


@pytest.mark.parametrize("text, message", [
    ("refine = ture\n", "config key 'refine': expected one of"),
    ("bogus = 1\n", "unknown config key 'bogus'"),
    ("max_iterations = 1.5\n", "config key 'max_iterations': invalid literal"),
    ("refine false\n", "expected 'key = value'"),
    ("truncation_margin_px = nan\n", "truncation_margin_px must be a non-negative number, got nan"),
    ("max_iterations = -3\n", "max_iterations must be a non-negative number, got -3"),
])
def test_bad_config_file_exits_naming_it(pipeline_dirs, tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    expected = rf"^config {re.escape(str(cfg))}: .*{re.escape(message)}"
    with pytest.raises(SystemExit, match=expected):
        _solve(pipeline_dirs, tmp_path / "results", "--config", str(cfg))
    assert not (tmp_path / "results").exists()
    with pytest.raises(SystemExit, match=rf"^config {re.escape(str(cfg))}: "):
        main(["depurate", "--in", str(pipeline_dirs / "gt"), "--calib", str(pipeline_dirs / "calib"),
              "--out", str(tmp_path / "kept"), "--config", str(cfg)])
    with pytest.raises(SystemExit, match=rf"^config {re.escape(str(cfg))}: "):
        main(["synth", "--out", str(tmp_path / "synth"), "--frames", "1", "--spec", str(cfg)])


@pytest.mark.parametrize("text, message", [
    ("vertical_slack = nan\n", "vertical_slack must be a non-negative number, got nan"),
    ("vertical_centers =\n", "vertical_centers must be one or more finite numbers"),
    ("vertical_centers = 1.2, inf\n", "vertical_centers must be one or more finite numbers"),
])
def test_bad_depuration_config_exits_naming_it(pipeline_dirs, tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit, match=rf"^config {re.escape(str(cfg))}: {re.escape(message)}$"):
        main(["depurate", "--in", str(pipeline_dirs / "gt"), "--calib", str(pipeline_dirs / "calib"),
              "--out", str(tmp_path / "kept"), "--config", str(cfg)])
    assert not (tmp_path / "kept").exists()


@pytest.mark.parametrize("size", ["1242", "0x375", "1242x-5", "infx375", "1242xnan", "axb", "1x2x3"])
def test_solve_rejects_bad_image_size(pipeline_dirs, tmp_path, capsys, size):
    with pytest.raises(SystemExit) as exc:
        _solve(pipeline_dirs, tmp_path / "results", "--image-size", size)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --image-size" in err and "Traceback" not in err
    assert not (tmp_path / "results").exists()


def test_solve_counts_boxes_past_the_image(pipeline_dirs, tmp_path, capsys):
    assert _solve(pipeline_dirs, tmp_path / "full") == 0
    assert "reach past" not in capsys.readouterr().err  # synth clips boxes to the image

    boxes = np.array([
        [float(v) for v in line.split()[1:5]]
        for path in sorted((pipeline_dirs / "detections").glob("*.txt"))
        for line in path.read_text().splitlines()
    ])
    outside = int(((boxes[:, 2] > 600) | (boxes[:, 3] > 200)).sum())
    assert 0 < outside < len(boxes)
    assert _solve(pipeline_dirs, tmp_path / "small", "--image-size", "600x200") == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "reach past" in line]
    assert lines == [f"box3d solve: {outside} of {len(boxes)} detection boxes reach past the 600x200 image"]


# ---------------------------------------------------------------------------
# one token or one byte of one file replaced: a clean exit or one named line


_SOLVER_CFG = "max_iterations = 100\nstep_tol = 1e-6\ndamping = 1e-9\ntruncation_margin_px = 10\n"
_DEPURATION_CFG = ("dim_tolerance = 0.5\nvertical_centers = 1.28842871, 1.72911, 2.2184\n"
                   "vertical_slack = 0.75\ndepth_gap_max = 10\n")
_replacement = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e300", "-1e300", "1e-300",
                     "0", "-0", "-1", "15", "16", "1.5", "", "x", "#", "=", ",", "Car", "DontCare"]),
    st.floats().map(repr),
    st.text(max_size=3),
)
_byte = st.one_of(st.sampled_from(b" \n\t0123456789.-+eExn#=,"), st.integers(0, 255))

# the mutated file: an input, a config file, or a result file of `box3d solve`
RESULTS = "results"


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    """Each input file of a 3-frame synth run and two config files, by relative path."""
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--frames", "3", "--seed", "5"]) == 0
    files = {str(p.relative_to(out)): p.read_text() for p in sorted(out.rglob("*.txt"))}
    return {**files, "solver.cfg": _SOLVER_CFG, "depuration.cfg": _DEPURATION_CFG}


def _mutated(text, data):
    """text with one of its tokens, or one of its bytes, replaced."""
    if data.draw(st.booleans()):
        raw = bytearray(text.encode())
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(_byte)
        return bytes(raw)
    tokens = re.split(r"(\s+)", text)
    words = [i for i, t in enumerate(tokens) if t and not t.isspace()]
    tokens[data.draw(st.sampled_from(words))] = data.draw(_replacement)
    return "".join(tokens).encode()


def _exit_line(argv):
    """None on exit 0, else the one-line message the command exited with."""
    try:
        assert main(argv) == 0
        return None
    except SystemExit as exc:
        message = str(exc.code)
        assert re.fullmatch(r"(frame \d{6}|config \S+): [^\n]+", message), message
        return message


def _assert_finite_numbers(directory):
    for path in directory.glob("*.txt"):
        if path.name == "depuration_report.txt":
            continue
        for line in path.read_text().splitlines():
            # the class name is the first column; the rest are numbers
            assert all(math.isfinite(float(v)) for v in line.split()[1:]), (path, line)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_survives_one_replaced_token(synth_inputs, data):
    name = data.draw(st.sampled_from([*sorted(synth_inputs), RESULTS]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in synth_inputs.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(_mutated(text, data) if rel == name else text.encode())
        results, kept, table = root / "results", root / "kept", root / "table.json"
        if _exit_line(["solve", "--calib", str(root / "calib"), "--detections", str(root / "detections"),
                       "--properties", str(root / "properties"), "--out", str(results),
                       "--config", str(root / "solver.cfg")]) is not None:
            return
        _assert_finite_numbers(results)
        if name == RESULTS:
            path = results / data.draw(st.sampled_from(sorted(p.name for p in results.glob("*.txt"))))
            path.write_bytes(_mutated(path.read_text(), data))
        if _exit_line(["depurate", "--in", str(results), "--calib", str(root / "calib"),
                       "--out", str(kept), "--config", str(root / "depuration.cfg")]) is None:
            _assert_finite_numbers(kept)
        if _exit_line(["eval", "--results", str(results), "--gt", str(root / "gt"),
                       "--json", str(table)]) is None:
            json.loads(table.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in the table"))
