import hashlib
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

from box3d import cli
from box3d.cli import _write, main
from box3d.depuration import DEFAULT_DEPURATION_CONFIG, depurate
from box3d.kitti_io import PropertyTable, parse_calib, parse_labels, parse_properties, write_labels, write_properties

SRC = Path(__file__).resolve().parent.parent / "src"

# sha256 of the stdout of `box3d viewpoint-table`
VIEWPOINT_TABLE_SHA256 = "f70618594883caeeeaa73c903929a7104fce6e068c2575c866cf4201c8f5cb6a"


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
    a = parse_labels([(refined / frame).read_text()]).objects
    b = parse_labels([(closed / frame).read_text()]).objects
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
    written = sum(len(parse_labels([p.read_text()]).objects) for p in results.glob("*.txt"))
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
    assert len(parse_labels([text]).objects) == n_rows - 1


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
    assert len(parse_labels([text]).objects) == len(lines) - 1


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


def _first_fault_case(data, tmp_path, case):
    """The argv of a run with two faults, and the message of the one that
    comes first in frame order, and within a frame in the order of the
    command's reads and parses."""
    results = tmp_path / "results"
    assert _solve(data, results) == 0
    depurate_argv = ["depurate", "--in", str(results), "--calib", str(data / "calib"), "--out", str(tmp_path / "kept")]
    eval_argv = ["eval", "--results", str(results), "--gt", str(data / "gt")]

    def malformed(path):
        n_line = len(path.read_text().splitlines()) + 1
        with path.open("a") as f:
            f.write("Car 1 2\n")
        return n_line

    if case == "solve: a bad row, then a missing file":
        path = data / "detections" / "000001.txt"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines[:-1], lines[-1] + " 0.5"]) + "\n")
        (data / "properties" / "000003.txt").unlink()
        return _solve_argv(data, tmp_path / "again"), \
            f"frame 000001: line {len(lines)}: detection row has 7 columns, expected 6"
    if case == "solve: a bad row, then a missing file of the same frame":
        malformed(data / "detections" / "000002.txt")
        missing = data / "properties" / "000002.txt"
        missing.unlink()
        return _solve_argv(data, tmp_path / "again"), f"frame 000002: missing properties file {missing}"
    if case == "solve: a frame with other bins, then a missing file":
        path = data / "properties" / "000002.txt"
        table = parse_properties([path.read_text()]).objects
        path.write_text(write_properties(PropertyTable(np.hstack([table.data, np.zeros((len(table), 3))]))))
        (data / "detections" / "000003.txt").unlink()
        return _solve_argv(data, tmp_path / "again"), \
            f"frame 000002: {table.n_bins + 1} orientation bins, frame 000000 has {table.n_bins}"
    if case == "depurate: a bad row, then a file that is not UTF-8":
        n_line = malformed(results / "000001.txt")
        (data / "calib" / "000002.txt").write_bytes(b"P2: \xff\n")
        return depurate_argv, f"frame 000001: line {n_line}: label row has 3 columns, expected 15 or 16"
    if case == "depurate: a bad calibration, then a result of the same frame that is not UTF-8":
        (data / "calib" / "000002.txt").write_text("P2: 1 2 3\n")
        (results / "000002.txt").write_bytes(b"Car \xff\n")
        return depurate_argv, "frame 000002: P2 line has 3 numbers, expected 12"
    if case == "eval: a bad ground truth, then a result that is not UTF-8":
        n_line = malformed(data / "gt" / "000001.txt")
        (results / "000003.txt").write_bytes(b"Car \xff\n")
        return eval_argv, f"frame 000001: line {n_line}: label row has 3 columns, expected 15 or 16"
    if case == "eval: a bad ground truth, then an unscored result that is not UTF-8":
        n_line = malformed(data / "gt" / "000001.txt")
        (data / "gt" / "000003.txt").unlink()
        (results / "000003.txt").write_bytes(b"Car \xff\n")
        return eval_argv, f"frame 000001: line {n_line}: label row has 3 columns, expected 15 or 16"
    n_line = malformed(data / "gt" / "000002.txt")  # eval: the same, in one frame
    (results / "000002.txt").write_bytes(b"Car \xff\n")
    return eval_argv, f"frame 000002: line {n_line}: label row has 3 columns, expected 15 or 16"


def _solve_argv(data, out):
    return ["solve", "--calib", str(data / "calib"), "--detections", str(data / "detections"),
            "--properties", str(data / "properties"), "--out", str(out)]


@pytest.mark.parametrize("budget", [1, 1 << 16])
@pytest.mark.parametrize("case", [
    "solve: a bad row, then a missing file", "solve: a bad row, then a missing file of the same frame",
    "solve: a frame with other bins, then a missing file",
    "depurate: a bad row, then a file that is not UTF-8",
    "depurate: a bad calibration, then a result of the same frame that is not UTF-8",
    "eval: a bad ground truth, then a result that is not UTF-8",
    "eval: a bad ground truth, then a result that is not UTF-8, in one frame",
    "eval: a bad ground truth, then an unscored result that is not UTF-8",
])
def test_run_with_two_faults_names_the_first(pipeline_dirs, tmp_path, monkeypatch, case, budget):
    """Whether the frames are parsed one block at a time or all in one, the
    run ends on its first fault in frame order."""
    argv, message = _first_fault_case(pipeline_dirs, tmp_path, case)
    monkeypatch.setattr(cli, "BLOCK_BYTES", budget)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == message


@pytest.mark.parametrize("budget", [1, 1 << 16])
def test_solve_names_a_frame_whose_row_counts_differ_when_the_totals_agree(tmp_path, monkeypatch, budget):
    """A property row moved to the next frame leaves the run's totals equal,
    so only the per-frame count pairs each detection with its own row."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--frames", "3", "--seed", "5"]) == 0
    moved, kept = data / "properties" / "000001.txt", data / "properties" / "000002.txt"
    *lines, last = moved.read_text().splitlines(keepends=True)
    moved.write_text("".join(lines))
    kept.write_text(kept.read_text() + last)
    n = len((data / "detections" / "000001.txt").read_text().splitlines())
    monkeypatch.setattr(cli, "BLOCK_BYTES", budget)
    with pytest.raises(SystemExit) as info:
        main(_solve_argv(data, tmp_path / "results"))
    assert info.value.code == f"frame 000001: {n} detections but {n - 1} property rows"
    assert not (tmp_path / "results").exists()


@pytest.fixture(scope="module")
def six_frame_run(tmp_path_factory):
    """Each file of a 6-frame synth run and of its `box3d solve` results, as
    bytes by relative path."""
    root = tmp_path_factory.mktemp("six")
    assert main(["synth", "--out", str(root), "--frames", "6", "--seed", "3"]) == 0
    assert main(_solve_argv(root, root / "results")) == 0
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.txt"))}


_FILE_FAULTS = ("missing", "directory", "not UTF-8", "malformed row")
# (directory, fault kind): the faults that each directory of a run takes
_FAULT_PLACES = [*((sub, kind) for sub in ("calib", "detections", "properties", "gt", "results")
                   for kind in _FILE_FAULTS),
                 ("detections", "extra detection row"), ("properties", "one more bin")]


def _put_fault(path, kind, data):
    """A fault of a kind in the file at path."""
    raw = path.read_bytes()
    if kind in ("missing", "directory"):
        path.unlink()
        if kind == "directory":
            path.mkdir()
        return
    if kind == "not UTF-8":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    elif kind == "malformed row":
        raw = {"calib": b"P2: 1 2 3\n", "properties": raw + b"1 2\n"}.get(path.parent.name, raw + b"Car 1 2\n")
    elif kind == "extra detection row":
        raw += b"Car 10 20 30 40 0.9\n"
    else:  # one more orientation bin, in the header and in every row
        header, *rows = raw.decode().splitlines()
        b = header.count("conf")
        raw = "\n".join([f"{header} conf{b} sin{b} cos{b}", *(r + " 0 0 1" for r in rows)]).encode() + b"\n"
    path.write_bytes(raw)


@given(data=st.data())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_with_two_random_faults_names_the_same_first_at_any_block_size(six_frame_run, data):
    """Two faults in random frames and files of a run: each command exits
    with the same line whether each frame is a block of its own, where no
    frame's fault is looked for among other frames, or the run is one
    block."""
    faults = data.draw(st.lists(st.tuples(st.sampled_from(_FAULT_PLACES), st.integers(0, 5)),
                                min_size=2, max_size=2, unique_by=lambda fault: (fault[0][0], fault[1])))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, raw in six_frame_run.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(raw)
        for (sub, kind), f in faults:
            _put_fault(root / sub / f"{f:06d}.txt", kind, data)
        lines = {}
        for budget in (1, 1 << 16):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "BLOCK_BYTES", budget)
                lines[budget] = [_exit_line(argv) for argv in (
                    _solve_argv(root, root / f"solved-{budget}"),
                    ["depurate", "--in", str(root / "results"), "--calib", str(root / "calib"),
                     "--out", str(root / f"kept-{budget}")],
                    ["eval", "--results", str(root / "results"), "--gt", str(root / "gt")])]
        assert lines[1] == lines[1 << 16]


def test_eval_reports_result_frames_without_ground_truth(pipeline_dirs, tmp_path, capsys, monkeypatch):
    """Unscored frames are read in the block pass with the scored ones, one
    block per frame or all in one, and reported in frame order."""
    results, kept = tmp_path / "results", tmp_path / "kept"
    assert _solve(pipeline_dirs, results) == 0
    assert main(["depurate", "--in", str(results), "--calib", str(pipeline_dirs / "calib"),
                 "--out", str(kept)]) == 0
    n_det = {i: len(parse_labels([(kept / f"{i:06d}.txt").read_text()]).objects) for i in range(4)}
    for i in (1, 3):
        (pipeline_dirs / "gt" / f"{i:06d}.txt").unlink()
    json_path = tmp_path / "metrics.json"
    for budget in (1, 1 << 16):
        monkeypatch.setattr(cli, "BLOCK_BYTES", budget)
        capsys.readouterr()
        assert main(["eval", "--results", str(kept), "--gt", str(pipeline_dirs / "gt"),
                     "--json", str(json_path)]) == 0
        # one line per unscored frame, none for the depuration report
        assert capsys.readouterr().err.splitlines() == [
            f"box3d eval: frame {i:06d}: not scored ({n_det[i]} detections, no ground-truth file)" for i in (1, 3)
        ]
        assert json.loads(json_path.read_text())["n_det"] == n_det[0] + n_det[2]


def _unlistable(tmp_path):
    return re.escape(f"cannot list directory {tmp_path / 'no_such_dir'}: No such file or directory") + "$"


def test_solve_unlistable_detections_exit_naming_them(pipeline_dirs, tmp_path, capsys):
    missing, results = tmp_path / "no_such_dir", tmp_path / "results"
    with pytest.raises(SystemExit, match="^" + _unlistable(tmp_path)):
        main(["solve", "--calib", str(pipeline_dirs / "calib"), "--detections", str(missing),
              "--properties", str(pipeline_dirs / "properties"), "--out", str(results)])
    assert not results.exists()
    # an existing empty directory is a run of 0 frames
    missing.mkdir()
    capsys.readouterr()
    assert main(["solve", "--calib", str(pipeline_dirs / "calib"), "--detections", str(missing),
                 "--properties", str(pipeline_dirs / "properties"), "--out", str(results)]) == 0
    assert capsys.readouterr().out == f"solved 0 frames -> {results}\n"


def test_depurate_unlistable_input_exits_naming_it(pipeline_dirs, tmp_path, capsys):
    missing, kept = tmp_path / "no_such_dir", tmp_path / "kept"
    with pytest.raises(SystemExit, match="^" + _unlistable(tmp_path)):
        main(["depurate", "--in", str(missing), "--calib", str(pipeline_dirs / "calib"), "--out", str(kept)])
    assert not kept.exists()
    missing.mkdir()
    assert main(["depurate", "--in", str(missing), "--calib", str(pipeline_dirs / "calib"),
                 "--out", str(kept)]) == 0
    assert (kept / "depuration_report.txt").read_text() == ""


def test_eval_of_a_run_where_nothing_overlaps_scores_zero(pipeline_dirs, tmp_path, capsys):
    # every detection is a ground truth moved 100 m to the side
    results = tmp_path / "results"
    results.mkdir()
    for path in sorted((pipeline_dirs / "gt").iterdir()):
        table = parse_labels([path.read_text()]).objects
        table.location[:, 0] += 100.0
        (results / path.name).write_text(write_labels(table))
    json_path = tmp_path / "metrics.json"
    assert main(["eval", "--results", str(results), "--gt", str(pipeline_dirs / "gt"),
                 "--json", str(json_path)]) == 0
    table = json.loads(json_path.read_text())
    assert table["AP3D@0.7"] == table["AOS"] == 0.0
    assert table["n_det"] == table["n_gt"] > 0


def test_eval_unlistable_results_or_ground_truth_exit_naming_them(pipeline_dirs, tmp_path):
    missing, json_path = tmp_path / "no_such_dir", tmp_path / "metrics.json"
    for results, gt in ((missing, pipeline_dirs / "gt"), (pipeline_dirs / "gt", missing)):
        with pytest.raises(SystemExit, match="^" + _unlistable(tmp_path)):
            main(["eval", "--results", str(results), "--gt", str(gt), "--json", str(json_path)])
        assert not json_path.exists()
    missing.mkdir()
    assert main(["eval", "--results", str(missing), "--gt", str(missing), "--json", str(json_path)]) == 0
    assert json.loads(json_path.read_text()) == {"AP3D@0.7": 0.0, "AOS": 0.0, "OS": 0.0, "E_d": None,
                                                  "n_gt": 0, "n_det": 0}


def _path_fault(data, tmp_path, fault):
    """The argv of a run with one path that cannot be read or written, and
    the one stderr line it must exit with."""
    results, kept = tmp_path / "results", tmp_path / "kept"
    solve = ["solve", "--calib", str(data / "calib"), "--detections", str(data / "detections"),
             "--properties", str(data / "properties"), "--out", str(results)]
    depurate = ["depurate", "--in", str(results), "--calib", str(data / "calib"), "--out", str(kept)]
    evaluate = ["eval", "--results", str(results), "--gt", str(data / "gt")]
    if fault != "calibration file is a directory":
        assert main(solve) == 0
    if fault == "calibration file is a directory":
        path = data / "calib" / "000001.txt"
        path.unlink()
        path.mkdir()
        return solve, f"frame 000001: cannot read calibration file {path}: Is a directory"
    if fault == "ground-truth file is a directory":
        path = data / "gt" / "000009.txt"
        path.mkdir()
        return evaluate, f"frame 000009: cannot read ground-truth file {path}: Is a directory"
    if fault == "solve --out is a file":
        results.rename(tmp_path / "moved")
        results.write_text("")
        return solve, f"cannot create directory {results}: File exists"
    if fault == "depurate --out is a file":
        kept.write_text("")
        return depurate, f"cannot create directory {kept}: File exists"
    if fault == "result frame is a directory":
        path = results / "000002.txt"
        path.unlink()
        path.mkdir()
        return solve, f"cannot write {path}: Is a directory"
    # a frame directory that cannot be opened is named as the path of its first frame's file
    if fault in ("solve: calibration directory is missing", "depurate: calibration directory is missing"):
        calib = data / "calib"
        calib.rename(tmp_path / "calib_moved")
        return solve if fault.startswith("solve") else depurate, \
            f"frame 000000: missing calibration file {calib / '000000.txt'}"
    if fault == "calibration path is a file":
        calib = data / "calib"
        calib.rename(tmp_path / "calib_moved")
        calib.write_text("")
        return solve, f"frame 000000: cannot read calibration file {calib / '000000.txt'}: Not a directory"
    if fault == "properties directory is missing":
        properties = data / "properties"
        properties.rename(tmp_path / "properties_moved")
        return solve, f"frame 000000: missing properties file {properties / '000000.txt'}"
    path = tmp_path / "no_such_dir" / "table.json"
    return [*evaluate, "--json", str(path)], f"cannot write {path}: No such file or directory"


PATH_FAULTS = ["calibration file is a directory", "ground-truth file is a directory",
               "solve --out is a file", "depurate --out is a file",
               "result frame is a directory", "eval --json in a missing directory",
               "solve: calibration directory is missing", "depurate: calibration directory is missing",
               "calibration path is a file", "properties directory is missing"]


@pytest.mark.parametrize("fault", PATH_FAULTS)
def test_path_fault_exits_with_one_line_naming_the_path(pipeline_dirs, tmp_path, fault):
    argv, line = _path_fault(pipeline_dirs, tmp_path, fault)
    out = subprocess.run([sys.executable, "-m", "box3d.cli", *argv], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120)
    assert "Traceback" not in out.stderr
    assert (out.returncode, out.stderr.splitlines()) == (1, [line])
    if argv[0] == "eval":
        assert out.stdout == ""  # the table is printed only once it is written


def test_depurate_without_its_calibration_directory_writes_nothing(pipeline_dirs, tmp_path):
    argv, line = _path_fault(pipeline_dirs, tmp_path, "depurate: calibration directory is missing")
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == line
    assert not (tmp_path / "kept").exists()


def _descriptor_cases(data, tmp_path, case):
    """The (argv, exit code or message) of the runs of a case: a clean run
    of each command, a parse fault in each reading command, a synth file
    that cannot be written, or one of PATH_FAULTS."""
    results, kept = tmp_path / "results", tmp_path / "kept"
    solve = _solve_argv(data, results)
    depurate = ["depurate", "--in", str(results), "--calib", str(data / "calib"), "--out", str(kept)]
    evaluate = ["eval", "--results", str(results), "--gt", str(data / "gt"), "--json", str(tmp_path / "t.json")]
    if case == "clean runs":
        return [(["synth", "--out", str(tmp_path / "synth"), "--frames", "3"], 0),
                (solve, 0), (depurate, 0), (evaluate, 0)]
    if case == "parse faults":
        assert main(solve) == 0
        lines = []
        for path in (data / "detections" / "000002.txt", results / "000002.txt", data / "gt" / "000001.txt"):
            lines.append(len(path.read_text().splitlines()) + 1)
            with path.open("a") as f:
                f.write("Car 1 2\n")
        return [(_solve_argv(data, tmp_path / "again"),
                 f"frame 000002: line {lines[0]}: detection row has 3 columns, expected 6"),
                (depurate, f"frame 000002: line {lines[1]}: label row has 3 columns, expected 15 or 16"),
                (evaluate, f"frame 000001: line {lines[2]}: label row has 3 columns, expected 15 or 16")]
    if case == "synth file is a directory":
        path = tmp_path / "synth" / "gt" / "000001.txt"
        path.mkdir(parents=True)
        return [(["synth", "--out", str(tmp_path / "synth"), "--frames", "3"], f"cannot write {path}: Is a directory")]
    return [_path_fault(data, tmp_path, case)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("case", ["clean runs", "parse faults", "synth file is a directory", *PATH_FAULTS])
def test_commands_leave_no_descriptor_open(pipeline_dirs, tmp_path, case):
    """A benchmark calls main() thousands of times in one process: a
    command closes what it opens, whether it returns or exits."""
    before = len(os.listdir("/proc/self/fd"))
    for argv, outcome in _descriptor_cases(pipeline_dirs, tmp_path, case):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == outcome
        assert len(os.listdir("/proc/self/fd")) == before, argv


def test_write_finishes_after_partial_writes(tmp_path, monkeypatch):
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))  # 7 bytes a call at most
    path = tmp_path / "000000.txt"
    path.write_text("stale " * 100)
    _write(str(path), b"0123456789" * 5)
    assert path.read_bytes() == b"0123456789" * 5


def _one_frame_copy(data, frame, root):
    """A run directory holding only `frame`'s calibration, detection and property files."""
    for sub in ("calib", "detections", "properties"):
        (root / sub).mkdir(parents=True)
        (root / sub / f"{frame}.txt").write_bytes((data / sub / f"{frame}.txt").read_bytes())
    return root


def _add_floating_car(data, frame):
    """Append to `frame` a detection above the horizon, with mean dimensions,
    which depuration removes by the vertical rule."""
    with (data / "detections" / f"{frame}.txt").open("a") as f:
        f.write("Car 520.0 60.0 640.0 130.0 0.95\n")
    with (data / "properties" / f"{frame}.txt").open("a") as f:
        f.write("0 0 0 5 0 0 1 0.389418342 0.921060994 0 0 1\n")


def test_run_level_writer_equals_per_frame_writes(tmp_path, capsys):
    data, results, kept = tmp_path / "data", tmp_path / "results", tmp_path / "kept"
    assert main(["synth", "--out", str(data), "--frames", "5", "--seed", "11"]) == 0
    # 000001 has no detections, every row of 000003 is skipped, and 000002
    # gains a detection above the horizon that depuration removes
    (data / "detections" / "000001.txt").write_text("")
    props = data / "properties" / "000001.txt"
    props.write_text(props.read_text().splitlines()[0] + "\n")
    props = data / "properties" / "000003.txt"
    header, *rows = props.read_text().splitlines()
    props.write_text("\n".join([header, *(" ".join([*r.split()[:5], "nan", *r.split()[6:]]) for r in rows)]) + "\n")
    _add_floating_car(data, "000002")
    frames = [f"{i:06d}" for i in range(5)]
    # stale files, longer than anything written over them
    for directory in (results, kept):
        directory.mkdir()
        for frame in frames:
            (directory / f"{frame}.txt").write_text("stale " * 2000)
    capsys.readouterr()

    assert _solve(data, results) == 0
    err = capsys.readouterr().err
    assert [r for r in _skipped_rows(err) if r[1] == "000003"] == [
        ["frame", "000003", "row", str(j)] for j in range(len(rows))]
    # solved alone, a frame is formatted in one write_labels call of its own
    alone_err = []
    for frame in frames:
        alone = _one_frame_copy(data, frame, tmp_path / "alone" / frame)
        assert _solve(alone, alone / "results") == 0
        alone_err.extend(line for line in capsys.readouterr().err.splitlines() if "skipped" in line)
        assert (results / f"{frame}.txt").read_bytes() == (alone / "results" / f"{frame}.txt").read_bytes()
    assert [line for line in err.splitlines() if "skipped" in line] == alone_err
    assert (results / "000001.txt").read_bytes() == (results / "000003.txt").read_bytes() == b""

    assert main(["depurate", "--in", str(results), "--calib", str(data / "calib"), "--out", str(kept)]) == 0
    for frame in frames:
        table = parse_labels([(results / f"{frame}.txt").read_text()]).objects
        verdicts = depurate(table, parse_calib([(data / "calib" / f"{frame}.txt").read_text()])[0, 1],
                            DEFAULT_DEPURATION_CONFIG)
        expected = write_labels(table[np.array([v.kept for v in verdicts], dtype=bool)])
        assert (kept / f"{frame}.txt").read_text() == expected
    assert (kept / "depuration_report.txt").read_text().startswith("000002 object ")


def test_write_blocks_of_any_row_count_write_the_same_bytes(tmp_path, monkeypatch, capsys):
    """solve and depurate write the same files whether a write block holds 1,
    2, 5 or the default WRITE_BLOCK_ROWS rows, on a run where solve skips
    rows and depuration removes rows."""
    spec, data = tmp_path / "spec.cfg", tmp_path / "data"
    spec.write_text("allow_truncated = true\n")
    assert main(["synth", "--out", str(data), "--frames", "20", "--seed", "0", "--spec", str(spec)]) == 0
    _add_floating_car(data, "000002")
    written, default = {}, cli.WRITE_BLOCK_ROWS
    for rows in (default, 1, 2, 5):
        monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", rows)
        out = tmp_path / f"rows-{rows}"
        capsys.readouterr()
        assert _solve(data, out / "results") == 0
        assert len(_skipped_rows(capsys.readouterr().err)) == 6
        assert main(["depurate", "--in", str(out / "results"), "--calib", str(data / "calib"),
                     "--out", str(out / "kept")]) == 0
        assert (out / "kept" / "depuration_report.txt").read_text()
        written[rows] = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.txt"))}
    assert len(written[1]) == 41
    assert written[1] == written[2] == written[5] == written[default]


def test_solve_refine_field_matches_no_refine_flag(pipeline_dirs, tmp_path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("refine = false\n")
    assert _solve(pipeline_dirs, tmp_path / "flag", "--no-refine") == 0
    assert _solve(pipeline_dirs, tmp_path / "field", "--config", str(cfg)) == 0
    for path in sorted((tmp_path / "flag").glob("*.txt")):
        assert path.read_text() == (tmp_path / "field" / path.name).read_text()


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_a_refused_option_leaves_the_cached_parser_as_it_was(pipeline_dirs, tmp_path, capsys):
    assert _solve(pipeline_dirs, tmp_path / "results") == 0
    argv = ["eval", "--results", str(tmp_path / "results"), "--gt", str(pipeline_dirs / "gt")]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--iou", "0.6"])
    assert info.value.code == 2
    assert "invalid choice: 0.6" in capsys.readouterr().err
    assert main([*argv, "--json", str(tmp_path / "table.json")]) == 0
    assert json.loads((tmp_path / "table.json").read_text())["AP3D@0.7"] == pytest.approx(1.0)


def test_no_option_leaks_from_one_command_to_the_next(pipeline_dirs, tmp_path):
    """`solve --no-refine`, then `solve` in the same process, writes what a
    solve in a fresh process writes."""
    assert _solve(pipeline_dirs, tmp_path / "closed", "--no-refine") == 0
    assert _solve(pipeline_dirs, tmp_path / "refined") == 0
    fresh = tmp_path / "fresh"
    out = subprocess.run([sys.executable, "-m", "box3d.cli", "solve", "--calib", str(pipeline_dirs / "calib"),
                          "--detections", str(pipeline_dirs / "detections"),
                          "--properties", str(pipeline_dirs / "properties"), "--out", str(fresh)],
                         env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    written = sorted(path.name for path in fresh.iterdir())
    assert written == sorted(path.name for path in (tmp_path / "refined").iterdir())
    for name in written:
        assert (tmp_path / "refined" / name).read_bytes() == (fresh / name).read_bytes()
    # a --no-refine carried over would show: the closed form writes other bytes
    assert any((tmp_path / "closed" / name).read_bytes() != (fresh / name).read_bytes() for name in written)


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
    n_in = sum(len(parse_labels([p.read_text()]).objects) for p in results.glob("*.txt"))
    n_out = sum(len(parse_labels([p.read_text()]).objects) for p in kept.glob("*.txt"))
    assert n_out == n_in  # exact scenes lose nothing


def test_viewpoint_table_command(capsys):
    assert main(["viewpoint-table"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:5] == [
        "viewpoint  0: local yaw (  0,  45] deg, camera level with or below top face",
        "    left/u_min   -> vertex 0 at (+l/2,  0, +w/2)",
        "    right/u_max  -> vertex 5 at (-l/2,  0, -w/2)",
        "    top/v_min    -> vertex 6 at (-l/2, -h, +w/2)",
        "    bottom/v_max -> vertex 4 at (-l/2,  0, +w/2)",
    ]
    # the whole dump, 16 classes of 5 lines, byte for byte
    assert len(out.splitlines()) == 80
    assert hashlib.sha256(out.encode()).hexdigest() == VIEWPOINT_TABLE_SHA256


def test_depuration_config_override(pipeline_dirs, tmp_path):
    results = tmp_path / "results"
    main([
        "solve", "--calib", str(pipeline_dirs / "calib"),
        "--detections", str(pipeline_dirs / "detections"),
        "--properties", str(pipeline_dirs / "properties"),
        "--out", str(results),
    ])
    # noiseless results put every row's bottom face at the camera height,
    # 1.65 m: inside the default vertical band, outside [0.8, 1.2]
    def depurate_with(name, text):
        """The rows kept and the report lines of depurate under a config."""
        cfg, kept = tmp_path / f"{name}.cfg", tmp_path / name
        cfg.write_text(text)
        assert main(["depurate", "--in", str(results), "--calib", str(pipeline_dirs / "calib"),
                     "--out", str(kept), "--config", str(cfg)]) == 0
        report = (kept / cli.DEPURATION_REPORT).read_text().splitlines()
        return sum(len(p.read_text().splitlines()) for p in kept.glob("0*.txt")), report

    n_rows = sum(len(p.read_text().splitlines()) for p in results.glob("*.txt"))
    assert n_rows > 0
    assert depurate_with("default", "") == (n_rows, [])
    kept, report = depurate_with("low_band", "vertical_centers = 1.0\nvertical_slack = 0.2\n")
    assert (kept, len(report)) == (0, n_rows)
    assert all(line.endswith("): removed, hard rule [vertical]") for line in report)


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
    assert len(parse_labels([(results / "000001.txt").read_text()]).objects) == n_rows - 1


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
    gt = parse_labels([path.read_text()]).objects
    first = parse_labels([(results / "000002.txt").read_text()]).objects.location[0]
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
    ("refine false\n", "expected 'key = value'"),
    ("truncation_margin_px = nan\n", "truncation_margin_px must be a non-negative number, got nan"),
    # Gauss-Newton's iteration cap, tolerances and damping are solver constants
    *((f"{key} = 1\n", f"unknown config key '{key}'")
      for key in ("max_iterations", "step_tol", "residual_change_tol", "damping", "max_halvings")),
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
    # the dims rule's mean dimensions and the other rules' thresholds are depuration constants
    *((f"{key} = 1\n", f"unknown config key '{key}'")
      for key in ("mean_dims", "dim_tolerance", "height_monotonic_eps", "adjacency_iou_min", "depth_gap_max")),
])
def test_bad_depuration_config_exits_naming_it(pipeline_dirs, tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit, match=rf"^config {re.escape(str(cfg))}: {re.escape(message)}$"):
        main(["depurate", "--in", str(pipeline_dirs / "gt"), "--calib", str(pipeline_dirs / "calib"),
              "--out", str(tmp_path / "kept"), "--config", str(cfg)])
    assert not (tmp_path / "kept").exists()


@pytest.mark.parametrize("text, frames, message", [
    ("n_bins = 0\n", "1", "config {cfg}: n_bins must be at least 1, got 0"),
    ("depth_min = nan\n", "1", "config {cfg}: depth_min must be a finite number, got nan"),
    ("camera_fu = 0\n", "1", "config {cfg}: focal lengths must be positive, got (0.0, 721.5377)"),
    ("box_noise_sigma = nan\n", "1", "config {cfg}: box_noise_sigma must be a non-negative number, got nan"),
    ("image_width = 0\n", "1", "config {cfg}: image_width must be positive, got 0"),
    ("in_image_margin_px = 187.5\n", "1", "config {cfg}: in_image_margin_px must be below half of image_width and "
                                         "of image_height unless allow_truncated is set, got 187.5"),
    ("camera_height = -1\n", "1", "config {cfg}: camera_height must be at least 0.02 unless allow_boundary_poses "
                                 "is set, got -1.0"),
    ("yaw_min = 0\nyaw_max = 0\n", "1", "config {cfg}: yaw_min and yaw_max must not both lie within "
                                        "boundary_margin_deg of 0 deg unless allow_boundary_poses is set"),
    ("boundary_margin_deg = 22.5\n", "1", "config {cfg}: boundary_margin_deg must be below 22.5 unless "
                                          "allow_boundary_poses is set, got 22.5"),
    ("n_objects_max = 0\n", "1", "config {cfg}: object count range empty"),
    ("n_objects_max = 1.5\n", "1", "config {cfg}: config key 'n_objects_max': invalid literal"),
    ("", "-3", "argument --frames: expected a whole number >= 0, got '-3'"),
])
def test_synth_bad_spec_or_frame_count_exits_before_writing(tmp_path, capsys, text, frames, message):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "out"), "--frames", frames, "--spec", str(cfg)])
    err = capsys.readouterr().err
    assert message.format(cfg=cfg) in (err if exc.value.code == 2 else exc.value.code)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["lateral_min = 100\nlateral_max = 100\n"], ids=["cars right of the image"])
def test_synth_spec_without_a_pose_exits_naming_the_frame(tmp_path, capsys, text):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "out"), "--frames", "2", "--spec", str(cfg)])
    assert exc.value.code == "frame 000000: could not sample an acceptable pose; loosen the spec ranges"
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_of_no_frames_makes_four_empty_directories(tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--frames", "0"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["calib", "detections", "gt", "properties"]
    assert not any(out.rglob("*.txt"))


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


_SOLVER_CFG = "refine = true\ntruncation_margin_px = 10\n"
_DEPURATION_CFG = "vertical_centers = 1.28842871, 1.72911, 2.2184\nvertical_slack = 0.75\n"
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
    """Each input file of a 3-frame synth run and two config files, by
    relative path; unmutated, they run all three commands to exit 0."""
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--frames", "3", "--seed", "5"]) == 0
    files = {str(p.relative_to(out)): p.read_text() for p in sorted(out.rglob("*.txt"))}
    (out / "solver.cfg").write_text(_SOLVER_CFG)
    (out / "depuration.cfg").write_text(_DEPURATION_CFG)
    assert main(["solve", "--calib", str(out / "calib"), "--detections", str(out / "detections"),
                 "--properties", str(out / "properties"), "--out", str(out / "results"),
                 "--config", str(out / "solver.cfg")]) == 0
    assert main(["depurate", "--in", str(out / "results"), "--calib", str(out / "calib"),
                 "--out", str(out / "kept"), "--config", str(out / "depuration.cfg")]) == 0
    assert main(["eval", "--results", str(out / "results"), "--gt", str(out / "gt")]) == 0
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
