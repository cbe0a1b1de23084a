"""The contract between the package and the benchmark's span recorder,
bench/spans.py: every layer it wraps is still there, and its counters read
what the package's functions take and return.

bench/ is only read here: the recorder is imported from it as it stands.
"""

import sys
from pathlib import Path

import pytest

from box3d.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from spans import Tracer  # noqa: E402


def _rows(directory, skip=0):
    """Non-blank lines per file of a directory, after the first `skip`."""
    return {p.stem: sum(1 for line in p.read_text().splitlines()[skip:] if line.strip())
            for p in sorted(directory.glob("*.txt")) if p.name != "depuration_report.txt"}


def _counts(tracer, name, key):
    return [s.counts[key] for s in tracer.spans if s.name == name]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A 3-frame synth -> solve -> depurate -> eval run inside Tracer().installed(),
    with one false detection above the horizon appended to a frame."""
    root = tmp_path_factory.mktemp("traced")
    data, results, kept = root / "data", root / "results", root / "kept"
    tracer = Tracer()
    with tracer.installed():
        assert main(["synth", "--out", str(data), "--frames", "3", "--seed", "3"]) == 0
        with (data / "detections" / "000001.txt").open("a") as f:
            f.write("Car 520.0 60.0 640.0 130.0 0.95\n")
        with (data / "properties" / "000001.txt").open("a") as f:
            f.write("0 0 0 5 0 0 1 0.389418342 0.921060994 0 0 1\n")
        assert main(["solve", "--calib", str(data / "calib"), "--detections", str(data / "detections"),
                     "--properties", str(data / "properties"), "--out", str(results)]) == 0
        assert main(["depurate", "--in", str(results), "--calib", str(data / "calib"), "--out", str(kept)]) == 0
        assert main(["eval", "--results", str(kept), "--gt", str(data / "gt"),
                     "--json", str(root / "table.json")]) == 0
    return tracer, data, results, kept


def test_no_wrapped_layer_is_absent(traced):
    tracer, *_ = traced
    assert tracer.absent == []


def test_parse_spans_count_the_rows_of_their_files(traced):
    tracer, data, results, kept = traced
    n_det = sum(_rows(data / "detections").values())
    assert sum(_counts(tracer, "kitti_io.parse_detections", "objs")) == n_det
    assert sum(_counts(tracer, "kitti_io.parse_properties", "objs")) == sum(_rows(data / "properties", 1).values())
    # depurate reads the results; eval reads the kept rows and the ground truth
    n_labels = sum(_rows(results).values()) + sum(_rows(kept).values()) + sum(_rows(data / "gt").values())
    assert sum(_counts(tracer, "kitti_io.parse_labels", "objs")) == n_labels
    assert _counts(tracer, "solver.lift_batch", "objs") == [n_det]
    # synth writes the ground truth, solve the results, depurate the kept rows
    assert sum(_counts(tracer, "kitti_io.write_labels", "objs")) == n_labels
    assert sum(_counts(tracer, "synthetic.generate_scene", "objs")) == sum(_rows(data / "gt").values())


def test_depurate_and_match_spans_carry_their_pair_counts(traced):
    tracer, data, results, kept = traced
    n_results, n_kept, n_gt = _rows(results), _rows(kept), _rows(data / "gt")
    assert _counts(tracer, "depuration.depurate", "pairs") == [n * (n - 1) // 2 for n in n_results.values()]
    removed = _counts(tracer, "depuration.depurate", "removed")
    assert removed == [n_results[f] - n_kept[f] for f in n_results]
    assert sum(removed) == len((kept / "depuration_report.txt").read_text().splitlines()) >= 1
    assert _counts(tracer, "metrics.match_frame", "pairs") == [n_kept[f] * n_gt[f] for f in n_gt]
