"""The experiment scripts under scripts/ run end to end at a small size."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_noise_sweep_prints_table():
    lines = _run("noise_sweep.py", "--scenes", "5", "--levels", "0", "1").splitlines()
    assert lines[0].split() == ["sigma_px", "init_med", "ref_med", "ref_p90", "ref_max"]
    assert [float(line.split()[0]) for line in lines[1:]] == [0.0, 1.0]


def test_pipeline_demo_prints_sections(tmp_path):
    stdout = _run("pipeline_demo.py", "--frames", "4", "--out", str(tmp_path / "demo"))
    for heading in ("== metrics before depuration ==", "== metrics after depuration ==",
                    "== removal report =="):
        assert heading in stdout


def test_same_outputs_finds_no_difference_between_a_tree_and_itself():
    stdout = _run("same_outputs.py", str(ROOT / "src"), "--frames", "2", "--seeds", "0",
                  "--workloads", "crowded_eval")
    assert stdout.splitlines()[-1] == ("0 differences in 87 files and 71 commands (0 exited non-zero) "
                                       "over 1 workload-seed cases")


def test_same_outputs_runs_seeded_faults_in_both_trees():
    stdout = _run("same_outputs.py", str(ROOT / "src"), "--frames", "2", "--seeds", "0",
                  "--workloads", "crowded_eval", "--faults", "4")
    faults, total = stdout.splitlines()[-2:]
    match = re.fullmatch(r"0 differences in 12 fault commands \((\d+) exited non-zero\) over 4 faults "
                         r"in each of 1 workload-seed cases", faults)
    assert match and int(match[1]) > 0, faults  # the faults reach the commands
    assert total.startswith("0 differences in 87 files and 71 commands")
