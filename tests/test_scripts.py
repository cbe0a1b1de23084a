"""scripts/same_outputs.py runs end to end at a small size and says where a frame differs."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_outputs_runs_seeded_faults_in_both_trees():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "same_outputs.py"), str(ROOT / "src"),
                          "--frames", "2", "--seeds", "0", "--workloads", "crowded_eval", "--faults", "4"],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    faults, total = out.stdout.splitlines()[-2:]
    match = re.fullmatch(r"0 differences in 12 fault commands \((\d+) exited non-zero\) over 4 faults "
                         r"in each of 1 workload-seed cases", faults)
    assert match and int(match[1]) > 0, faults  # the faults reach the commands
    assert total == ("0 differences in 103 files and 77 commands (0 exited non-zero) "
                     "over 1 workload-seed cases")


LABEL_ROW = "Car 0.000000 0 -1.570000 100.0 150.0 200.0 220.0 1.520000 1.640000 3.860000 {x} 1.650000 {z} 0.1 0.9"


def test_same_outputs_says_where_a_label_frame_differs(tmp_path):
    rows = [LABEL_ROW.format(x="1.000000", z="30.000000")] * 4
    moved = [LABEL_ROW.format(x="1.000002", z="30.000001"), rows[1], LABEL_ROW.format(x="1.000000", z="29.999999"),
             rows[3]]
    for name, lines in (("base.txt", rows), ("new.txt", moved), ("other.txt", ["not a label frame"])):
        (tmp_path / name).write_text("".join(f"{line}\n" for line in lines))
    # in an interpreter of its own: importing same_outputs imports bench/run.py,
    # which sets the BLAS thread variables
    code = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import same_outputs; "
            "read = lambda name: {('crowded_eval', 0, 'results/000000.txt'): Path(name).read_bytes()}; "
            "print(*same_outputs.differences(read('base.txt'), read('new.txt'), same_outputs.label_difference), "
            "*same_outputs.differences(read('base.txt'), read('other.txt'), same_outputs.label_difference), sep='\\n')")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts")], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "('crowded_eval', 0, 'results/000000.txt'): differs: 2 of 4 rows; x by 2e-06, z by 1e-06",
        "('crowded_eval', 0, 'results/000000.txt'): differs",
    ]
