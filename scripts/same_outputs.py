#!/usr/bin/env python3
"""Check that another source tree of box3d gives byte-identical outputs.

    python3 scripts/same_outputs.py BASE_SRC [--seeds 0 7] [--frames N] [--workloads W ...]

BASE_SRC is the ``src`` directory of the other tree, for example a clone of
the parent commit.  For each workload mix of the benchmark (``WORKLOADS`` of
``bench/run.py``, imported as it stands) and each seed, each tree:

- writes the workload's inputs as the benchmark's set-up does: ``box3d
  synth`` plus the injected false detections;
- runs ``box3d solve`` with and without ``--no-refine``;
- runs ``box3d depurate`` on both results;
- runs ``box3d eval --json`` on both results and both sets of kept frames,
  at the workload's IoU and recall grid.

Every command runs in a fresh interpreter with that tree on PYTHONPATH, from
a working directory of its own and with relative paths, so that its output
names the same paths for both trees.  Every written file and every command's
stdout, stderr and exit code are compared.  The exit code is 0 when all are
identical and 1 otherwise, after one line per difference.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402

# the benchmark's own input writer, run under the tree being checked
WRITE_INPUTS = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(BENCH)!r})
import box3d.cli
import run
run.write_inputs(box3d, run.WORKLOADS[sys.argv[1]], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4]))
"""


def commands(name, seed, frames):
    """(label, argv) of one workload and seed, in the order they run."""
    wl = WORKLOADS[name]
    box3d = [sys.executable, "-m", "box3d.cli"]
    runs = [("inputs", [sys.executable, "-c", WRITE_INPUTS, name, str(seed), str(frames), "inputs"])]
    for results, flags in (("results", []), ("results_closed_form", ["--no-refine"])):
        runs.append((f"solve {' '.join(flags)}".strip(),
                     box3d + ["solve", "--calib", "inputs/calib", "--detections", "inputs/detections",
                              "--properties", "inputs/properties", "--out", results, *flags]))
        kept = results.replace("results", "kept")
        runs.append((f"depurate {results}", box3d + ["depurate", "--in", results, "--calib", "inputs/calib",
                                                     "--out", kept]))
        for scored in (results, kept):
            runs.append((f"eval {scored}", box3d + ["eval", "--results", scored, "--gt", "inputs/gt",
                                                    "--iou", str(wl.iou), "--recall-points", str(wl.recall_points),
                                                    "--json", f"{scored}.json"]))
    return runs


def run_tree(src, work, cases):
    """Each command's (exit code, stdout, stderr) and each written file's
    bytes, keyed by case, command and relative path."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    outcomes, files = {}, {}
    for name, seed, frames in cases:
        case = work / f"{name}-{seed}"
        case.mkdir(parents=True)
        for label, argv in commands(name, seed, frames):
            out = subprocess.run(argv, cwd=case, env=env, capture_output=True, timeout=600)
            outcomes[(name, seed, label)] = (out.returncode, out.stdout, out.stderr)
        for path in sorted(case.rglob("*")):
            if path.is_file():
                files[(name, seed, str(path.relative_to(case)))] = path.read_bytes()
    return outcomes, files


def differences(base, new):
    """One line per key whose value differs or that only one side has."""
    lines = []
    for key in sorted(base.keys() | new.keys()):
        if key not in base or key not in new:
            lines.append(f"{key}: only in {'base' if key in base else 'new'}")
        elif base[key] != new[key]:
            lines.append(f"{key}: differs")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base_src", help="the src directory of the tree to compare with this one")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    ap.add_argument("--frames", type=int, default=None, help="override every workload's frame count")
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = ap.parse_args(argv)

    cases = [(name, seed, args.frames or WORKLOADS[name].frames) for name in args.workloads for seed in args.seeds]
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        base_out, base_files = run_tree(args.base_src, Path(tmp) / "base", cases)
        new_out, new_files = run_tree(ROOT / "src", Path(tmp) / "new", cases)
    diffs = [f"command {line}" for line in differences(base_out, new_out)]
    diffs += [f"file {line}" for line in differences(base_files, new_files)]
    for line in diffs:
        print(line)
    failed = sum(code != 0 for code, _, _ in new_out.values())
    print(f"{len(diffs)} differences in {len(new_files)} files and {len(new_out)} commands "
          f"({failed} exited non-zero) over {len(cases)} workload-seed cases")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
