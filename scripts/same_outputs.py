#!/usr/bin/env python3
"""Check that another source tree of box3d gives byte-identical outputs.

    python3 scripts/same_outputs.py BASE_SRC [--seeds 0 7] [--frames N] [--workloads W ...] [--faults N]

BASE_SRC is the ``src`` directory of the other tree, for example a clone of
the parent commit.  Each tree runs ``box3d viewpoint-table`` once.  For each
workload mix of the benchmark (``WORKLOADS`` of ``bench/run.py``, imported as
it stands) and each seed, each tree:

- writes the workload's inputs as the benchmark's set-up does: ``box3d
  synth`` plus the injected false detections;
- runs ``box3d solve`` with and without ``--no-refine``;
- runs ``box3d depurate`` on both results, and once more on the refined
  results with ``--config`` and a non-default config it writes into the case
  (``DEPURATION_CONFIG``);
- runs ``box3d eval --json`` on both results and both sets of kept frames,
  at every combination of ``--iou``, ``--recall-points`` and
  ``--difficulty`` (16 per output), in process in one fresh interpreter.

Every other command runs in a fresh interpreter of its own.  Each tree is on
PYTHONPATH, and each case runs from a working directory of its own with
relative paths, so that the output names the same paths for both trees.
Every written file and every command's stdout, stderr and exit code are
compared.

With ``--faults N``, each case then takes N seeded single faults, one at a
time, in a file of its inputs or of the results of its ``solve``: a replaced
token, a replaced byte, an added column, a deleted file, an empty directory
in the file's place, or, in a property file, one more orientation bin in its
header and every row.  Under each tree and for each fault, ``solve`` runs on
the inputs, and ``depurate`` and ``eval`` on those results, in process, and
their stdout, stderr and exit codes are compared.  Each tree sees the same
faulted bytes.

The exit code is 0 when all are identical and 1 otherwise, after one line per
difference.
"""

import argparse
import json
import os
import random
import re
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


# runs a `box3d` command in process under the tree being checked and returns
# its [exit code, stdout, stderr]
RUN = """
import contextlib, io, json, os, sys, traceback
from box3d.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            if code is not None and not isinstance(code, int):
                print(code, file=sys.stderr)  # as the interpreter prints it
                code = 1
        except Exception:
            traceback.print_exc()
            code = 1
    return [code or 0, out.getvalue(), err.getvalue()]
"""

# runs a list of commands in process: argv: COMMANDS_JSON OUTCOMES_JSON
COMMAND_RUNNER = RUN + """
with open(sys.argv[1]) as f:
    commands = json.load(f)
with open(sys.argv[2], "w") as f:
    json.dump([run(argv) for argv in commands], f)
"""

# runs the commands once per fault: argv: FAULTS_JSON OUTCOMES_JSON, from a
# case's directory
FAULT_RUNNER = RUN + """
with open(sys.argv[1]) as f:
    task = json.load(f)
outcomes = []
for path, kind, faulted in task["faults"]:
    with open(path, "rb") as f:
        original = f.read()
    try:
        if kind == "delete":
            os.remove(path)
        elif kind == "dir":
            os.remove(path)
            os.mkdir(path)
        else:
            with open(path, "wb") as f:
                f.write(faulted.encode("latin-1"))
        outcomes.append([run(argv) for argv in task["commands"]])
    finally:
        if os.path.isdir(path):
            os.rmdir(path)
        with open(path, "wb") as f:
            f.write(original)
with open(sys.argv[2], "w") as f:
    json.dump(outcomes, f)
"""

# depuration thresholds off the defaults, written as a case's `depuration.cfg`:
# a narrower adjacency, a smaller depth gap and no height band reach rule
# outcomes and report lines that the defaults never give on the benchmark mixes
DEPURATION_CONFIG = "adjacency_iou_min = 0.2\ndepth_gap_max = 3\nheight_monotonic_eps = 0\n"

# tokens a replaced-token fault puts in.  The finite ones on the second line
# reach the edges of the label writer's array pass: written back, they read
# 1000000000.000000 (10 whole digits), -0.000000, 0.000003 (whose float
# product with 1e6 is 2.5: only the exact product rounds it up) and
# 1000000000.000000 again
FAULT_TOKENS = ["nan", "inf", "-inf", "1e400", "x", "-1", "0", "16", "1.5", "#", "0x1", "1_0", "", "\u0663",
                "999999999.9999995", "-0.0000004", "0.0000025", "1e9"]


def fault_commands(name):
    """The argv of the commands that each fault of a workload's case runs."""
    wl = WORKLOADS[name]
    return [
        ["solve", "--calib", "inputs/calib", "--detections", "inputs/detections", "--properties",
         "inputs/properties", "--out", "faulted/results", *([] if wl.refine else ["--no-refine"])],
        ["depurate", "--in", "results", "--calib", "inputs/calib", "--out", "faulted/kept"],
        ["eval", "--results", "results", "--gt", "inputs/gt", "--iou", str(wl.iou),
         "--recall-points", str(wl.recall_points), "--json", "faulted/table.json"],
    ]


def make_faults(case, label, n):
    """n (description, relative path, kind, faulted text as latin-1 or None
    for a deleted file or an empty directory in its place) of a case
    directory's input and result files, seeded by the case's label."""
    files = sorted(str(p.relative_to(case)) for sub in ("inputs/calib", "inputs/detections", "inputs/properties",
                                                        "inputs/gt", "results") for p in (case / sub).glob("*.txt"))
    faults = []
    for i in range(n):
        rng = random.Random(f"{label} {i}")
        path = rng.choice(files)
        raw = (case / path).read_bytes()
        kinds = ["token", "byte", "column", "delete", "dir",
                 *(["bins"] if path.startswith("inputs/properties") else [])]
        kind = rng.choice(kinds) if raw.strip() else "delete"
        if kind == "token":
            tokens = re.split(r"(\s+)", raw.decode())
            tokens[rng.choice([j for j, t in enumerate(tokens) if t and not t.isspace()])] = rng.choice(FAULT_TOKENS)
            raw = "".join(tokens).encode()
        elif kind == "byte":
            at = rng.randrange(len(raw))
            raw = raw[:at] + bytes([rng.randrange(256)]) + raw[at + 1:]
        elif kind == "column":
            lines = raw.decode().splitlines(keepends=True)
            j = rng.choice([j for j, line in enumerate(lines) if line.strip()])
            body = lines[j].rstrip("\r\n")
            lines[j] = body + " 0.5" + lines[j][len(body):]
            raw = "".join(lines).encode()
        elif kind == "bins":  # a bin count that differs from the other frames'
            header, *rows = raw.decode().splitlines()
            b = header.count("conf")
            raw = "\n".join([f"{header} conf{b} sin{b} cos{b}", *(r + " 0 0 1" for r in rows)]).encode() + b"\n"
        faults.append((f"#{i}: {kind} in {path}", path, kind,
                       None if kind in ("delete", "dir") else raw.decode("latin-1")))
    return faults


def run_faults(src, work, cases, faults):
    """Each fault command's (exit code, stdout, stderr), keyed by case, fault
    and command."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    outcomes = {}
    for name, seed, _ in cases:
        case = work / f"{name}-{seed}"
        task = case / "faults.json"
        task.write_text(json.dumps({"faults": [fault[1:] for fault in faults[name, seed]],
                                    "commands": fault_commands(name)}))
        subprocess.run([sys.executable, "-c", FAULT_RUNNER, "faults.json", "outcomes.json"], cwd=case, env=env,
                       check=True, timeout=3600)
        results = json.loads((case / "outcomes.json").read_text())
        for (description, *_), ran in zip(faults[name, seed], results, strict=True):
            for argv, outcome in zip(fault_commands(name), ran):
                outcomes[(name, seed, description, argv[0])] = tuple(outcome)
    return outcomes


def commands(name, seed, frames):
    """(label, argv) of one workload and seed, in the order they run, each in
    an interpreter of its own."""
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
    runs.append(("depurate results --config", box3d + ["depurate", "--in", "results", "--calib", "inputs/calib",
                                                        "--out", "kept_config", "--config", "depuration.cfg"]))
    return runs


def eval_grid():
    """(label, argv) of `box3d eval --json` on each output of a case, at every
    IoU threshold, recall grid and difficulty that eval takes."""
    runs = []
    for scored in ("results", "kept", "results_closed_form", "kept_closed_form"):
        for iou in ("0.5", "0.7"):
            for points in ("11", "40"):
                for difficulty in ("all", "easy", "moderate", "hard"):
                    flags = ["--iou", iou, "--recall-points", points, "--difficulty", difficulty]
                    runs.append((f"eval {scored} {' '.join(flags)}",
                                 ["eval", "--results", scored, "--gt", "inputs/gt", *flags,
                                  "--json", f"{scored}-{iou}-{points}-{difficulty}.json"]))
    return runs


def run_tree(src, work, cases):
    """Each command's (exit code, stdout, stderr) and each written file's
    bytes, keyed by case, command and relative path."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    work.mkdir(parents=True)
    table = subprocess.run([sys.executable, "-m", "box3d.cli", "viewpoint-table"], cwd=work, env=env,
                           capture_output=True, timeout=600)
    outcomes, files = {("viewpoint-table",): (table.returncode, table.stdout, table.stderr)}, {}
    for name, seed, frames in cases:
        case = work / f"{name}-{seed}"
        case.mkdir(parents=True)
        (case / "depuration.cfg").write_text(DEPURATION_CONFIG)
        for label, argv in commands(name, seed, frames):
            out = subprocess.run(argv, cwd=case, env=env, capture_output=True, timeout=600)
            outcomes[(name, seed, label)] = (out.returncode, out.stdout, out.stderr)
        grid, ran = work / f"{name}-{seed}-grid.json", work / f"{name}-{seed}-grid-outcomes.json"
        grid.write_text(json.dumps([argv for _, argv in eval_grid()]))
        subprocess.run([sys.executable, "-c", COMMAND_RUNNER, str(grid), str(ran)], cwd=case, env=env,
                       check=True, timeout=3600)
        for (label, _), outcome in zip(eval_grid(), json.loads(ran.read_text()), strict=True):
            outcomes[(name, seed, label)] = tuple(outcome)
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
    ap.add_argument("--faults", type=int, default=0, help="seeded single faults to run per workload-seed case")
    args = ap.parse_args(argv)

    cases = [(name, seed, args.frames or WORKLOADS[name].frames) for name in args.workloads for seed in args.seeds]
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        base_out, base_files = run_tree(args.base_src, Path(tmp) / "base", cases)
        new_out, new_files = run_tree(ROOT / "src", Path(tmp) / "new", cases)
        if args.faults:
            faults = {(name, seed): make_faults(Path(tmp) / "base" / f"{name}-{seed}", f"{name}-{seed}", args.faults)
                      for name, seed, _ in cases}
            base_faults = run_faults(args.base_src, Path(tmp) / "base", cases, faults)
            new_faults = run_faults(ROOT / "src", Path(tmp) / "new", cases, faults)
    diffs = [f"command {line}" for line in differences(base_out, new_out)]
    diffs += [f"file {line}" for line in differences(base_files, new_files)]
    fault_diffs = [f"fault {line}" for line in differences(base_faults, new_faults)] if args.faults else []
    for line in diffs + fault_diffs:
        print(line)
    if args.faults:
        print(f"{len(fault_diffs)} differences in {len(new_faults)} fault commands "
              f"({sum(code != 0 for code, _, _ in new_faults.values())} exited non-zero) "
              f"over {args.faults} faults in each of {len(cases)} workload-seed cases")
    failed = sum(code != 0 for code, _, _ in new_out.values())
    print(f"{len(diffs)} differences in {len(new_files)} files and {len(new_out)} commands "
          f"({failed} exited non-zero) over {len(cases)} workload-seed cases")
    return 1 if diffs or fault_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
