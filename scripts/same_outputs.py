#!/usr/bin/env python3
"""Check that another source tree of box3d gives byte-identical outputs.

    python3 scripts/same_outputs.py BASE_SRC [--seeds 0 7] [--frames N] [--workloads W ...] [--faults N]

BASE_SRC is the ``src`` directory of the other tree, for example a clone of
the parent commit.  Each tree runs ``box3d viewpoint-table`` once.  For each
workload mix of the benchmark (``WORKLOADS`` of ``bench/run.py``, imported as
it stands) and each seed, each tree:

- writes the workload's inputs as the benchmark's set-up does: ``box3d
  synth`` plus the injected false detections;
- runs ``box3d solve`` with and without ``--no-refine``, and once more with
  ``--config`` and a solver config it writes into the case
  (``SOLVER_CONFIG``);
- runs ``box3d depurate`` on both results, and once more on the refined
  results with ``--config`` and a non-default config it writes into the case
  (``DEPURATION_CONFIG``);
- runs ``box3d solve`` and then ``box3d depurate`` with a copy of the
  calibration in which every third frame's P2 has another fu
  (``VARIED_CALIB``), so that a block holds more than one distinct
  calibration text;
- runs ``box3d eval --json`` on both results and both sets of kept frames,
  at every combination of ``--iou``, ``--recall-points`` and
  ``--difficulty`` (16 per output), once on the refined results against a
  copy of the ground truth without its last frame (``UNSCORED_GT``, so that
  one result frame is not scored), and on a copy of the refined results
  with every frame's rows written twice (``DOUBLED_RESULTS``, so that every
  matched ground truth is contested) at both ``--iou`` thresholds, in process
  in one fresh interpreter.

Every other command runs in a fresh interpreter of its own.  Each tree is on
PYTHONPATH, and each case runs from a working directory of its own with
relative paths, so that the output names the same paths for both trees.
Every written file and every command's stdout, stderr and exit code are
compared.  The line of a label frame file that differs says in how many rows
and which fields, each with its largest absolute difference.

With ``--faults N``, each case then takes N seeded faults, one at a time, in
a file of its inputs or of the results of its ``solve``: a replaced token, a
replaced byte, an added column, a deleted file, an empty directory in the
file's place, or, in a property file, one more orientation bin in its header
and every row; or a pair, one of those in the file and a second drawn the
same way in another file, so that the trees' first-fault order is compared.
Under each tree and for each fault, ``solve`` runs on the inputs, and
``depurate`` and ``eval`` on those results, in process, and their stdout,
stderr and exit codes are compared.  Each tree sees the same faulted bytes.

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
from decimal import Decimal, InvalidOperation
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

# runs the commands once per fault, each a list of (path, kind, faulted text)
# edits: argv: FAULTS_JSON OUTCOMES_JSON, from a case's directory
FAULT_RUNNER = RUN + """
with open(sys.argv[1]) as f:
    task = json.load(f)
outcomes = []
for edits in task["faults"]:
    originals = []
    try:
        for path, kind, faulted in edits:
            with open(path, "rb") as f:
                originals.append((path, f.read()))
            if faulted is None:  # deleted, or an empty directory in its place
                os.remove(path)
                if kind == "dir":
                    os.mkdir(path)
            else:
                with open(path, "wb") as f:
                    f.write(faulted.encode("latin-1"))
        outcomes.append([run(argv) for argv in task["commands"]])
    finally:
        for path, original in originals:
            if os.path.isdir(path):
                os.rmdir(path)
            with open(path, "wb") as f:
                f.write(original)
with open(sys.argv[2], "w") as f:
    json.dump(outcomes, f)
"""

# a wider truncation margin than the default, written as a case's
# `solver.cfg`: at the default 10 px no detection of the benchmark mixes lies
# within the margin, so only a wider one gives `truncated_init_only` rows to
# compare (a few percent of each mix at 40 px)
SOLVER_CONFIG = "truncation_margin_px = 40\n"

# a narrow vertical band, [1.3, 1.7] m, written as a case's `depuration.cfg`:
# it removes rows that the defaults keep, by the vertical rule alone or with a
# soft rule (121 of the refined `sparse_refine` mix's rows at seed 0, where
# the defaults remove none).  No case makes the dims rule fire: the synthetic
# cars' dimensions equal the car prior that the rule bands, and only the
# vertical band is a config, so only tests/test_depuration.py checks that rule
DEPURATION_CONFIG = "vertical_centers = 1.5\nvertical_slack = 0.2\n"

# a case's copy of its calibration in which every third frame's P2, from
# the first, has its fu scaled by 1.1, outside the inputs and results that
# the seeded faults are drawn from: the synthetic frames share one camera, so
# only this copy gives solve and depurate blocks of several distinct texts
VARIED_CALIB = "calib_varied"

# a case's copy of its ground truth without the last frame, outside the
# inputs and results that the seeded faults are drawn from
UNSCORED_GT = "gt_without_last"

# a case's copy of its refined results with each frame's rows written twice:
# each row's copy ties with it on score, so every ground truth a row takes is
# contested, at any frame count
DOUBLED_RESULTS = "results_doubled"

# tokens a replaced-token fault puts in.  The finite ones on the second line
# reach the edges of the label writer's array pass: written back, they read
# 1000000000.000000 (10 whole digits), -0.000000, 0.000003 (whose float
# product with 1e6 is 2.5: only the exact product rounds it up) and
# 1000000000.000000 again
FAULT_TOKENS = ["nan", "inf", "-inf", "1e400", "x", "-1", "0", "16", "1.5", "#", "0x1", "1_0", "", "\u0663",
                "999999999.9999995", "-0.0000004", "0.0000025", "1e9"]

# the kinds of a single fault; a property file also takes "bins"
FAULT_KINDS = ["token", "byte", "column", "delete", "dir"]


def write_varied_calib(case):
    """VARIED_CALIB of a case whose inputs are written."""
    (case / VARIED_CALIB).mkdir()
    for f, path in enumerate(sorted((case / "inputs" / "calib").glob("*.txt"))):
        text = path.read_text()
        if f % 3 == 0:
            text = re.sub(r"^P2: (\S+)", lambda m: f"P2: {float(m[1]) * 1.1:.12e}", text, count=1, flags=re.M)
        (case / VARIED_CALIB / path.name).write_text(text)


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


def _fault_in(rng, case, path, kinds):
    """A fault of one of kinds drawn in a case directory's file (a blank file
    is deleted): (path, kind, faulted text as latin-1, or None for a deleted
    file or an empty directory in its place, or for a pair).  A property
    file also takes one more orientation bin."""
    raw = (case / path).read_bytes()
    kinds = [*kinds, *(["bins"] if path.startswith("inputs/properties") else [])]
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
    return path, kind, None if kind in ("delete", "dir", "pair") else raw.decode("latin-1")


def make_faults(case, label, n):
    """n (description, edits) of a case directory's input and result files,
    seeded by the case's label: edits lists the one or two faulted files as
    (relative path, kind, faulted text as latin-1 or None)."""
    files = sorted(str(p.relative_to(case)) for sub in ("inputs/calib", "inputs/detections", "inputs/properties",
                                                        "inputs/gt", "results") for p in (case / sub).glob("*.txt"))
    faults = []
    for i in range(n):
        rng = random.Random(f"{label} {i}")
        edits = [_fault_in(rng, case, rng.choice(files), [*FAULT_KINDS, "pair"])]
        if edits[0][1] == "pair":  # a fault in the drawn file, then one in another, drawn the same way
            path = edits[0][0]
            edits = [_fault_in(rng, case, path, FAULT_KINDS),
                     _fault_in(rng, case, rng.choice([f for f in files if f != path]), FAULT_KINDS)]
        faults.append((f"#{i}: " + " and ".join(f"{kind} in {path}" for path, kind, _ in edits), edits))
    return faults


def run_faults(src, work, cases, faults):
    """Each fault command's (exit code, stdout, stderr), keyed by case, fault
    and command."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    outcomes = {}
    for name, seed, _ in cases:
        case = work / f"{name}-{seed}"
        task = case / "faults.json"
        task.write_text(json.dumps({"faults": [edits for _, edits in faults[name, seed]],
                                    "commands": fault_commands(name)}))
        subprocess.run([sys.executable, "-c", FAULT_RUNNER, "faults.json", "outcomes.json"], cwd=case, env=env,
                       check=True, timeout=3600)
        results = json.loads((case / "outcomes.json").read_text())
        for (description, _), ran in zip(faults[name, seed], results, strict=True):
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
    runs.append(("solve --config", box3d + ["solve", "--calib", "inputs/calib", "--detections", "inputs/detections",
                                            "--properties", "inputs/properties", "--out", "results_config",
                                            "--config", "solver.cfg"]))
    runs.append(("depurate results --config", box3d + ["depurate", "--in", "results", "--calib", "inputs/calib",
                                                        "--out", "kept_config", "--config", "depuration.cfg"]))
    runs.append((f"solve --calib {VARIED_CALIB}", box3d + ["solve", "--calib", VARIED_CALIB, "--detections",
                                                           "inputs/detections", "--properties", "inputs/properties",
                                                           "--out", "results_varied"]))
    runs.append(("depurate results_varied", box3d + ["depurate", "--in", "results_varied", "--calib", VARIED_CALIB,
                                                     "--out", "kept_varied"]))
    return runs


def eval_grid():
    """(label, argv) of `box3d eval --json` on each output of a case, at every
    IoU threshold, recall grid and difficulty that eval takes, then on the
    refined results against UNSCORED_GT, then on DOUBLED_RESULTS at each IoU
    threshold."""
    runs = []
    for scored in ("results", "kept", "results_closed_form", "kept_closed_form"):
        for iou in ("0.5", "0.7"):
            for points in ("11", "40"):
                for difficulty in ("all", "easy", "moderate", "hard"):
                    flags = ["--iou", iou, "--recall-points", points, "--difficulty", difficulty]
                    runs.append((f"eval {scored} {' '.join(flags)}",
                                 ["eval", "--results", scored, "--gt", "inputs/gt", *flags,
                                  "--json", f"{scored}-{iou}-{points}-{difficulty}.json"]))
    runs.append((f"eval results --gt {UNSCORED_GT}",
                 ["eval", "--results", "results", "--gt", UNSCORED_GT, "--json", "results-unscored.json"]))
    for iou in ("0.5", "0.7"):
        runs.append((f"eval {DOUBLED_RESULTS} --iou {iou}",
                     ["eval", "--results", DOUBLED_RESULTS, "--gt", "inputs/gt", "--iou", iou,
                      "--json", f"results-doubled-{iou}.json"]))
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
        (case / "solver.cfg").write_text(SOLVER_CONFIG)
        (case / "depuration.cfg").write_text(DEPURATION_CONFIG)
        for label, argv in commands(name, seed, frames):
            out = subprocess.run(argv, cwd=case, env=env, capture_output=True, timeout=600)
            outcomes[(name, seed, label)] = (out.returncode, out.stdout, out.stderr)
            if label == "inputs":
                write_varied_calib(case)
        (case / UNSCORED_GT).mkdir()
        for path in sorted((case / "inputs" / "gt").glob("*.txt"))[:-1]:
            (case / UNSCORED_GT / path.name).write_bytes(path.read_bytes())
        (case / DOUBLED_RESULTS).mkdir()
        for path in sorted((case / "results").glob("*.txt")):
            (case / DOUBLED_RESULTS / path.name).write_bytes(path.read_bytes() * 2)
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


# the fields of a KITTI label line, the last only in result and kept frames
LABEL_FIELDS = ("type", "truncated", "occluded", "alpha", "u_min", "v_min", "u_max", "v_max",
                "h", "w", "l", "x", "y", "z", "ry", "score")


def label_difference(base, new):
    """Where two label frame files differ, as 'k of n rows; x by 1e-06, z by
    2e-06': each differing field with its largest absolute difference, taken
    on the written decimals.  None unless both are label frames of the same
    rows and the same number of fields in each."""
    try:
        a, b = ([line.split() for line in text.decode().splitlines()] for text in (base, new))
        if len(a) != len(b) or any(len(x) != len(y) or len(x) not in (15, 16) for x, y in zip(a, b)):
            return None
        largest = {}
        for x, y in zip(a, b):
            for j, (u, v) in enumerate(zip(x, y)):
                if u != v:
                    largest[j] = max(largest.get(j, 0), 0 if j == 0 else abs(Decimal(u) - Decimal(v)))
    except (UnicodeDecodeError, InvalidOperation):
        return None
    fields = ", ".join(LABEL_FIELDS[j] if j == 0 else f"{LABEL_FIELDS[j]} by {float(d):g}"
                       for j, d in sorted(largest.items()))
    return f"{sum(x != y for x, y in zip(a, b))} of {len(a)} rows; {fields}"


def differences(base, new, detail=lambda base, new: None):
    """One line per key whose value differs or that only one side has; a
    differing pair's detail, where it gives one, follows on its line."""
    lines = []
    for key in sorted(base.keys() | new.keys()):
        if key not in base or key not in new:
            lines.append(f"{key}: only in {'base' if key in base else 'new'}")
        elif base[key] != new[key]:
            how = detail(base[key], new[key])
            lines.append(f"{key}: differs" + (f": {how}" if how else ""))
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
    diffs += [f"file {line}" for line in differences(base_files, new_files, label_difference)]
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
