#!/usr/bin/env python3
"""Benchmark of box3d's solve -> depurate -> eval pipeline.

    python3 bench/run.py --workload sparse_refine --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there and nowhere else.  Set-up writes the workload's synthetic
input directories (``box3d synth`` plus injected false detections) under
``.bench_work/``; the measured loop then runs ``box3d solve``, ``box3d
depurate`` and ``box3d eval`` in this process, round after round, for
``--seconds``.  Every round's outputs are checked with ``oracle.py``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` detections, and the metrics, the end-to-end
ones with ``--trace 0`` and the per-layer ones with ``--trace 1``.  The line
before it records the run's environment and details.  The exit code is 0
only when every check passed.
"""

import os

# One process on one core: pin every BLAS/OpenMP pool before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from reference import REF_S, reference_seconds  # noqa: E402
from spans import SpanTree, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    why: str
    frames: int
    spec: dict               # SyntheticSceneSpec overrides for the real cars
    injected: int = 0        # false detections appended to every frame
    refine: bool = True      # False runs `box3d solve --no-refine`
    iou: float = 0.7
    recall_points: int = 40


# KITTI-like frames with 1 px noise on every 2D-box edge; nothing truncated.
SPARSE = {"n_objects_min": 1, "n_objects_max": 4, "box_noise_sigma": 1.0}

WORKLOADS = {
    "sparse_refine": Workload(
        "few cars per frame; Gauss-Newton refinement is the largest layer",
        frames=400, spec=SPARSE),
    "crowded_eval": Workload(
        "24-32 cars per frame plus false detections; quadratic matching and depuration dominate",
        frames=60,
        spec={**SPARSE, "n_objects_min": 24, "n_objects_max": 32,
              "lateral_min": -40.0, "lateral_max": 40.0},
        injected=2, iou=0.5),
    "closed_form": Workload(
        "the sparse_refine mix solved with --no-refine; per-detection I/O and decode cost shows",
        frames=600, spec=SPARSE, refine=False, iou=0.5),
}

# Cars floating 1 m above the camera (bottom-face y = -1 m): their whole 2D
# box lies above the horizon row, the hard vertical rule must remove them.
# With the camera below the bottom face no pose is clear of the viewpoint
# table's height flip, hence allow_boundary_poses.
INJECTED_SPEC = {"camera_height": -1.0, "depth_min": 15.0, "depth_max": 40.0,
                 "lateral_min": -10.0, "lateral_max": 10.0, "box_noise_sigma": 1.0,
                 "allow_boundary_poses": True}
SEED_STRIDE = 100_003   # frame seeds of different workload seeds never overlap
INJECTED_SEED_OFFSET = 50_000

END_TO_END = [
    ("pipeline_objs_per_s", "objs/s", "higher"),
    ("solve_objs_per_s", "objs/s", "higher"),
    ("depurate_objs_per_s", "objs/s", "higher"),
    ("eval_objs_per_s", "objs/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("loc_dist_p50_m", "m", "lower"),
    ("loc_dist_p90_m", "m", "lower"),
    ("ap3d", "1", "higher"),
    ("aos", "1", "higher"),
]

# Per-call timings, in microseconds: (metric stem, layer recorded by spans.py).
TIMED_LAYERS = [
    ("kitti_io.parse_us_per_obj", "kitti_io.parse"),
    ("kitti_io.write_us_per_obj", "kitti_io.write"),
    ("properties.decode_us_per_obj", "properties.decode"),
    ("solver.init_us_per_obj", "solver"),
    ("solver.refine_us_per_obj", "solver.refine"),
    ("depuration.depurate_us_per_frame", "depuration.depurate"),
    ("metrics.match_us_per_frame", "metrics.match"),
    ("metrics.match_us_per_pair", "metrics.match"),
    ("metrics.dim_error_us_per_frame", "metrics.dim_error"),
    ("synthetic.generate_us_per_obj", "synthetic.generate"),
]
FEW_SAMPLE_LAYERS = [("metrics.ap_aos_us", "metrics.ap_aos")]  # one sample per eval
COUNTS = [
    ("solver.refined_objs", "count", "lower", "solver.refine"),
    ("solver.gn_iters_mean", "iters", "lower", "solver.refine"),
    ("solver.converged_per_refined", "1", "higher", "solver.refine"),
    ("depuration.pairs", "count", "lower", "depuration.depurate"),
    ("depuration.removed_objs", "count", "lower", "depuration.depurate"),
    ("metrics.pairs", "count", "lower", "metrics.match"),
    ("cli.solve_self_s", "s", "lower", None),
    ("cli.depurate_self_s", "s", "lower", None),
    ("cli.eval_self_s", "s", "lower", None),
    ("trace.overhead_s", "s", "lower", None),
]
PER_LAYER = (
    [(f"{stem}.{k}", u, b) for stem, _ in TIMED_LAYERS
     for k, u, b in (("p50", "us", "lower"), ("tail", "us", "lower"), ("n", "count", "higher"))]
    + [(f"{stem}.{k}", u, b) for stem, _ in FEW_SAMPLE_LAYERS
       for k, u, b in (("p50", "us", "lower"), ("n", "count", "higher"))]
    + [(name, unit, better) for name, unit, better, _ in COUNTS]
)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n):
    """The highest percentile with at least ten samples beyond it; the median
    when there are fewer than forty samples, where no percentile is a tail."""
    if n >= 40:
        for p in TAIL_PERCENTILES:
            if n * (1.0 - p / 100.0) >= 10:
                return p
    return 50.0


# ---------------------------------------------------------------------------
# package, set-up and one round of the pipeline


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import box3d.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import box3d from {SRC}: {exc}")
    if Path(box3d.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"box3d imported from {box3d.__file__}, not from {SRC}")
    return box3d


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def import_seconds():
    """Time to import the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import box3d.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def write_inputs(box3d, wl: Workload, seed: int, frames: int, out: Path):
    """`box3d synth` for the real cars, then the injected false detections
    appended to each frame's detection and property files."""
    from box3d import kitti_io
    from box3d.synthetic import SyntheticSceneSpec, generate_scene

    out.mkdir(parents=True, exist_ok=True)
    spec_file = out / "spec.cfg"
    spec_file.write_text("".join(f"{k} = {v}\n" for k, v in wl.spec.items()))
    quiet(box3d.cli.main, ["synth", "--out", str(out), "--frames", str(frames),
                           "--seed", str(seed * SEED_STRIDE), "--spec", str(spec_file)])
    if not wl.injected:
        return
    spec = SyntheticSceneSpec(**INJECTED_SPEC, n_objects_min=wl.injected, n_objects_max=wl.injected)
    for i in range(frames):
        frame = f"{i:06d}"
        _, dets, props = generate_scene(
            replace(spec, seed=seed * SEED_STRIDE + INJECTED_SEED_OFFSET + i), frame)
        if any(d.box.v_max >= spec.camera_cv for d in dets):
            raise RuntimeError(f"frame {frame}: an injected box reaches the horizon row")
        with open(out / "detections" / f"{frame}.txt", "a") as f:
            f.write(kitti_io.write_detections(dets))
        rows = kitti_io.write_properties(props).splitlines(keepends=True)[1:]  # drop the header
        with open(out / "properties" / f"{frame}.txt", "a") as f:
            f.write("".join(rows))


@dataclass
class Dirs:
    inputs: Path
    results: Path
    kept: Path
    table: Path


def run_round(cli_main, wl: Workload, d: Dirs, tracer=None, after_each=None):
    """solve, depurate and eval once; returns each command's wall seconds.

    The previous round's output files are emptied, not deleted: a file the
    round fails to write stays empty and fails the comparison with the
    warm-up round.  Rewriting a file is what the commands then time, since
    creating one costs ~0.5 ms of kernel time on the sandbox's ext4 and
    swings threefold from minute to minute.

    `after_each`, if given, is called after each command, outside its timing."""
    for p in [*d.results.glob("*"), *d.kept.glob("*"), d.table]:
        if p.is_file():
            os.truncate(p, 0)
    i = d.inputs
    argv = {
        "solve": ["solve", "--calib", str(i / "calib"), "--detections", str(i / "detections"),
                  "--properties", str(i / "properties"), "--out", str(d.results)]
                 + ([] if wl.refine else ["--no-refine"]),
        "depurate": ["depurate", "--in", str(d.results), "--calib", str(i / "calib"), "--out", str(d.kept)],
        "eval": ["eval", "--results", str(d.kept), "--gt", str(i / "gt"), "--iou", str(wl.iou),
                 "--recall-points", str(wl.recall_points), "--json", str(d.table)],
    }
    seconds, errors = {}, []
    for name, args in argv.items():
        span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                quiet(cli_main, args)
        except Exception as exc:  # the round's checks count what it left unwritten
            errors.append(f"box3d {name}: {type(exc).__name__}: {exc}")
        seconds[name] = time.perf_counter() - t0
        if after_each:
            after_each()
    return seconds, errors


def snapshot(d: Dirs):
    files = {}
    for sub in (d.results, d.kept):
        for p in sorted(sub.glob("*.txt")) if sub.exists() else []:
            files[str(p)] = p.read_bytes()
    files["table"] = d.table.read_bytes() if d.table.exists() else b""
    return files


# ---------------------------------------------------------------------------
# checks


def check(d: Dirs, wl: Workload) -> oracle.Verdict:
    return oracle.check_round(d.inputs, d.results, d.kept, d.table, wl.refine, wl.iou, wl.recall_points)


# ---------------------------------------------------------------------------
# per-layer figures from the traced rounds


def layer_figures(spans, traced_rounds, absent_layers, overhead_s):
    """Per-layer metrics and details from the spans of the traced rounds."""
    tree = SpanTree(spans)
    sp = tree.spans
    commands = ("cli.solve", "cli.depurate", "cli.eval")

    def under(layer, *cmds):
        return [sp[i] for c in cmds for top in tree.commands(c) for i in tree.children(top, layer)]

    def total(key, xs):
        return sum(x.counts.get(key, 0) for x in xs)

    solver_tops = [i for top in tree.commands("cli.solve") for i in tree.children(top, "solver")]
    refine = [sp[j] for top in tree.commands("cli.solve") for j in tree.nested(top, "solver.refine")]
    init = [(sp[i].seconds - sum(sp[j].seconds for j in tree.nested(i, "solver.refine")),
             sp[i].counts.get("objs", 0)) for i in solver_tops]
    parse = under("kitti_io.parse", *commands)
    write = under("kitti_io.write", "cli.solve", "cli.depurate")
    decode = under("properties.decode", "cli.solve")
    depurate = under("depuration.depurate", "cli.depurate")
    match = under("metrics.match", "cli.eval")
    dim_error = under("metrics.dim_error", "cli.eval")
    ap_aos = [sum(sp[i].seconds for i in tree.children(top, "metrics.ap_aos"))
              for top in tree.commands("cli.eval")]
    generate = [x for x in sp if x.layer == "synthetic.generate" and x.counts.get("objs")]

    samples = {
        "kitti_io.parse_us_per_obj": [t for c in commands for t in tree.per_object(c, "kitti_io.parse")],
        "kitti_io.write_us_per_obj": [t for c in commands[:2] for t in tree.per_object(c, "kitti_io.write")],
        "properties.decode_us_per_obj": tree.per_object("cli.solve", "properties.decode"),
        "solver.init_us_per_obj": [t / n for t, n in init if n],
        "solver.refine_us_per_obj": [x.seconds / max(x.counts.get("objs", 1), 1) for x in refine],
        "depuration.depurate_us_per_frame": [x.seconds for x in depurate],
        "metrics.match_us_per_frame": [x.seconds for x in match],
        "metrics.match_us_per_pair": [x.seconds / x.counts["pairs"] for x in match if x.counts.get("pairs")],
        "metrics.dim_error_us_per_frame": [x.seconds for x in dim_error],
        "synthetic.generate_us_per_obj": [x.seconds / x.counts["objs"] for x in generate],
        "metrics.ap_aos_us": ap_aos,
    }
    metrics, tails, absent = {}, {}, []
    for stem, layer in TIMED_LAYERS + FEW_SAMPLE_LAYERS:
        xs = np.array(samples[stem]) * 1e6
        if layer in absent_layers:
            absent.append(stem)
        metrics[f"{stem}.p50"] = float(np.median(xs)) if len(xs) else 0.0
        metrics[f"{stem}.n"] = len(xs)
        if (stem, layer) in TIMED_LAYERS:
            tails[stem] = tail_percentile(len(xs))
            metrics[f"{stem}.tail"] = float(np.percentile(xs, tails[stem])) if len(xs) else 0.0
    n_refined = total("objs", refine)
    self_s = {c: [tree.self_seconds(top) for top in tree.commands(c)] for c in commands}
    metrics.update({
        "solver.refined_objs": n_refined / traced_rounds,
        "solver.gn_iters_mean": total("iterations", refine) / n_refined if n_refined else 0.0,
        "solver.converged_per_refined": total("converged", refine) / n_refined if n_refined else 0.0,
        "depuration.pairs": total("pairs", depurate) / traced_rounds,
        "depuration.removed_objs": total("removed", depurate) / traced_rounds,
        "metrics.pairs": total("pairs", match) / traced_rounds,
        "cli.solve_self_s": median(self_s["cli.solve"]),
        "cli.depurate_self_s": median(self_s["cli.depurate"]),
        "cli.eval_self_s": median(self_s["cli.eval"]),
        "trace.overhead_s": overhead_s,
    })
    absent += [name for name, _, _, layer in COUNTS if layer in absent_layers]
    seconds = lambda xs: sum(x.seconds for x in xs) / traced_rounds  # noqa: E731
    per_round = {
        "kitti_io.parse": seconds(parse), "kitti_io.write": seconds(write),
        "properties.decode": seconds(decode),
        "solver.init": sum(t for t, _ in init) / traced_rounds, "solver.refine": seconds(refine),
        "depuration.depurate": seconds(depurate), "metrics.match": seconds(match),
        "metrics.ap_aos": sum(ap_aos) / traced_rounds, "metrics.dim_error": seconds(dim_error),
    }
    details = {
        "tail_percentiles": tails,
        "absent": absent,
        "layer_s_per_round": per_round,
        "largest_layer": max(per_round, key=per_round.get),
        "cli_self_nonnegative": all(x >= 0 for xs in self_s.values() for x in xs),
    }
    return metrics, details


# ---------------------------------------------------------------------------
# the run


def environment(seed, wl_name, frames):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": wl_name,
        "seed": seed,
        "frames": frames,
    }


def median(xs):
    return float(statistics.median(xs))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0; re-check claims on 7)")
    ap.add_argument("--seconds", type=float, default=25.0, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: alternate traced and untraced rounds and report per-layer metrics")
    ap.add_argument("--frames", type=int, default=None, help="override the workload's frame count")
    args = ap.parse_args(argv)

    # a terminated run still removes its work directory (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    box3d = import_package()
    wl = WORKLOADS[args.workload]
    frames = args.frames or wl.frames
    info = environment(args.seed, args.workload, frames)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer()
    try:
        # set-up: the package import and the input directories, timed
        # several times, each between two reference jobs.  The first,
        # untimed, write creates the files and the timed ones rewrite them
        # (see run_round); the last input set written is the one measured.
        setups, setup_scales = [], []
        reference_seconds(work / "ref")  # creates the job's files
        ref = reference_seconds(work / "ref")
        setup_trace = tracer.installed() if args.trace else contextlib.nullcontext()
        with setup_trace:
            write_inputs(box3d, wl, args.seed, frames, work / "inputs")
            for _ in range(SETUP_REPEATS):
                seconds = import_seconds()
                t0 = time.perf_counter()
                write_inputs(box3d, wl, args.seed, frames, work / "inputs")
                setups.append(seconds + time.perf_counter() - t0)
                ref, before = reference_seconds(work / "ref"), ref
                setup_scales.append(2.0 * REF_S / (before + ref))
        d = Dirs(work / "inputs", work / "results", work / "kept", work / "table.json")

        # warm-up round, fully checked; later rounds must reproduce its files
        _, errors = run_round(box3d.cli.main, wl, d)
        first = check(d, wl)
        reference = snapshot(d)
        verdicts, problems = [first], list(first.problems) + errors

        # each untraced command is timed between two reference jobs
        refs = [reference_seconds(work / "ref")]

        def measured_round(traced):
            if traced:
                with tracer.installed():
                    secs, errs = run_round(box3d.cli.main, wl, d, tracer)
            else:
                secs, errs = run_round(box3d.cli.main, wl, d,
                                       after_each=lambda: refs.append(reference_seconds(work / "ref")))
            problems.extend(errs)
            if snapshot(d) == reference:
                verdicts.append(first)
            else:
                v = check(d, wl)
                problems.append("outputs differ from the warm-up round's")
                problems.extend(v.problems)
                verdicts.append(v)
            return secs

        # scaled: each command's time on a machine on which the reference job
        # takes REF_S, from the mean of the jobs just before and after it
        untraced, scaled, traced = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            secs = measured_round(False)
            untraced.append(secs)
            window = refs[-(len(secs) + 1):]
            scaled.append({c: t * 2.0 * REF_S / (window[k] + window[k + 1])
                           for k, (c, t) in enumerate(secs.items())})
            if args.trace:
                traced.append(measured_round(True))
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    correct = not problems and failed == 0
    info.update(rounds=len(untraced), traced_rounds=len(traced), attempted=attempted, failed=failed,
                round_s=[{k: round(v, 5) for k, v in r.items()} for r in untraced],
                detections_per_round=first.attempted, checks=first.checks, problems=sorted(set(problems))[:20],
                directions={n: b for n, _, b in (END_TO_END if not args.trace else PER_LAYER)})

    def throughput(n, key, rounds):
        return median([n / (r[key] if key else sum(r.values())) for r in rounds])

    if args.trace:
        # rounds alternate, so each traced round is paired with the untraced
        # one just before it: slow phases of a shared machine cancel out
        overhead = median([sum(t.values()) - sum(u.values()) for u, t in zip(untraced, traced)])
        values, details = layer_figures(tracer.spans, len(traced), tracer.absent, overhead)
        info.update(details)
        if not details["cli_self_nonnegative"]:
            correct = False
            info["problems"].append("child spans cover more than their command's wall time")
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        acc = first.accuracy
        counted = {"pipeline": (first.attempted, None), "solve": (first.attempted, "solve"),
                   "depurate": (first.lifted, "depurate"), "eval": (first.kept, "eval")}
        info["unscaled"] = {f"{name}_objs_per_s": throughput(n, key, untraced)
                            for name, (n, key) in counted.items()}
        info["unscaled"]["setup_s"] = median(setups)
        info["reference_job_s"] = [round(r, 5) for r in refs]
        values = {f"{name}_objs_per_s": throughput(n, key, scaled) for name, (n, key) in counted.items()}
        values.update({
            "setup_s": median([t * k for t, k in zip(setups, setup_scales)]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loc_dist_p50_m": acc["loc_dist_p50_m"],
            "loc_dist_p90_m": acc["loc_dist_p90_m"],
            "ap3d": acc["ap3d"],
            "aos": acc["aos"],
        })
        info["accuracy"] = acc
        units = {n: u for n, u, _ in END_TO_END}

    for p in info["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"bench": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
