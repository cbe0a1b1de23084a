"""Command-line interface.

Subcommands:
  solve            lift 2D detections + regressed properties to 3D boxes
  depurate         filter implausible detections from solved results
  eval             score results against ground truth
  synth            generate synthetic frames (calib/detections/properties/gt)
  viewpoint-table  dump the 16-entry vertex-selection table
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import kitti_io, solver
from .camera import wrap_angle
from .depuration import DEFAULT_DEPURATION_CONFIG, depurate
from .metrics import (
    RECALL_POINTS_11,
    RECALL_POINTS_40,
    aos_and_os,
    average_precision,
    dimension_error,
    match_frame,
    passes_difficulty,
)
from .solver import DEFAULT_SOLVER_CONFIG, decode_rows
from .synthetic import SyntheticSceneSpec, generate_scene
from .viewpoints import format_viewpoint_table


# written among the kept frames; frame listings skip it
DEPURATION_REPORT = "depuration_report.txt"


def _frames_in(directory):
    """The frames of a directory's .txt files; none when it cannot be listed."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(n[:-4] for n in names if n.endswith(".txt") and n != DEPURATION_REPORT)


def _read(directory, frame, kind):
    """The text of a frame's file; a missing one, or one that is not UTF-8,
    ends the run naming it."""
    path = os.path.join(directory, frame + ".txt")
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise SystemExit(f"frame {frame}: missing {kind} file {path}") from None
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise SystemExit(f"frame {frame}: line {line}: {kind} file is not UTF-8 ({exc.reason})") from None


def _write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _image_size(text):
    """WxH in pixels, both positive and finite."""
    try:
        w, h = (float(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH in pixels, got {text!r}") from None
    if not (0 < w < math.inf and 0 < h < math.inf):
        raise argparse.ArgumentTypeError(f"width and height must be positive and finite, got {text!r}")
    return (w, h)


def _load_config(path, base):
    """base with the overrides of a key-value file; a file that cannot be
    read or applied ends the run naming it."""
    if path is None:
        return base
    try:
        with open(path) as f:
            return kitti_io.coerce_fields(base, kitti_io.parse_keyvalue(f.read()))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"config {path}: {exc}") from None


def cmd_solve(args):
    config = _load_config(args.config, DEFAULT_SOLVER_CONFIG)
    if args.no_refine:
        config = replace(config, refine=False)
    frames = _frames_in(args.detections)
    # every frame is parsed first, so that one decode and one lift cover the
    # whole run and a bad file leaves nothing written
    detections, properties, cameras = [], [], []
    for frame in frames:
        calib_text = _read(args.calib, frame, "calibration")
        detection_text = _read(args.detections, frame, "detection")
        property_text = _read(args.properties, frame, "properties")
        try:
            camera = kitti_io.parse_calib(calib_text)
            dets = kitti_io.parse_detections(detection_text)
            props = kitti_io.parse_properties(property_text)
            if len(dets) != len(props):
                raise ValueError(f"{len(dets)} detections but {len(props)} property rows")
            if properties and props.n_bins != properties[0].n_bins:
                raise ValueError(f"{props.n_bins} orientation bins, frame {frames[0]} has {properties[0].n_bins}")
        except ValueError as exc:
            raise SystemExit(f"frame {frame}: {exc}")
        detections.append(dets)
        properties.append(props)
        cameras.append(np.broadcast_to((camera.fu, camera.fv, camera.cu, camera.cv), (len(dets), 4)))
    os.makedirs(args.out, exist_ok=True)
    if not frames:
        print(f"solved 0 frames -> {args.out}")
        return
    detections = kitti_io.DetectionTable.concatenate(detections)
    rows = decode_rows(detections, kitti_io.PropertyTable.concatenate(properties), np.concatenate(cameras))
    width, height = args.image_size
    box = rows.box
    outside = int(((box[:, :2] < 0).any(axis=1) | (box[:, 2] > width) | (box[:, 3] > height)).sum())
    if outside:
        print(f"box3d solve: {outside} of {len(rows)} detection boxes reach past the "
              f"{width:g}x{height:g} image", file=sys.stderr)
    result = solver.lift_batch(rows, args.image_size, config)
    zeros = np.zeros(len(rows))  # truncated, occluded
    labels = kitti_io.LabelTable(
        np.column_stack([zeros, zeros, rows.alpha, rows.box, rows.dims, result.location, rows.yaw, rows.score]),
        detections.cls,
    )
    lifted, end = result.lifted, 0
    for frame, n in zip(frames, (len(c) for c in cameras)):
        start, end = end, end + n
        for j in np.flatnonzero(~lifted[start:end]).tolist():
            print(f"box3d solve: frame {frame} row {j}: skipped ({result.status[start + j]})", file=sys.stderr)
        _write(os.path.join(args.out, frame + ".txt"), kitti_io.write_labels(labels[start:end][lifted[start:end]]))
    print(f"solved {len(frames)} frames -> {args.out}")


def cmd_depurate(args):
    cfg = _load_config(args.config, DEFAULT_DEPURATION_CONFIG)
    # every frame is parsed first, so that a bad file leaves nothing written
    scenes = []
    for frame in _frames_in(args.in_dir):
        calib_text = _read(args.calib, frame, "calibration")
        try:
            camera = kitti_io.parse_calib(calib_text)
            scenes.append((frame, camera, kitti_io.parse_labels(_read(args.in_dir, frame, "result"))))
        except ValueError as exc:
            raise SystemExit(f"frame {frame}: {exc}")
    os.makedirs(args.out, exist_ok=True)
    report_lines = []
    for frame, camera, table in scenes:
        verdicts = depurate(table, camera, cfg)
        kept = np.array([v.kept for v in verdicts], dtype=bool)
        _write(os.path.join(args.out, frame + ".txt"), kitti_io.write_labels(table[kept]))
        for i in np.flatnonzero(~kept).tolist():
            v = verdicts[i]
            report_lines.append(
                f"{frame} object {i} ({table.cls[i]}): removed, "
                f"{'hard rule' if v.hard_violation else 'co-determination'} [{','.join(sorted(v.violated_rules))}]"
            )
    report = os.path.join(args.out, DEPURATION_REPORT)
    _write(report, "\n".join(report_lines) + ("\n" if report_lines else ""))
    print(f"removed {len(report_lines)} detections; report -> {report}")


def cmd_eval(args):
    recall_points = RECALL_POINTS_11 if args.recall_points == 11 else RECALL_POINTS_40
    matches = []
    n_gt = 0
    dim_err_sum = 0.0
    dim_err_count = 0
    gt_frames, result_frames = _frames_in(args.gt), set(_frames_in(args.results))
    for frame in sorted(result_frames - set(gt_frames)):
        text = _read(args.results, frame, "result")
        n_det = sum(1 for line in text.splitlines() if line.strip())
        print(f"box3d eval: frame {frame}: not scored ({n_det} detections, no ground-truth file)",
              file=sys.stderr)
    for frame in gt_frames:
        try:
            gt = kitti_io.parse_labels(_read(args.gt, frame, "ground-truth"))
            dets = kitti_io.parse_labels(_read(args.results, frame, "result") if frame in result_frames else "")
        except ValueError as exc:
            raise SystemExit(f"frame {frame}: {exc}")
        with np.errstate(all="ignore"):
            height = gt.box[:, 3] - gt.box[:, 1]
        gt = gt[(gt.cls != "DontCare") & passes_difficulty(height, gt.occluded, gt.truncated, args.difficulty)]
        for labels in (gt, dets):
            labels.yaw[:] = wrap_angle(labels.yaw)  # into [-pi, pi), as Box3D does
        matches.extend(match_frame(dets, gt, args.iou))
        n_gt += len(gt)
        if len(gt) and len(dets):
            # closest-ground-truth matching is per frame
            dim_err_sum += dimension_error(dets, gt) * len(dets)
            dim_err_count += len(dets)
            if not math.isfinite(dim_err_sum):
                raise SystemExit(f"frame {frame}: the dimension error overflows a float")

    ap = average_precision(matches, n_gt, recall_points)
    aos, os_score = aos_and_os(matches, n_gt, recall_points)
    e_d = dim_err_sum / dim_err_count if dim_err_count else None
    table = {
        f"AP3D@{args.iou}": ap,
        "AOS": aos,
        "OS": os_score,
        "E_d": e_d,
        "n_gt": n_gt,
        "n_det": len(matches),
    }
    width = max(len(k) for k in table)
    for key, value in table.items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{key:<{width}}  {shown}")
    if args.json:
        _write(args.json, json.dumps(table, indent=2) + "\n")


def cmd_synth(args):
    spec = _load_config(args.spec, SyntheticSceneSpec())
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    for sub in ("calib", "detections", "properties", "gt"):
        os.makedirs(os.path.join(args.out, sub), exist_ok=True)
    for i in range(args.frames):
        frame = f"{i:06d}"
        gt, detections, props = generate_scene(replace(spec, seed=spec.seed + i), frame)
        for sub, text in (("calib", kitti_io.write_calib(gt.camera)), ("gt", kitti_io.write_labels(gt.objects)),
                          ("detections", kitti_io.write_detections(detections)),
                          ("properties", kitti_io.write_properties(props))):
            _write(os.path.join(args.out, sub, frame + ".txt"), text)
    print(f"wrote {args.frames} frames under {args.out}")


def cmd_viewpoint_table(args):
    print(format_viewpoint_table())


def build_parser():
    parser = argparse.ArgumentParser(prog="box3d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="lift 2D detections to 3D boxes")
    p.add_argument("--calib", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--properties", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-refine", action="store_true", help="closed-form initialization only (refine = false)")
    p.add_argument("--image-size", type=_image_size, default="1242x375", help="WxH in pixels")
    p.add_argument("--config", default=None, help="key-value solver config overrides")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("depurate", help="filter implausible detections")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--config", default=None, help="key-value depuration config overrides")
    p.set_defaults(func=cmd_depurate)

    p = sub.add_parser("eval", help="score results against ground truth")
    p.add_argument("--results", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou", type=float, default=0.7, choices=[0.5, 0.7])
    p.add_argument("--recall-points", type=int, default=11, choices=[11, 40])
    p.add_argument("--difficulty", default="all", choices=["all", "easy", "moderate", "hard"])
    p.add_argument("--json", default=None, help="also write the table as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic frames")
    p.add_argument("--spec", default=None, help="key-value SyntheticSceneSpec overrides")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--frames", type=int, default=10)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("viewpoint-table", help="dump the 16-entry selection table")
    p.set_defaults(func=cmd_viewpoint_table)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
