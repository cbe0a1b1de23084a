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
import sys
from dataclasses import replace
from pathlib import Path

from . import kitti_io, solver
from .camera import Box2D, Dimensions
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
from .solver import DEFAULT_SOLVER_CONFIG, DecodedRows, decode_rows
from .synthetic import SyntheticSceneSpec, generate_scene
from .viewpoints import format_viewpoint_table


# written among the kept frames; frame listings skip it
DEPURATION_REPORT = "depuration_report.txt"


def _frames_in(directory: Path):
    return sorted(p.stem for p in directory.glob("*.txt") if p.name != DEPURATION_REPORT)


def _read(directory, frame, kind):
    """The text of a frame's file; a missing one ends the run naming it."""
    path = Path(directory) / f"{frame}.txt"
    try:
        return path.read_text()
    except FileNotFoundError:
        raise SystemExit(f"frame {frame}: missing {kind} file {path}") from None


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
        return kitti_io.coerce_fields(base, kitti_io.parse_keyvalue(Path(path).read_text()))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"config {path}: {exc}") from None


def cmd_solve(args):
    out_dir = Path(args.out)
    config = _load_config(args.config, DEFAULT_SOLVER_CONFIG)
    if args.no_refine:
        config = replace(config, refine=False)
    frames = _frames_in(Path(args.detections))
    # every frame is parsed and decoded into flat columns first, so that one
    # lift covers the whole run; no per-detection objects are kept meanwhile
    parts, classes = [], []
    for frame in frames:
        calib_text = _read(args.calib, frame, "calibration")
        detection_text = _read(args.detections, frame, "detection")
        property_text = _read(args.properties, frame, "properties")
        try:
            camera = kitti_io.parse_calib(calib_text)
            detections = kitti_io.parse_detections(detection_text)
            record = kitti_io.parse_properties(property_text, frame)
            parts.append(decode_rows(detections, record.properties, camera))
        except ValueError as exc:
            raise SystemExit(f"frame {frame}: {exc}")
        classes.append([d.cls for d in detections])
    out_dir.mkdir(parents=True, exist_ok=True)
    if not frames:
        print(f"solved 0 frames -> {out_dir}")
        return
    rows = DecodedRows.concatenate(parts)
    width, height = args.image_size
    box = rows.box
    outside = int(((box[:, :2] < 0).any(axis=1) | (box[:, 2] > width) | (box[:, 3] > height)).sum())
    if outside:
        print(f"box3d solve: {outside} of {len(rows)} detection boxes reach past the "
              f"{width:g}x{height:g} image", file=sys.stderr)
    result = solver.lift_batch(rows, args.image_size, config)
    lifted, end = result.lifted, 0
    for frame, cls in zip(frames, classes):
        start, end = end, end + len(cls)
        labels = []
        for j, i in enumerate(range(start, end)):
            if not lifted[i]:
                print(f"box3d solve: frame {frame} row {j}: skipped ({result.status[i]})", file=sys.stderr)
                continue
            labels.append(kitti_io.ObjectLabel(
                cls=cls[j], truncated=0.0, occluded=0, alpha=float(rows.alpha[i]),
                box2d=Box2D(*rows.box[i].tolist()), dims=Dimensions(*rows.dims[i].tolist()),
                location=result.location[i], yaw=float(rows.yaw[i]), score=float(rows.score[i]),
            ))
        (out_dir / f"{frame}.txt").write_text(kitti_io.write_labels(labels))
    print(f"solved {len(frames)} frames -> {out_dir}")


def cmd_depurate(args):
    cfg = _load_config(args.config, DEFAULT_DEPURATION_CONFIG)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_lines = []
    n_removed = 0
    for frame in _frames_in(Path(args.in_dir)):
        calib_text = _read(args.calib, frame, "calibration")
        try:
            camera = kitti_io.parse_calib(calib_text)
            record = kitti_io.parse_labels(_read(args.in_dir, frame, "result"), frame)
        except ValueError as exc:
            raise SystemExit(f"frame {frame}: {exc}")
        scene = [(o.box2d, o.box3d()) for o in record.objects]
        verdicts = depurate(scene, camera, cfg)
        kept = [o for o, v in zip(record.objects, verdicts) if v.kept]
        (out_dir / f"{frame}.txt").write_text(kitti_io.write_labels(kept))
        for i, v in enumerate(verdicts):
            if not v.kept:
                n_removed += 1
                rules = ",".join(sorted(v.violated_rules))
                report_lines.append(
                    f"{frame} object {i} ({record.objects[i].cls}): removed, "
                    f"{'hard rule' if v.hard_violation else 'co-determination'} [{rules}]"
                )
    (out_dir / DEPURATION_REPORT).write_text(
        "\n".join(report_lines) + ("\n" if report_lines else "")
    )
    print(f"removed {n_removed} detections; report -> {out_dir / DEPURATION_REPORT}")


def cmd_eval(args):
    recall_points = RECALL_POINTS_11 if args.recall_points == 11 else RECALL_POINTS_40
    matches = []
    n_gt = 0
    dim_err_sum = 0.0
    dim_err_count = 0
    gt_frames = _frames_in(Path(args.gt))
    for frame in sorted(set(_frames_in(Path(args.results))) - set(gt_frames)):
        text = (Path(args.results) / f"{frame}.txt").read_text()
        n_det = sum(1 for line in text.splitlines() if line.strip())
        print(f"box3d eval: frame {frame}: not scored ({n_det} detections, no ground-truth file)",
              file=sys.stderr)
    for frame in gt_frames:
        result_path = Path(args.results) / f"{frame}.txt"
        try:
            gt_record = kitti_io.parse_labels(_read(args.gt, frame, "ground-truth"), frame)
            dets = (
                kitti_io.parse_labels(result_path.read_text(), frame).objects
                if result_path.exists()
                else []
            )
        except ValueError as exc:
            raise SystemExit(f"frame {frame}: {exc}")
        gt_boxes = [
            o.box3d() for o in gt_record.objects
            if not o.is_dontcare
            and passes_difficulty(o.box2d.height, o.occluded, o.truncated, args.difficulty)
        ]
        det_boxes = [o.box3d() for o in dets]
        matches.extend(match_frame(
            [(b, o.score if o.score is not None else 1.0) for b, o in zip(det_boxes, dets)],
            gt_boxes,
            args.iou,
        ))
        n_gt += len(gt_boxes)
        if gt_boxes and det_boxes:
            # closest-ground-truth matching is per frame
            dim_err_sum += dimension_error(det_boxes, gt_boxes) * len(det_boxes)
            dim_err_count += len(det_boxes)
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
        Path(args.json).write_text(json.dumps(table, indent=2) + "\n")


def cmd_synth(args):
    spec = _load_config(args.spec, SyntheticSceneSpec())
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    out = Path(args.out)
    for sub in ("calib", "detections", "properties", "gt"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for i in range(args.frames):
        frame = f"{i:06d}"
        gt, detections, props = generate_scene(replace(spec, seed=spec.seed + i), frame)
        (out / "calib" / f"{frame}.txt").write_text(kitti_io.write_calib(gt.camera))
        (out / "gt" / f"{frame}.txt").write_text(kitti_io.write_labels(gt.objects))
        (out / "detections" / f"{frame}.txt").write_text(kitti_io.write_detections(detections))
        (out / "properties" / f"{frame}.txt").write_text(kitti_io.write_properties(props))
    print(f"wrote {args.frames} frames under {out}")


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
