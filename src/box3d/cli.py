"""Command-line interface.

Subcommands:
  solve            lift 2D detections + regressed properties to 3D boxes
  depurate         filter implausible detections from solved results
  eval             score results against ground truth
  synth            generate synthetic frames (calib/detections/properties/gt)
  viewpoint-table  dump the 16-entry vertex-selection table
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from itertools import chain, compress

import numpy as np

from . import kitti_io, solver
from .camera import wrap_angle
from .depuration import DEFAULT_DEPURATION_CONFIG, depurate, pair_rules
from .metrics import (
    RECALL_POINTS_11,
    RECALL_POINTS_40,
    aos_and_os,
    average_precision,
    dimension_error,
    match_frame,
    match_run,
    pair_ious,
    passes_difficulty,
)
from .solver import DEFAULT_SOLVER_CONFIG, decode_rows
from .synthetic import SyntheticSceneSpec, generate_scene
from .viewpoints import format_viewpoint_table


# written among the kept frames; frame listings skip it
DEPURATION_REPORT = "depuration_report.txt"

# text of the frames that one parse or write call covers: enough frames to
# spread a call's fixed cost, few enough that the tokens and formatted lines
# of a large run are never held at once.  A larger frame is a block alone.
BLOCK_BYTES = 1 << 16
# a written label row is about 100 to 130 bytes
WRITE_BLOCK_ROWS = BLOCK_BYTES // 128


def _frames_in(directory):
    """The frames of a directory's .txt files; a directory that cannot be
    listed ends the run naming it."""
    try:
        names = os.listdir(directory)
    except OSError as exc:
        raise SystemExit(f"cannot list directory {directory}: {exc.strerror or exc}") from None
    return sorted(n[:-4] for n in names if n.endswith(".txt") and n != DEPURATION_REPORT)


# a handle only to open files relative to: O_PATH needs no read permission
_DIR_FLAGS = getattr(os, "O_PATH", os.O_RDONLY) | getattr(os, "O_DIRECTORY", 0)
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


class _FrameDir:
    """A directory of frame files, held as one handle from `with` to its
    end, that each frame's file is opened relative to: the kernel then walks
    the directory's path once, not once per file.  A directory that cannot
    be opened as a handle (it is missing or a file, or the platform has no
    dir_fd) is used by path, so that each fault reads as it does by path.  A
    frame's path is built only to name it in a message."""

    def __init__(self, path):
        self.path, self.fd = path, None

    def __enter__(self):
        if os.open in os.supports_dir_fd:
            try:
                self.fd = os.open(self.path, _DIR_FLAGS)
            except OSError:
                pass
        return self

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    def path_of(self, frame):
        return os.path.join(self.path, frame + ".txt")

    def open(self, frame, flags):
        if self.fd is None:
            return os.open(self.path_of(frame), flags, 0o666)
        return os.open(frame + ".txt", flags, 0o666, dir_fd=self.fd)


def _read(directory, frame, kind):
    """The text of a frame's file in a _FrameDir, or a ValueError naming a
    missing or unreadable one, or one that is not UTF-8 (see _texts)."""
    try:
        fd = directory.open(frame, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except FileNotFoundError:
        return ValueError(f"missing {kind} file {directory.path_of(frame)}")
    except OSError as exc:
        return ValueError(f"cannot read {kind} file {directory.path_of(frame)}: {exc.strerror or exc}")
    raw = b"".join(chunks)
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ValueError(f"line {line}: {kind} file is not UTF-8 ({exc.reason})")


def _texts(texts):
    """A reader's texts of a block, once no read of them failed; else the
    first failed read's ValueError is raised."""
    for text in texts:
        if not isinstance(text, str):
            raise text
    return texts


def _parse_blocks(frames, readers, parse):
    """parse(*texts) of each block of whole frames of at most BLOCK_BYTES of
    text (kitti_io.frame_blocks), in order, once every read(frame) has run: a
    text, a ValueError, or None for a frame with no file of its kind.  parse
    takes its steps in the order one frame takes them, and passes each
    reader's texts through _texts before it first uses them, so that a
    failed read is one step of its frame.  The run ends on its first fault in
    frame order, which kitti_io.parse_units finds among the block's frames,
    as "frame F: ..."."""
    units = list(zip(*([read(frame) for frame in frames] for read in readers)))
    sizes = [sum(len(text) for text in unit if isinstance(text, str)) for unit in units]
    parsed = []
    for first, last in kitti_io.frame_blocks(sizes, BLOCK_BYTES) if units else ():
        try:
            parsed.append(kitti_io.parse_units(lambda part: parse(*zip(*part)), units[first:last]))
        except kitti_io.ParseError as exc:
            raise SystemExit(f"frame {frames[first + exc.frame]}: {exc}") from None
    return parsed


def _write(path, data):
    """Bytes to a file, created or truncated; a path that cannot be written
    ends the run naming it."""
    try:
        _write_all(os.open(path, _WRITE_FLAGS, 0o666), data)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_frame(directory, frame, data):
    """Bytes to a frame's file in a _FrameDir, created or truncated; a file
    that cannot be written ends the run naming its path."""
    try:
        _write_all(directory.open(frame, _WRITE_FLAGS), data)
    except OSError as exc:
        raise SystemExit(f"cannot write {directory.path_of(frame)}: {exc.strerror or exc}") from None


def _write_all(fd, data):
    """Bytes to an open file, which is then closed."""
    try:
        view = memoryview(data)
        while view:  # os.write may take fewer bytes than given
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _make_dir(path):
    """A directory that cannot be made ends the run naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"cannot create directory {path}: {exc.strerror or exc}") from None


def _write_frames(out, frames, labels, offsets, written):
    """The `written` rows among rows offsets[f] to offsets[f + 1] of a run's
    labels to out/<frame f>.txt, from one write_labels call per block of whole
    frames of at most WRITE_BLOCK_ROWS written rows (kitti_io.frame_blocks).
    The files are opened relative to one handle on out."""
    kept = np.append(0, np.cumsum(written))[offsets]  # offsets among the written rows
    with _FrameDir(out) as directory:
        for a, b in kitti_io.frame_blocks(np.diff(kept).tolist(), WRITE_BLOCK_ROWS):
            rows = slice(offsets[a], offsets[b])
            text = kitti_io.write_labels(labels[rows][written[rows]]).encode()
            # every row ends in its only line break: the byte offset of each
            # row's start, then the end of the text
            ends = np.append(0, np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1)
            cuts = ends[kept[a:b + 1] - kept[a]].tolist()
            view = memoryview(text)
            for f, frame in enumerate(frames[a:b]):
                _write_frame(directory, frame, view[cuts[f]:cuts[f + 1]])


def _image_size(text):
    """WxH in pixels, both positive and finite."""
    try:
        w, h = (float(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH in pixels, got {text!r}") from None
    if not (0 < w < math.inf and 0 < h < math.inf):
        raise argparse.ArgumentTypeError(f"width and height must be positive and finite, got {text!r}")
    return (w, h)


def _count(text):
    """A whole number >= 0, for argparse."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return int(text)


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
    bins = None  # the orientation bin count of the run's first frame

    def parse(calib, detections, properties):
        nonlocal bins
        calib, detections, properties = _texts(calib), _texts(detections), _texts(properties)
        cameras = kitti_io.parse_calib(calib)
        detections, properties = kitti_io.parse_detections(detections), kitti_io.parse_properties(properties)
        n_det, n_prop = np.diff(detections.offsets), np.diff(properties.offsets)
        bad = np.flatnonzero(n_det != n_prop)
        if len(bad):
            raise ValueError(f"{n_det[bad[0]]} detections but {n_prop[bad[0]]} property rows")
        bins = bins or properties.objects.n_bins
        if properties.objects.n_bins != bins:
            raise ValueError(f"{properties.objects.n_bins} orientation bins, frame {frames[0]} has {bins}")
        return cameras, detections, properties

    # every frame is parsed first, so that one decode and one lift cover the
    # whole run and a bad file leaves nothing written
    with _FrameDir(args.calib) as calib, _FrameDir(args.detections) as dets, \
            _FrameDir(args.properties) as props:
        blocks = _parse_blocks(frames, [lambda f: _read(calib, f, "calibration"),
                                        lambda f: _read(dets, f, "detection"),
                                        lambda f: _read(props, f, "properties")], parse)
    _make_dir(args.out)
    if not frames:
        print(f"solved 0 frames -> {args.out}")
        return
    cameras, detections, properties = zip(*blocks)
    detections, offsets = kitti_io.join(detections)
    rows = decode_rows(detections, kitti_io.join(properties).objects,
                       np.repeat(np.concatenate(cameras), np.diff(offsets), axis=0))
    width, height = args.image_size
    box = rows.box
    outside = int(((box[:, :2] < 0).any(axis=1) | (box[:, 2] > width) | (box[:, 3] > height)).sum())
    if outside:
        print(f"box3d solve: {outside} of {len(rows)} detection boxes reach past the "
              f"{width:g}x{height:g} image", file=sys.stderr)
    result = solver.lift_batch(rows, args.image_size, config)
    lifted = result.lifted
    skipped = np.flatnonzero(~lifted)
    frame_of = np.searchsorted(offsets, skipped, side="right") - 1
    for i, f, j in zip(skipped.tolist(), frame_of.tolist(), (skipped - offsets[frame_of]).tolist()):
        print(f"box3d solve: frame {frames[f]} row {j}: skipped ({result.status[i]})", file=sys.stderr)
    zeros = np.zeros(len(rows))  # truncated, occluded
    labels = kitti_io.LabelTable(
        np.column_stack([zeros, zeros, rows.alpha, rows.box, rows.dims, result.location, rows.yaw, rows.score]),
        detections.cls,
    )
    _write_frames(args.out, frames, labels, offsets, lifted)
    print(f"solved {len(frames)} frames -> {args.out}")


def cmd_depurate(args):
    cfg = _load_config(args.config, DEFAULT_DEPURATION_CONFIG)
    frames = _frames_in(args.in_dir)

    def parse(calib, results):
        return kitti_io.parse_calib(_texts(calib)), kitti_io.parse_labels(_texts(results))

    # every frame is parsed first, so that a bad file leaves nothing written
    with _FrameDir(args.calib) as calib, _FrameDir(args.in_dir) as results:
        blocks = _parse_blocks(frames, [lambda f: _read(calib, f, "calibration"),
                                        lambda f: _read(results, f, "result")], parse) or [parse([], [])]
    fvs = np.concatenate([block for block, _ in blocks])[:, 1]
    labels, offsets = kitti_io.join([parsed for _, parsed in blocks])
    rules = pair_rules(labels, offsets, np.repeat(fvs, np.diff(offsets)), cfg)
    _make_dir(args.out)
    kept, report_lines = [], []
    at = offsets.tolist()
    for f, (frame, fv) in enumerate(zip(frames, fvs.tolist())):
        rows = slice(at[f], at[f + 1])
        table = labels[rows]
        for i, v in enumerate(depurate(table, fv, cfg, [a[rows] for a in rules])):
            kept.append(v.kept)
            if not kept[-1]:
                report_lines.append(
                    f"{frame} object {i} ({table.cls[i]}): removed, "
                    f"{'hard rule' if v.hard_violation else 'co-determination'} [{','.join(sorted(v.violated_rules))}]"
                )
    _write_frames(args.out, frames, labels, offsets, np.array(kept, dtype=bool))
    report = os.path.join(args.out, DEPURATION_REPORT)
    _write(report, ("\n".join(report_lines) + ("\n" if report_lines else "")).encode())
    print(f"removed {len(report_lines)} detections; report -> {report}")


def cmd_eval(args):
    recall_points = RECALL_POINTS_11 if args.recall_points == 11 else RECALL_POINTS_40
    gt_frames, result_frames = _frames_in(args.gt), _frames_in(args.results)
    has_gt, has_result = set(gt_frames), set(result_frames)

    def parse(gts, results):
        # a frame with a ground-truth file is scored, with no results where it
        # has no result file; a frame without one only has its results counted
        scored = [gt is not None for gt in gts]
        return (kitti_io.parse_labels(_texts([*compress(gts, scored)])),
                kitti_io.parse_labels(_texts([*compress(results, scored)])),
                [sum(1 for line in text.splitlines() if line.strip())
                 for text in _texts([r for r, s in zip(results, scored) if not s])])

    # every frame is parsed first, so that one IoU pass covers the whole run
    with _FrameDir(args.gt) as gt_dir, _FrameDir(args.results) as result_dir:
        blocks = _parse_blocks(sorted(has_gt | has_result), [
            lambda f: _read(gt_dir, f, "ground-truth") if f in has_gt else None,
            lambda f: _read(result_dir, f, "result") if f in has_result else "",
        ], parse) or [parse([], [])]
    gts, dets, n_unscored = zip(*blocks)
    for frame, n_det in zip([f for f in result_frames if f not in has_gt], chain.from_iterable(n_unscored)):
        print(f"box3d eval: frame {frame}: not scored ({n_det} detections, no ground-truth file)", file=sys.stderr)
    (gt, gt_offsets), (det, det_offsets) = kitti_io.join(gts), kitti_io.join(dets)
    with np.errstate(all="ignore"):
        height = gt.box[:, 3] - gt.box[:, 1]
    scored = (gt.cls != "DontCare") & passes_difficulty(height, gt.occluded, gt.truncated, args.difficulty)
    gt, gt_offsets = gt[scored], np.append(0, np.cumsum(scored))[gt_offsets]
    for labels in (gt, det):
        labels.yaw[:] = wrap_angle(labels.yaw)  # into [-pi, pi), as Box3D does
    run = match_run(det, gt, args.iou, pair_ious(det, det_offsets, gt, gt_offsets))
    d_at, g_at = det_offsets.tolist(), gt_offsets.tolist()
    matches = [(np.zeros(0), np.zeros(0, dtype=bool), np.zeros(0), np.zeros(0))]
    for f in range(len(gt_frames)):
        rows = slice(d_at[f], d_at[f + 1])
        matches.append(match_frame(det[rows], gt[g_at[f]:g_at[f + 1]], args.iou, [c[rows] for c in run]))
    matches = [np.concatenate(column) for column in zip(*matches)]
    # closest-ground-truth matching is per frame; the frames' means, weighted
    # by their detections, are summed in frame order
    n_scored = np.where(np.diff(gt_offsets) > 0, np.diff(det_offsets), 0)
    scored_frames = np.flatnonzero(n_scored)
    with np.errstate(all="ignore"):
        dim_err_sums = np.cumsum(dimension_error(det, det_offsets, gt, gt_offsets)[scored_frames]
                                 * n_scored[scored_frames])
    overflow = np.flatnonzero(~np.isfinite(dim_err_sums))
    if len(overflow):
        raise SystemExit(f"frame {gt_frames[scored_frames[overflow[0]]]}: the dimension error overflows a float")
    n_gt = len(gt)

    ap = average_precision(matches, n_gt, recall_points)
    aos, os_score = aos_and_os(matches, n_gt, recall_points)
    e_d = float(dim_err_sums[-1]) / int(n_scored.sum()) if len(scored_frames) else None
    table = {
        f"AP3D@{args.iou}": ap,
        "AOS": aos,
        "OS": os_score,
        "E_d": e_d,
        "n_gt": n_gt,
        "n_det": len(matches[0]),
    }
    if args.json:
        _write(args.json, (json.dumps(table, indent=2) + "\n").encode())
    width = max(len(k) for k in table)
    for key, value in table.items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{key:<{width}}  {shown}")


def cmd_synth(args):
    spec = _load_config(args.spec, SyntheticSceneSpec())
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)

    def scene(i):
        try:
            return generate_scene(replace(spec, seed=spec.seed + i), f"{i:06d}")
        except RuntimeError as exc:  # the spec leaves no pose to sample
            raise SystemExit(f"frame {i:06d}: {exc}") from None

    first = scene(0) if args.frames else None  # before any write: a spec may leave no pose
    calib, dets, props, gt_dir = (_FrameDir(os.path.join(args.out, sub))
                                  for sub in ("calib", "detections", "properties", "gt"))
    for directory in (calib, dets, props, gt_dir):
        _make_dir(directory.path)
    with calib, dets, props, gt_dir:
        for i in range(args.frames):
            gt, detections, properties = scene(i) if i else first
            for directory, text in ((calib, kitti_io.write_calib(gt.camera)),
                                    (gt_dir, kitti_io.write_labels(gt.objects)),
                                    (dets, kitti_io.write_detections(detections)),
                                    (props, kitti_io.write_properties(properties))):
                _write_frame(directory, f"{i:06d}", text.encode())
    print(f"wrote {args.frames} frames under {args.out}")


def cmd_viewpoint_table(args):
    print(format_viewpoint_table())


@functools.cache
def build_parser():
    """The CLI's parser, built once per process: parse_args keeps nothing
    from one call to the next, and building the parser costs more than a
    small command's parse.  set_defaults binds the cmd_* functions as they
    are at the first build."""
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
    p.add_argument("--seed", type=_count, default=None)
    p.add_argument("--frames", type=_count, default=10)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("viewpoint-table", help="dump the 16-entry selection table")
    p.set_defaults(func=cmd_viewpoint_table)
    return parser


def main(argv=None):
    """Run one command.  It closes every file and directory handle it opens,
    whether it returns or exits, so main() may be called many times in one
    process."""
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
