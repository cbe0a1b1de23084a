#!/usr/bin/env python3
"""End-to-end demo: synthesize frames, inject false detections, solve,
depurate, and evaluate before/after.

The injected detections float near the top of the image; their recovered 3D
locations come out above the plausible vertical band and the hard rule
removes them.
"""

import argparse
import shutil
from pathlib import Path

import numpy as np

from box3d.cli import main as box3d_main
from box3d.kitti_io import PropertyTable, parse_properties, write_properties
from box3d.properties import encode_local_angle


def inject_false_detection(det_path: Path, prop_path: Path):
    with det_path.open("a") as f:
        f.write("Car 520.0 60.0 640.0 130.0 0.95\n")
    table = parse_properties(prop_path.read_text())
    # mean dimensions, viewpoint class 5, the bottom-face center on the box anchor
    row = [0.0, 0.0, 0.0, 5, 0.0, 0.0, *encode_local_angle(0.4, table.n_bins)]
    prop_path.write_text(write_properties(PropertyTable(np.vstack([table.data, row]))))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/pipeline_demo")
    ap.add_argument("--frames", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    if out.exists():
        shutil.rmtree(out)
    box3d_main(["synth", "--out", str(out), "--frames", str(args.frames), "--seed", str(args.seed)])

    for det_path in sorted((out / "detections").glob("*.txt"))[::2]:
        inject_false_detection(det_path, out / "properties" / det_path.name)

    box3d_main([
        "solve", "--calib", str(out / "calib"), "--detections", str(out / "detections"),
        "--properties", str(out / "properties"), "--out", str(out / "results"),
    ])
    box3d_main([
        "depurate", "--in", str(out / "results"), "--calib", str(out / "calib"),
        "--out", str(out / "kept"),
    ])

    print("\n== metrics before depuration ==")
    box3d_main(["eval", "--results", str(out / "results"), "--gt", str(out / "gt"), "--iou", "0.7"])
    print("\n== metrics after depuration ==")
    box3d_main(["eval", "--results", str(out / "kept"), "--gt", str(out / "gt"), "--iou", "0.7"])
    report = (out / "kept" / "depuration_report.txt").read_text().strip()
    print("\n== removal report ==")
    print(report if report else "(nothing removed)")


if __name__ == "__main__":
    main()
