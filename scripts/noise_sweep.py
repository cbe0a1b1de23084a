#!/usr/bin/env python3
"""Location-error degradation under 2D-box noise.

Sweeps the box-corner noise level over a fixed set of synthetic scenes and
reports closed-form vs refined location error quantiles per level.
"""

import argparse
from dataclasses import astuple, replace

import numpy as np

from box3d.solver import DEFAULT_SOLVER_CONFIG, DecodedRows, decode_rows, lift_batch
from box3d.synthetic import DEFAULT_IMAGE_SIZE, SyntheticSceneSpec, generate_scene


def solve_level(sigma, n_scenes, seed0):
    parts, truth = [], []
    for seed in range(n_scenes):
        spec = SyntheticSceneSpec(
            n_objects_min=1, n_objects_max=1, seed=seed0 + seed, box_noise_sigma=sigma
        )
        gt, dets, props = generate_scene(spec)
        parts.append(decode_rows(dets, props, astuple(gt.camera)))
        truth.extend(gt.objects.location)
    rows, truth = DecodedRows.concatenate(parts), np.array(truth)
    init = lift_batch(rows, DEFAULT_IMAGE_SIZE, replace(DEFAULT_SOLVER_CONFIG, refine=False))
    refined = lift_batch(rows, DEFAULT_IMAGE_SIZE)
    lifted = init.lifted & refined.lifted
    return tuple(
        np.linalg.norm(r.location[lifted] - truth[lifted], axis=1) for r in (init, refined)
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenes", type=int, default=500, help="scenes per noise level")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--levels", type=float, nargs="+", default=[0.0, 1.0, 2.0, 4.0])
    args = ap.parse_args()

    print(f"{'sigma_px':>8}  {'init_med':>9}  {'ref_med':>9}  {'ref_p90':>9}  {'ref_max':>9}")
    for sigma in args.levels:
        init_errs, ref_errs = solve_level(sigma, args.scenes, args.seed)
        print(
            f"{sigma:8.1f}  {np.median(init_errs):9.4f}  {np.median(ref_errs):9.4f}"
            f"  {np.quantile(ref_errs, 0.9):9.4f}  {ref_errs.max():9.4f}"
        )


if __name__ == "__main__":
    main()
