"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import json
import math
import time
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest

from box3d.camera import Box3D, CameraIntrinsics, Dimensions, box_vertices, wrap_angle
from box3d.cli import DEPURATION_REPORT, main
from box3d.depuration import DEFAULT_DEPURATION_CONFIG, RULE_DIMS, depurate
from box3d.kitti_io import (
    LabelTable,
    parse_calib,
    parse_detections,
    parse_labels,
    parse_properties,
    write_calib,
    write_detections,
    write_labels,
    write_properties,
)
from box3d.metrics import aos_and_os, average_precision, dimension_error, pair_ious
from box3d.properties import (
    CAR_PRIOR,
    decode_local_angle,
    encode_local_angle,
    global_from_local,
    local_from_global,
)
from box3d.solver import DEFAULT_SOLVER_CONFIG, DecodedRows, SolverConfig, decode_rows, lift_batch
from box3d.synthetic import DEFAULT_IMAGE_SIZE, SyntheticSceneSpec, exact_box2d, generate_scene
from box3d.viewpoints import (
    away_from_viewpoint_boundaries,
    classify_viewpoint,
    extremal_vertices,
    selected_vertex_indices,
)

IMAGE = (float(DEFAULT_IMAGE_SIZE[0]), float(DEFAULT_IMAGE_SIZE[1]))
CLOSED_FORM = SolverConfig(refine=False)


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _decoded_scenes(seeds, n_objects_min=1, n_objects_max=1, **spec_kwargs):
    """Ground-truth locations (N, 3) and decoded rows of generated scenes,
    one object each by default, through the full property-decode path."""
    truth, parts = [], []
    for seed in seeds:
        spec = SyntheticSceneSpec(n_objects_min=n_objects_min, n_objects_max=n_objects_max, seed=seed,
                                  **spec_kwargs)
        gt, dets, props = generate_scene(spec)
        truth.extend(gt.objects.location)
        parts.append(decode_rows(dets, props, astuple(gt.camera)))
    return np.array(truth), DecodedRows.concatenate(parts)


def _errors(location, truth):
    return np.linalg.norm(location - truth, axis=1)


def test_criterion_1_exact_recovery_1000_scenes():
    start = time.perf_counter()
    truth, rows = _decoded_scenes(range(1000))
    result = lift_batch(rows, IMAGE)
    n = len(result)
    max_err = float(_errors(result.location, truth).max())
    max_resid = float(result.residual.max())
    elapsed = time.perf_counter() - start
    ok = set(result.status) == {"ok"} and max_err <= 1e-3 and max_resid <= 1e-6 and elapsed < 10.0
    _report(
        1, ok,
        f"{n} exact scenes: max location error {max_err:.2e} m (<=1e-3), "
        f"max residual {max_resid:.2e} px (<=1e-6), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_cascade_beats_closed_form_under_cbf_noise():
    truth, rows = _decoded_scenes(range(500), cbf_noise_sigma=5.0)
    med_init = float(np.median(_errors(lift_batch(rows, IMAGE, CLOSED_FORM).location, truth)))
    med_ref = float(np.median(_errors(lift_batch(rows, IMAGE).location, truth)))
    _report(
        2, med_ref < med_init,
        f"500 scenes, CBF noise 5 px: median refined {med_ref:.3f} m < "
        f"median closed-form {med_init:.3f} m",
    )


def test_criterion_3_truncation_gate_bit_identical():
    _, rows = _decoded_scenes(range(2000, 2050))
    # clamp each border in turn to within the 10 px threshold
    clamped = []
    for column, value in ((0, 5.0), (1, 4.0), (2, IMAGE[0] - 10.0), (3, IMAGE[1] - 3.0)):
        part = DecodedRows(rows.data.copy())
        part.box[:, column] = value
        clamped.append(part)
    gated = DecodedRows.concatenate(clamped)
    result = lift_batch(gated, IMAGE)
    expected = lift_batch(gated, IMAGE, CLOSED_FORM)
    ok = (
        set(result.status) == {"truncated_init_only"} and set(expected.status) == {"ok"}
        and not result.used_refinement.any() and not result.iterations.any()
        and np.array_equal(result.location, expected.location)
    )
    _report(3, ok, f"{len(result)} truncated inputs returned the closed form bit-identically")


def test_criterion_4_viewpoint_table_matches_oracle():
    k = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
    rng = np.random.default_rng(404)
    matches = 0
    total = 0
    while total < 500:
        mean = CAR_PRIOR.mean_dims
        dims = Dimensions(*(np.array([mean.h, mean.w, mean.l]) + rng.normal(0, 0.08, 3)))
        loc = np.array([rng.uniform(-20, 20), rng.uniform(0.3, 2.5), rng.uniform(5, 60)])
        b = Box3D(loc, dims, rng.uniform(-math.pi, math.pi))
        if loc[2] - 0.5 * (dims.l + dims.w) <= 0.5:
            continue
        # >= 2 deg from the (position-corrected) octant boundaries and
        # >= 2 cm from the top-face height boundary
        if not away_from_viewpoint_boundaries(b, math.radians(2.0), 0.02):
            continue
        total += 1
        if extremal_vertices(b, k) == selected_vertex_indices(classify_viewpoint(b)):
            matches += 1
    _report(4, matches == total, f"{matches}/{total} clean poses match the oracle (100% required)")


def _mc_iou(a, b, n, seed):
    rng = np.random.default_rng(seed)
    lo = np.minimum(box_vertices(a).min(axis=0), box_vertices(b).min(axis=0))
    hi = np.maximum(box_vertices(a).max(axis=0), box_vertices(b).max(axis=0))
    pts = rng.uniform(lo, hi, size=(n, 3))

    def inside(box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        rel = pts - box.location
        ox = rel[:, 0] * c - rel[:, 2] * s
        oz = rel[:, 0] * s + rel[:, 2] * c
        return (
            (np.abs(ox) <= box.dims.l / 2)
            & (np.abs(oz) <= box.dims.w / 2)
            & (rel[:, 1] <= 0)
            & (rel[:, 1] >= -box.dims.h)
        )

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


def _iou(a, b):
    """The 3D IoU of two Box3Ds: pair_ious on one-row tables, 0.0 where it
    returns no triple."""
    a, b = (LabelTable([[0.0] * 7 + [*astuple(x.dims), *x.location, x.yaw, math.nan]], ["Car"]) for x in (a, b))
    iou = pair_ious(a, [0, 1], b, [0, 1])[2]
    return float(iou[0]) if len(iou) else 0.0


def test_criterion_5_iou_vs_monte_carlo():
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(50):
        a = Box3D(
            np.array([0.0, rng.uniform(-0.3, 0.3), 0.0]),
            Dimensions(rng.uniform(1, 2), rng.uniform(1, 2), rng.uniform(2, 5)),
            rng.uniform(-math.pi, math.pi),
        )
        b = Box3D(
            np.array([rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3), rng.uniform(-1.5, 1.5)]),
            Dimensions(rng.uniform(1, 2), rng.uniform(1, 2), rng.uniform(2, 5)),
            rng.uniform(-math.pi, math.pi),
        )
        worst = max(worst, abs(_iou(a, b) - _mc_iou(a, b, 1_000_000, trial)))

    # symmetry and rigid-motion invariance
    sym_err = 0.0
    rigid_err = 0.0
    for trial in range(20):
        a = Box3D(np.array([0.0, 0.0, 0.0]), Dimensions(1.5, 1.7, 4.0), rng.uniform(-3, 3))
        b = Box3D(
            np.array([rng.uniform(-1, 1), rng.uniform(-0.3, 0.3), rng.uniform(-1, 1)]),
            Dimensions(1.4, 1.8, 4.2), rng.uniform(-3, 3),
        )
        sym_err = max(sym_err, abs(_iou(a, b) - _iou(b, a)))
        shift, tx, tz = rng.uniform(-3, 3), rng.uniform(-20, 20), rng.uniform(-20, 20)
        c, s = math.cos(shift), math.sin(shift)

        def moved(box):
            x, y, z = box.location
            return Box3D(
                np.array([x * c + z * s + tx, y, -x * s + z * c + tz]),
                box.dims, box.yaw + shift,
            )

        rigid_err = max(rigid_err, abs(_iou(moved(a), moved(b)) - _iou(a, b)))
    ok = worst <= 0.01 and sym_err <= 1e-9 and rigid_err <= 1e-9
    _report(
        5, ok,
        f"50 random pairs vs 1e6-point Monte Carlo: max |delta| {worst:.4f} (<=0.01); "
        f"symmetry {sym_err:.1e}, rigid invariance {rigid_err:.1e} (<=1e-9)",
    )


def _columns(rows):
    """match_frame's four columns of (score, TP, orientation similarity, IoU)
    rows."""
    score, is_tp, sims, ious = zip(*rows)
    return np.array(score), np.array(is_tp, dtype=bool), np.array(sims), np.array(ious)


def test_criterion_6_metric_oracles():
    matches = _columns([
        (0.9, True, 0.0, 1.0),
        (0.8, False, 0.0, 0.0),
        (0.7, True, 1.0, 1.0),
        (0.6, False, 0.0, 0.1),
        (0.5, True, 0.5, 1.0),
    ])
    ap = average_precision(matches, 3)
    aos, os_score = aos_and_os(matches, 3)
    ap_expected = float(Fraction(42, 55))
    aos_expected = float(Fraction(53, 165))
    ok = (
        abs(ap - ap_expected) < 1e-12
        and abs(aos - aos_expected) < 1e-12
        and abs(os_score - aos_expected / ap_expected) < 1e-12
    )

    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(1, 15))
        fixture = _columns([
            (float(rng.uniform()), bool(rng.uniform() < 0.6), float(rng.uniform()), 0.8)
            for _ in range(n)
        ])
        n_gt = int(rng.integers(1, 10))
        a = average_precision(fixture, n_gt)
        s, _ = aos_and_os(fixture, n_gt)
        ok = ok and s <= a + 1e-12

    # no 2D box; h w l; bottom-face center; yaw; no score
    det = LabelTable([0.0] * 7 + [1.4, 1.3, 1.0, 0.0, 0.0, 10.0, 0.0, math.nan], ["Car"])
    gt = LabelTable([0.0] * 7 + [1.0, 1.0, 1.0, 0.0, 0.0, 10.0, 0.0, math.nan], ["Car"])
    e_d = float(dimension_error(det, [0, 1], gt, [0, 1])[0])
    ok = ok and abs(e_d - 0.5) < 1e-12
    _report(
        6, ok,
        f"AP {ap:.6f} (=42/55), AOS {aos:.6f} (=53/165), OS check, "
        f"AOS<=AP on 100 random fixtures, E_d {e_d} (=0.5)",
    )


def _with_box(table, box3d, k):
    """The label rows plus one more: box3d and its 2D box seen by camera k."""
    row = [0.0, 0.0, 0.0, *exact_box2d(box3d, k), box3d.dims.h, box3d.dims.w, box3d.dims.l,
           *box3d.location, box3d.yaw, math.nan]
    return LabelTable.concatenate([table, LabelTable(row, ["Car"])])


def test_criterion_7_depuration():
    k = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
    # 100% removal of sky boxes
    removed = 0
    n_injected = 50
    for seed in range(n_injected):
        gt, _, _ = generate_scene(
            SyntheticSceneSpec(n_objects_min=2, n_objects_max=4, seed=seed, dims_sigma=0.05)
        )
        sky = Box3D(np.array([float(seed % 7) - 3.0, -3.0, 25.0]), CAR_PRIOR.mean_dims, 0.3)
        scene = _with_box(gt.objects, sky, k)
        verdicts = depurate(scene, k.fv)
        if not verdicts[-1].kept and verdicts[-1].hard_violation:
            removed += 1
        assert all(v.kept for v in verdicts[:-1])

    # zero false removals on 200 exact scenes (non-occluding layouts, the
    # regime the adjacency rule assumes)
    false_removals = 0
    for seed in range(200):
        gt, _, _ = generate_scene(
            SyntheticSceneSpec(n_objects_min=2, n_objects_max=4, seed=seed + 300,
                               dims_sigma=0.05, overlap_free=True)
        )
        false_removals += sum(not v.kept for v in depurate(gt.objects, k.fv))

    # a single soft violation is kept (co-determination)
    gt, _, _ = generate_scene(SyntheticSceneSpec(n_objects_min=2, n_objects_max=2, seed=1))
    odd = Box3D(np.array([6.0, 1.65, 30.0]), Dimensions(0.4, 0.4, 1.2), 0.2)
    scene = _with_box(gt.objects, odd, k)
    verdicts = depurate(scene, k.fv)
    single_soft_kept = verdicts[-1].kept and verdicts[-1].violated_rules == frozenset({RULE_DIMS})

    ok = removed == n_injected and false_removals == 0 and single_soft_kept
    _report(
        7, ok,
        f"sky boxes removed {removed}/{n_injected} (hard rule), "
        f"false removals {false_removals}/200 exact scenes, single-soft-rule object kept",
    )


def test_criterion_8_round_trips():
    rng = np.random.default_rng(808)
    # discrete-bin angle encode/decode, every bin count
    worst_angle = 0.0
    for n_bins in (1, 2, 4, 8):
        thetas = rng.uniform(-math.pi, math.pi, 250)
        decoded = decode_local_angle([encode_local_angle(theta, n_bins) for theta in thetas])
        worst_angle = max(worst_angle, float(np.abs(wrap_angle(decoded - thetas)).max()))

    # local <-> global identity
    worst_global = 0.0
    for _ in range(1000):
        theta = rng.uniform(-math.pi, math.pi)
        theta_ray = rng.uniform(1e-3, math.pi - 1e-3)
        back = global_from_local(local_from_global(theta, theta_ray), theta_ray)
        worst_global = max(worst_global, abs(wrap_angle(back - theta)))

    # file formats parse(write) identity
    gt, dets, props = generate_scene(
        SyntheticSceneSpec(n_objects_min=3, n_objects_max=3, seed=5, dims_sigma=0.05,
                           box_noise_sigma=0.5, cbf_noise_sigma=0.5, angle_noise_sigma=0.01)
    )
    labels_text = write_labels(gt.objects)
    calib_text = write_calib(gt.camera)
    det_text = write_detections(dets)
    props_text = write_properties(props)
    files_ok = (
        write_labels(parse_labels([labels_text]).objects) == labels_text
        and write_calib(CameraIntrinsics(*parse_calib([calib_text])[0])) == calib_text
        and write_detections(parse_detections([det_text]).objects) == det_text
        and write_properties(parse_properties([props_text]).objects) == props_text
    )

    ok = worst_angle <= 1e-12 and worst_global <= 1e-12 and files_ok
    _report(
        8, ok,
        f"angle round trip max {worst_angle:.1e} (<=1e-12), "
        f"local/global identity max {worst_global:.1e} (<=1e-12), file formats identity: {files_ok}",
    )


def test_criterion_9_refinement_beats_closed_form_under_box_noise():
    # per sigma: the closed form's (median, p90), then refinement's
    table = {}
    for sigma in (0.0, 1.0, 2.0, 4.0):
        truth, rows = _decoded_scenes(range(500), box_noise_sigma=sigma)
        table[sigma] = [np.quantile(_errors(lift_batch(rows, IMAGE, config).location, truth), (0.5, 0.9))
                        for config in (CLOSED_FORM, DEFAULT_SOLVER_CONFIG)]
    beats = all((refined < closed).all() for closed, refined in table.values())
    medians = [refined[0] for _, refined in table.values()]
    monotone = all(b >= a for a, b in zip(medians, medians[1:]))
    _report(
        9, beats and monotone,
        "500 scenes per box noise level, median/p90 location error (m), closed form -> refined: "
        + "; ".join(f"{sigma:g} px {c[0]:.3f}/{c[1]:.2f} -> {r[0]:.3f}/{r[1]:.2f}"
                    for sigma, (c, r) in table.items())
        + " (refined below closed form at every level; refined medians non-decreasing)",
    )


def test_criterion_10_truncated_detections():
    truth, rows = _decoded_scenes(range(800), n_objects_max=4, box_noise_sigma=1.0, allow_truncated=True,
                                  lateral_min=-25.0, lateral_max=25.0)
    result = lift_batch(rows, IMAGE)
    box = rows.box
    positive = (box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3])
    errors = _errors(result.location, truth)
    ok_rows, truncated = result.status == "ok", result.status == "truncated_init_only"
    truncated_p50, truncated_p90 = np.quantile(errors[truncated], (0.5, 0.9))
    ok = (
        np.array_equal(result.lifted, positive)
        and (result.status[~positive] == "degenerate_input").all()
        and truncated_p90 <= 1.25
    )
    _report(
        10, ok,
        f"800 scenes of 1-4 cars, truncation allowed, 1 px box noise: all {positive.sum()} boxes of positive "
        f"size lifted (ok {ok_rows.sum()}, p90 {np.quantile(errors[ok_rows], 0.9):.2f} m; "
        f"truncated_init_only {truncated.sum()}, p50 {truncated_p50:.3f} m, p90 {truncated_p90:.3f} m "
        f"(<=1.25)); all {(~positive).sum()} inverted or zero-size boxes degenerate_input",
    )


# bench/run.py's crowded_eval mix at the benchmark's seed 0: 60 frames of 24-32
# cars with 1 px box noise (frame i has scene seed i), and two cars 1 m above
# the camera appended to every frame's detections (scene seed 50_000 + i).
CROWDED_SPEC = {"n_objects_min": 24, "n_objects_max": 32, "box_noise_sigma": 1.0,
                "lateral_min": -40.0, "lateral_max": 40.0}
INJECTED = SyntheticSceneSpec(camera_height=-1.0, depth_min=15.0, depth_max=40.0, lateral_min=-10.0,
                              lateral_max=10.0, box_noise_sigma=1.0, allow_boundary_poses=True,
                              n_objects_min=2, n_objects_max=2)


def test_criterion_11_depuration_in_crowded_scenes(tmp_path):
    frames, n_injected = 60, 60 * INJECTED.n_objects_max
    (tmp_path / "spec.cfg").write_text("".join(f"{k} = {v}\n" for k, v in CROWDED_SPEC.items()))
    main(["synth", "--out", str(tmp_path), "--frames", str(frames), "--seed", "0",
          "--spec", str(tmp_path / "spec.cfg")])
    n_real = []
    for i in range(frames):
        frame = f"{i:06d}"
        _, dets, props = generate_scene(replace(INJECTED, seed=50_000 + i), frame)
        with open(tmp_path / "detections" / f"{frame}.txt", "a") as f:
            f.write(write_detections(dets))
        with open(tmp_path / "properties" / f"{frame}.txt", "a") as f:
            f.write(write_properties(props).split("\n", 1)[1])  # without the header
        n_real.append(len((tmp_path / "gt" / f"{frame}.txt").read_text().splitlines()))
    main(["solve", "--calib", str(tmp_path / "calib"), "--detections", str(tmp_path / "detections"),
          "--properties", str(tmp_path / "properties"), "--out", str(tmp_path / "results")])
    main(["depurate", "--in", str(tmp_path / "results"), "--calib", str(tmp_path / "calib"),
          "--out", str(tmp_path / "kept")])

    def ap3d(results):
        main(["eval", "--results", str(tmp_path / results), "--gt", str(tmp_path / "gt"), "--iou", "0.5",
              "--recall-points", "40", "--json", str(tmp_path / "table.json")])
        return json.loads((tmp_path / "table.json").read_text())["AP3D@0.5"]

    # the injected rows are each result file's last rows only if solve wrote every row
    all_written = all(len((tmp_path / "results" / f"{i:06d}.txt").read_text().splitlines())
                      == n + INJECTED.n_objects_max for i, n in enumerate(n_real))
    # report lines read "<frame> object <row> (<class>): removed, ..."
    removed = [line.split()[:3] for line in (tmp_path / "kept" / DEPURATION_REPORT).read_text().splitlines()]
    injected = sum(int(row) >= n_real[int(frame)] for frame, _, row in removed)
    real, ap_before, ap_after = len(removed) - injected, ap3d("results"), ap3d("kept")
    ok = all_written and injected == n_injected and ap_after >= ap_before and real <= 0.06 * sum(n_real)
    _report(
        11, ok,
        f"60 frames of 24-32 cars plus 2 floating cars each: injected rows removed {injected}/{n_injected}, "
        f"real cars removed {real}/{sum(n_real)} ({real / sum(n_real):.1%}, <=6%), "
        f"AP3D@0.5 {ap_before:.4f} -> {ap_after:.4f} (must not fall)",
    )
