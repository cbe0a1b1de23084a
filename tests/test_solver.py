import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box3d.camera import (
    BehindCameraError,
    Box2D,
    CameraIntrinsics,
    Dimensions,
    project_point,
    vertex_offsets,
    yaw_rotation,
)
from box3d.solver import (
    STATUSES,
    DecodedRows,
    SolverConfig,
    _prepared,
    _residuals,
    decode_rows,
    gauss_newton_refine,
    lift_batch,
)
from box3d.synthetic import SyntheticSceneSpec, generate_scene
from box3d.viewpoints import selected_vertex_indices

K = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
CAR = Dimensions(1.52, 1.64, 3.86)
IMAGE = (1242.0, 375.0)
CLOSED_FORM = SolverConfig(refine=False)


def _row(box: Box2D, dims: Dimensions, yaw, viewpoint, cbf, k: CameraIntrinsics = K) -> DecodedRows:
    """A one-row table; alpha and score are not used by the lift."""
    return DecodedRows([
        box.u_min, box.v_min, box.u_max, box.v_max, dims.h, dims.w, dims.l, yaw, 0.0,
        viewpoint, *cbf, k.fu, k.fv, k.cu, k.cv, 1.0,
    ])


def _scene_rows(seeds, **spec_kwargs):
    """Exact one-object synthetic scenes as ground-truth locations (N, 3) and
    one row each, built from the true dimensions, yaw and bottom-face-center
    projection."""
    truth, parts = [], []
    for seed in seeds:
        gt, dets, props = generate_scene(
            SyntheticSceneSpec(n_objects_min=1, n_objects_max=1, seed=seed, **spec_kwargs)
        )
        obj = gt.objects
        location = obj.location[0]
        cbf = tuple(project_point(gt.camera, location))
        truth.append(location)
        parts.append(_row(Box2D(*dets.box[0]), Dimensions(*obj.dims[0]), obj.yaw[0], props.viewpoint[0], cbf,
                          gt.camera))
    return np.array(truth), DecodedRows.concatenate(parts)


def _scene_input(seed, **spec_kwargs):
    """One exact synthetic object as (ground-truth location, one-row table)."""
    truth, rows = _scene_rows([seed], **spec_kwargs)
    return truth[0], rows


def _fit_residuals(t, row: DecodedRows):
    """The package's tight-fit residuals [u_left, u_right, v_top, v_bottom]
    of a one-row table at candidate bottom-face center t, and whether a
    selected corner is at or behind the camera there."""
    rotated, targets = _prepared(row)
    with np.errstate(divide="ignore", invalid="ignore"):
        r, behind = _residuals(np.asarray(t, dtype=float).reshape(1, 3), rotated, targets, row.camera)
    return r[0], bool(behind[0])


def _camera(row: DecodedRows, i=0) -> CameraIntrinsics:
    return CameraIntrinsics(*row.camera[i])


# ---------------------------------------------------------------------------
# closed-form initialization


def test_initial_location_similar_triangle():
    k = CameraIntrinsics(700.0, 700.0, 600.0, 180.0)
    # Z = fv*h/(vc - v_min) = 700*1.5/70 = 15; bottom center at the principal
    # point back-projects to the optical axis
    dims = Dimensions(1.5, 1.64, 3.86)
    on_axis = _row(Box2D(550.0, 110.0, 650.0, 200.0), dims, 0.0, 0, (600.0, 180.0), k)
    assert np.allclose(lift_batch(on_axis, IMAGE, CLOSED_FORM).location[0], [0.0, 0.0, 15.0])
    # off the principal point, the lateral parts follow the back-projection
    off_axis = _row(Box2D(550.0, 180.0, 650.0, 260.0), dims, 0.0, 0, (600.0, 250.0), k)
    t = lift_batch(off_axis, IMAGE, CLOSED_FORM).location[0]
    assert np.allclose(t, [0.0, (250.0 - 180.0) * 15.0 / 700.0, 15.0])


def test_initial_location_unit_triangle_identity():
    k = CameraIntrinsics(500.0, 700.0, 600.0, 180.0)
    row = _row(Box2D(550.0, 180.0, 650.0, 900.0), Dimensions(1.0, 1.64, 3.86), 0.0, 0, (600.0, 180.0 + 700.0), k)
    assert lift_batch(row, (2000.0, 2000.0), CLOSED_FORM).location[0, 2] == pytest.approx(1.0)


def test_initial_location_degenerate_height():
    truth, row = _scene_input(seed=5)
    rows = row[[0, 0]]
    rows.cbf[0, 1] = rows.box[0, 1]          # vc == v_min
    rows.cbf[1, 1] = rows.box[1, 1] - 1.0    # vc < v_min
    for config in (SolverConfig(), CLOSED_FORM):
        result = lift_batch(rows, IMAGE, config)
        assert list(result.status) == ["degenerate_input"] * 2
        assert np.isnan(result.location).all()


def test_initial_location_round_trips_exact_scene():
    truth, row = _scene_input(seed=42)
    t = lift_batch(row, IMAGE, CLOSED_FORM).location[0]
    # approximation-limited, not exact: the top-face center projection is
    # approximated by the box top edge
    assert np.linalg.norm(t - truth) < 0.12 * truth[2]


# ---------------------------------------------------------------------------
# tight-fit residuals


def test_residuals_vanish_at_ground_truth():
    for seed in range(20):
        truth, row = _scene_input(seed=seed)
        r, behind = _fit_residuals(truth, row)
        assert not behind
        assert np.max(np.abs(r)) < 1e-9


def test_residual_sign_pattern_shrinks_when_pushed_away():
    # pushing the object away scales the image about the principal point;
    # with the principal point inside the projected box (dead ahead, camera
    # below the box top) every edge moves inward: signs (+, -, +, -)
    truth, row = _scene_input(
        seed=7, lateral_min=-1.0, lateral_max=1.0, depth_min=35.0, depth_max=55.0,
        camera_height=1.0,
    )
    r, _ = _fit_residuals(truth + np.array([0.0, 0.0, 0.1]), row)
    assert r[0] > 0 and r[2] > 0
    assert r[1] < 0 and r[3] < 0


def test_residuals_move_toward_principal_point_when_pushed_away():
    for seed in range(10):
        truth, row = _scene_input(seed=seed)
        r, _ = _fit_residuals(truth + np.array([0.0, 0.0, 0.1]), row)
        k = _camera(row)
        u_min, v_min, u_max, v_max = row.box[0]
        for residual, edge, center in (
            (r[0], u_min, k.cu), (r[1], u_max, k.cu),
            (r[2], v_min, k.cv), (r[3], v_max, k.cv),
        ):
            assert residual * (center - edge) > 0


def test_residuals_error_behind_camera():
    truth, row = _scene_input(seed=3)
    _, behind = _fit_residuals(np.array([0.0, 1.65, 0.1]), row)
    assert behind


def _analytic_jacobian(t, row):
    """Independent oracle: hand-derived projective derivatives d r / d t."""
    offsets = vertex_offsets(Dimensions(*row.dims[0]))[list(selected_vertex_indices(int(row.viewpoint[0])))]
    rotated = offsets @ yaw_rotation(float(row.yaw[0])).T
    k = _camera(row)
    J = np.zeros((4, 3))
    for i in range(4):
        x, y, z = rotated[i] + t
        if i < 2:  # u rows: d(cu + fu*x/z)/dt
            J[i] = [k.fu / z, 0.0, -k.fu * x / z**2]
        else:  # v rows
            J[i] = [0.0, k.fv / z, -k.fv * y / z**2]
    return J


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(5)
    checked = 0
    seed = 0
    while checked < 100:
        truth, row = _scene_input(seed=seed)
        seed += 1
        t = truth + rng.uniform(-0.5, 0.5, 3)
        h = 1e-5
        J_fd = np.empty((4, 3))
        behind = False
        for j in range(3):
            dt = np.zeros(3)
            dt[j] = h
            r_plus, behind_plus = _fit_residuals(t + dt, row)
            r_minus, behind_minus = _fit_residuals(t - dt, row)
            behind = behind or behind_plus or behind_minus
            J_fd[:, j] = (r_plus - r_minus) / (2 * h)
        if behind:
            continue
        J_an = _analytic_jacobian(t, row)
        assert np.allclose(J_fd, J_an, rtol=1e-4, atol=1e-7)
        checked += 1


# ---------------------------------------------------------------------------
# Gauss-Newton refinement


def test_refine_fixed_point_at_ground_truth():
    truth, row = _scene_input(seed=1)
    result = gauss_newton_refine(truth[None], row)
    assert result.converged[0] and result.status[0] == "ok"
    assert result.iterations[0] <= 1
    assert result.residual[0] < 1e-6
    assert np.linalg.norm(result.location[0] - truth) < 1e-9


def test_refine_recovers_from_offset_start():
    truth, rows = _scene_rows(range(50))
    result = gauss_newton_refine(truth + np.array([0.5, 0.2, 2.0]), rows)
    assert result.converged.all() and result.used_refinement.all()
    assert (np.linalg.norm(result.location - truth, axis=1) < 1e-3).all()


def test_refine_failure_far_behind_camera():
    truth, row = _scene_input(seed=2)
    t0 = np.array([[0.0, 1.65, -30.0]])
    result = gauss_newton_refine(t0, row)
    assert result.status[0] == "refine_failed"
    assert not result.converged[0]
    assert result.used_refinement[0]
    assert np.array_equal(result.location, t0)


# ---------------------------------------------------------------------------
# truncation gate


def test_is_truncated_examples():
    boxes = [  # (box, truncated): closed threshold on every border
        (Box2D(5, 100, 300, 200), True),
        (Box2D(100, 100, 300, 200), False),
        (Box2D(100, 100, 1242 - 10, 200), True),
        (Box2D(10, 100, 300, 200), True),
        (Box2D(100, 10, 300, 200), True),
        (Box2D(100, 100, 300, 375 - 10), True),
        (Box2D(10.001, 100, 300, 200), False),
    ]
    rows = DecodedRows.concatenate([_row(box, CAR, 0.0, 0, (200.0, 199.0)) for box, _ in boxes])
    result = lift_batch(rows, IMAGE)
    gated = [truncated for _, truncated in boxes]
    assert list(result.status == "truncated_init_only") == gated
    assert list(result.used_refinement) == [not g for g in gated]


def test_gate_returns_closed_form_bit_identically():
    truth, row = _scene_input(seed=9)
    row.box[0, 0] = 0.0
    result = lift_batch(row, IMAGE)
    assert result.status[0] == "truncated_init_only"
    assert not result.used_refinement[0]
    assert result.iterations[0] == 0
    assert np.array_equal(result.location, lift_batch(row, IMAGE, CLOSED_FORM).location)


def test_cascade_recovers_exact_scene():
    truth, rows = _scene_rows(range(100, 150))
    result = lift_batch(rows, IMAGE)
    assert result.used_refinement.all()
    assert (np.linalg.norm(result.location - truth, axis=1) < 1e-3).all()
    assert (result.residual < 1e-6).all()


def test_cascade_beats_initialization_under_cbf_noise():
    rng = np.random.default_rng(12)
    truth, rows = _scene_rows(range(100))
    rows.cbf[:] += 5.0 * rng.standard_normal((len(rows), 2))
    init_errs = np.linalg.norm(lift_batch(rows, IMAGE, CLOSED_FORM).location - truth, axis=1)
    ref_errs = np.linalg.norm(lift_batch(rows, IMAGE).location - truth, axis=1)
    assert np.median(ref_errs) < np.median(init_errs)


def test_refinement_failure_falls_back_to_initialization():
    # a wildly inconsistent 2D box makes the equations unsatisfiable but the
    # solve must still return a finite location
    truth, row = _scene_input(seed=4)
    row.box[0] = [500.0, 100.0, 560.0, 130.0]
    result = lift_batch(row, IMAGE)
    assert result.lifted[0]
    assert np.all(np.isfinite(result.location))


def test_solver_config_overrides():
    truth, row = _scene_input(seed=6)
    result = gauss_newton_refine(truth[None] + 0.5, row, SolverConfig(max_iterations=1))
    assert result.iterations[0] <= 1


# ---------------------------------------------------------------------------
# the batched lift against the per-object finite-difference solver it replaced


def _fd_prepared(rows, i):
    offsets = vertex_offsets(Dimensions(*rows.dims[i]))[list(selected_vertex_indices(int(rows.viewpoint[i])))]
    rotated = offsets @ yaw_rotation(float(rows.yaw[i])).T
    u_min, v_min, u_max, v_max = rows.box[i]
    return rotated, np.array([u_min, u_max, v_min, v_max])


def _fd_residuals(t, rotated, targets, k):
    verts = rotated + t
    z = verts[:, 2]
    if np.any(z <= 0.0):
        raise BehindCameraError("selected corner behind camera during solve")
    proj = np.empty(4)
    proj[0] = k.cu + k.fu * verts[0, 0] / z[0]
    proj[1] = k.cu + k.fu * verts[1, 0] / z[1]
    proj[2] = k.cv + k.fv * verts[2, 1] / z[2]
    proj[3] = k.cv + k.fv * verts[3, 1] / z[3]
    return proj - targets


def _fd_jacobian(t, rotated, targets, k, step):
    J = np.empty((4, 3))
    for j in range(3):
        dt = np.zeros(3)
        dt[j] = step
        J[:, j] = (
            _fd_residuals(t + dt, rotated, targets, k)
            - _fd_residuals(t - dt, rotated, targets, k)
        ) / (2.0 * step)
    return J


def _fd_gauss_newton(t0, rows, i, config=SolverConfig(), fd_step=1e-5):
    """Reference: the per-object Gauss-Newton with a central-difference
    Jacobian that lift_batch replaced, on row i.  Returns (location,
    iterations, final residual norm, converged)."""
    t0 = np.asarray(t0, dtype=float).reshape(3)
    rotated, targets = _fd_prepared(rows, i)
    k = _camera(rows, i)
    try:
        r = _fd_residuals(t0, rotated, targets, k)
    except BehindCameraError:
        return t0.copy(), 0, math.inf, False
    t = t0.copy()
    rnorm = float(np.linalg.norm(r))
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        try:
            J = _fd_jacobian(t, rotated, targets, k, fd_step)
        except BehindCameraError:
            return t0.copy(), iterations, rnorm, False
        H = J.T @ J
        g = J.T @ r
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            try:
                step = np.linalg.solve(H + config.damping * np.eye(3), g)
            except np.linalg.LinAlgError:
                return t0.copy(), iterations, rnorm, False
        alpha = 1.0
        accepted = False
        for _ in range(config.max_halvings + 1):
            t_new = t - alpha * step
            try:
                r_new = _fd_residuals(t_new, rotated, targets, k)
            except BehindCameraError:
                alpha *= 0.5
                continue
            rnorm_new = float(np.linalg.norm(r_new))
            if rnorm_new < rnorm:
                accepted = True
                break
            alpha *= 0.5
        iterations += 1
        if not accepted:
            converged = True
            break
        dt_norm = float(np.linalg.norm(alpha * step))
        change = rnorm - rnorm_new
        t, r, rnorm = t_new, r_new, rnorm_new
        if dt_norm < config.step_tol or change < config.residual_change_tol:
            converged = True
            break
    return t, iterations, rnorm, converged


def _decoded_run(seeds, **spec_kwargs):
    """Generated scenes decoded as `box3d solve` decodes them: the rows of
    the whole run."""
    parts = []
    for seed in seeds:
        gt, dets, props = generate_scene(SyntheticSceneSpec(seed=seed, **spec_kwargs))
        parts.append(decode_rows(dets, props, astuple(gt.camera)))
    return DecodedRows.concatenate(parts)


@pytest.mark.parametrize("seeds, spec", [
    (range(1000), {"n_objects_min": 1, "n_objects_max": 1}),  # the acceptance scenes
    (range(300), {"box_noise_sigma": 1.0}),
], ids=["exact", "box_noise_1px"])
def test_lift_batch_agrees_with_finite_difference_reference(seeds, spec):
    rows = _decoded_run(seeds, **spec)
    result = lift_batch(rows, IMAGE)
    t0 = lift_batch(rows, IMAGE, CLOSED_FORM).location
    assert set(result.status) == {"ok"}
    for i in range(len(rows)):
        t, iterations, rnorm, converged = _fd_gauss_newton(t0[i], rows, i)
        assert np.linalg.norm(result.location[i] - t) <= 1e-6
        assert result.iterations[i] == iterations
        assert result.converged[i] == converged
        assert result.residual[i] == pytest.approx(rnorm, rel=1e-6, abs=1e-6)


def _mixed_rows():
    """Ordinary noisy rows plus one row of each special case."""
    rows = _decoded_run(range(12), box_noise_sigma=1.0)
    n = len(rows)
    rows = rows[np.r_[np.arange(n), np.arange(9)]]  # 9 rows to overwrite
    rows.box[n, 0] = 5.0                              # truncated
    rows.cbf[n + 1, 1] = rows.box[n + 1, 1] + 1500.0  # corners behind the camera at t0
    # J^T J singular: with fu tiny and the bottom center on the principal
    # column, the closed form has x = 0 and the whole tx column underflows to 0
    rows.camera[n + 2, 0] = 1e-170
    rows.cbf[n + 2, 0] = rows.camera[n + 2, 2]
    rows.box[n + 3] = [300.0, 100.0, 300.0, 150.0]    # zero width
    rows.box[n + 4] = [300.0, 150.0, 350.0, 100.0]    # inverted
    rows.cbf[n + 5, 1] = rows.box[n + 5, 1]           # bottom center at the box top
    rows.cbf[n + 6, 0] = np.nan                       # non-finite
    rows.dims[n + 7, 0] = -1.0                        # non-positive height
    rows.camera[n + 8, 1] = 1e308                     # finite input, depth overflows
    return rows


def test_mixed_batch_statuses():
    rows = _mixed_rows()
    n = len(rows) - 9
    result = lift_batch(rows, IMAGE)
    assert list(result.status[n:]) == [
        "truncated_init_only", "refine_failed", "ok", "degenerate_input", "degenerate_input",
        "degenerate_input", "non_finite", "degenerate_input", "non_finite",
    ]
    assert set(result.status[:n]) == {"ok"}
    assert np.isfinite(result.location[result.lifted]).all()
    assert np.isnan(result.location[~result.lifted]).all()
    # without damping the singular row fails back to the closed form
    failed = lift_batch(rows, IMAGE, SolverConfig(damping=0.0))
    assert failed.status[n + 2] == "refine_failed" and not failed.converged[n + 2]
    closed = lift_batch(rows, IMAGE, SolverConfig(refine=False))
    assert np.array_equal(failed.location[n + 2], closed.location[n + 2])
    assert np.array_equal(result.location[n + 1], closed.location[n + 1])


@pytest.mark.parametrize("config", [
    SolverConfig(), SolverConfig(max_iterations=1), SolverConfig(damping=0.0), SolverConfig(refine=False),
], ids=["default", "max_iterations_1", "no_damping", "no_refine"])
def test_lift_batch_rows_are_independent_of_the_batch(config):
    rows = _mixed_rows()
    order = np.random.default_rng(3).permutation(len(rows))
    shuffled = rows[order]
    together = lift_batch(shuffled, IMAGE, config)
    for i in range(len(shuffled)):
        alone = lift_batch(shuffled[[i]], IMAGE, config)
        assert together.status[i] == alone.status[0]
        assert np.array_equal(together.location[i], alone.location[0], equal_nan=True)
        assert np.array_equal(together.residual[i], alone.residual[0], equal_nan=True)
        assert together.iterations[i] == alone.iterations[0]
        assert together.converged[i] == alone.converged[0]
        assert together.used_refinement[i] == alone.used_refinement[0]


def test_lift_batch_blocks_do_not_change_results(monkeypatch):
    import box3d.solver as solver

    rows = _mixed_rows()
    whole = lift_batch(rows, IMAGE)
    monkeypatch.setattr(solver, "LIFT_BLOCK_ROWS", 3)
    blocked = lift_batch(rows, IMAGE)
    for name in ("location", "status", "iterations", "residual", "converged", "used_refinement"):
        assert np.array_equal(getattr(whole, name), getattr(blocked, name), equal_nan=name in ("location", "residual"))


def test_no_refine_returns_the_closed_form():
    rows = _mixed_rows()
    result = lift_batch(rows, IMAGE, SolverConfig(refine=False))
    lifted = result.lifted
    assert set(result.status[lifted]) == {"ok"}
    assert not result.used_refinement.any() and (result.iterations == 0).all()
    for i in np.flatnonzero(lifted):
        # Z = fv*h/(vc - v_min), then the bottom-center pixel back-projected
        fu, fv, cu, cv = rows.camera[i]
        (u, v), v_min, h = rows.cbf[i], rows.box[i, 1], rows.dims[i, 0]
        z = fv * h / (v - v_min)
        assert np.array_equal(result.location[i], [(u - cu) * z / fu, (v - cv) * z / fv, z])


finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(-2000.0, 2000.0)


@st.composite
def _finite_rows(draw):
    n = draw(st.integers(1, 6))
    values = st.one_of(moderate, finite)

    def column(*shape):
        return np.array(draw(st.lists(values, min_size=n * int(np.prod(shape)), max_size=n * int(np.prod(shape))))).reshape(n, *shape)

    viewpoint = np.array(draw(st.lists(st.integers(-1, 16), min_size=n, max_size=n)), dtype=float)
    # columns: box, dims, yaw, alpha, viewpoint, cbf, camera, score
    return DecodedRows(np.column_stack([column(4), column(3), column(), column(), viewpoint, column(2), column(4), column()]))


@settings(max_examples=200, deadline=None)
@given(_finite_rows())
def test_lift_batch_never_raises_on_finite_input(rows):
    result = lift_batch(rows, IMAGE)
    assert len(result) == len(rows)
    assert set(result.status) <= set(STATUSES)
    assert np.isfinite(result.location[result.lifted]).all()
    assert np.isnan(result.location[~result.lifted]).all()
