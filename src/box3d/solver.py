"""Cascaded 3D location estimation.

Stage one recovers a closed-form location from the projected bottom-face
center and the similar-triangle relation between the box height and its
projected height, (vc - v_min)/h = f/Z.  Stage two, skipped for truncated
detections, refines that location with Gauss-Newton on the four tight-fit
constraints tying the selected 3D corners to the 2D box edges.

``lift_batch`` runs both stages on the decoded rows of a whole run at once,
``LIFT_BLOCK_ROWS`` rows per vectorised pass, and gives every row a status
instead of raising.  ``gauss_newton_refine`` runs stage two alone, from
given starting locations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .camera import Dimensions, vertex_offsets
from .kitti_io import DetectionTable, PropertyTable, Table, _column_group, check_fields
from .properties import (
    CAR_PRIOR,
    alpha_from_local,
    decode_cbf,
    decode_local_angle,
    dimension_values,
    global_from_local,
)
from .viewpoints import N_VIEWPOINTS, selected_vertex_indices


@dataclass(frozen=True)
class SolverConfig:
    """Refinement switch and tolerances; all overridable from key-value config files."""

    refine: bool = True             # False: closed form only, for every row
    max_iterations: int = 100
    step_tol: float = 1e-6          # meters, on the accepted step norm
    residual_change_tol: float = 1e-9  # pixels, on the residual-norm change
    damping: float = 1e-9           # Tikhonov lambda added on singular normal eqs
    max_halvings: int = 10
    truncation_margin_px: float = 10.0

    def __post_init__(self):
        # a NaN margin would switch the truncation gate off
        check_fields(self, ("max_iterations", "step_tol", "residual_change_tol", "damping", "max_halvings",
                            "truncation_margin_px"))


DEFAULT_SOLVER_CONFIG = SolverConfig()

# Rows per vectorised pass of lift_batch: bounds the pass's temporaries
# (a few kB per row) whatever the size of the run.
LIFT_BLOCK_ROWS = 1024

# Per-row outcome of lift_batch.  The first three carry a finite location:
# refined, closed form behind the truncation gate, closed form after a failed
# refinement.  The last two carry none, and their rows are not lifted.
STATUSES = ("ok", "truncated_init_only", "refine_failed", "degenerate_input", "non_finite")
_OK, _TRUNCATED, _REFINE_FAILED, _DEGENERATE, _NON_FINITE = range(len(STATUSES))


class DecodedRows(Table):
    """Decoded detections, the input of lift_batch: one row each, held as a
    single (N, 17) float array whose column groups the properties below name
    (views: writing to one writes to the rows).

    ``alpha`` and ``score`` are not used by the lift; they ride along for
    writing result rows.  Indexing with a slice or an index array selects rows.
    """

    __slots__ = ()
    WIDTH = 17

    box = _column_group(slice(0, 4), "(N, 4) u_min, v_min, u_max, v_max")
    dims = _column_group(slice(4, 7), "(N, 3) h, w, l meters")
    yaw = _column_group(7, "(N,) global yaw")
    alpha = _column_group(8, "(N,) KITTI observation angle")
    viewpoint = _column_group(9, "(N,) viewpoint class id")
    cbf = _column_group(slice(10, 12), "(N, 2) projected bottom-face center")
    camera = _column_group(slice(12, 16), "(N, 4) fu, fv, cu, cv")
    score = _column_group(16, "(N,) detection score")


def decode_rows(detections: DetectionTable, properties: PropertyTable, cameras) -> DecodedRows:
    """Decode car detections and their index-aligned regressed properties,
    seen by the cameras of the rows: their fu, fv, cu, cv, (N, 4) or one
    (4,) for every row (``dataclasses.astuple`` of a CameraIntrinsics).

    Nothing is validated: a malformed row decodes to whatever its numbers
    give, and lift_batch reports it.
    """
    if len(detections) != len(properties):
        raise ValueError(f"{len(detections)} detections but {len(properties)} property rows")
    rows = DecodedRows(np.empty((len(detections), DecodedRows.WIDTH)))
    with np.errstate(all="ignore"):
        rows.camera[:] = cameras
        fu, cu = rows.camera[:, 0], rows.camera[:, 2]
        cbf = decode_cbf(properties.cbf_offset, detections.box)
        theta_l = decode_local_angle(properties.bins)
        # the viewing ray's ground-plane angle atan2(z, x) through the bottom-face
        # center's column, in (0, pi); math's atan2, row by row with each row's camera
        theta_ray = np.array([math.atan2(f, du) for f, du in zip(fu.tolist(), (cbf[:, 0] - cu).tolist())])
        rows.box[:] = detections.box
        rows.dims[:] = dimension_values(properties.dim_residual, CAR_PRIOR)
        rows.yaw[:] = global_from_local(theta_l, theta_ray)
        rows.alpha[:] = alpha_from_local(theta_l)
        rows.viewpoint[:] = properties.viewpoint
        rows.cbf[:] = cbf
        rows.score[:] = detections.score
    return rows


@dataclass
class LiftResult:
    """Per-row outcome of lift_batch, index-aligned to its rows."""

    location: np.ndarray         # (N, 3) bottom-face centers; NaN where not lifted
    status: np.ndarray           # (N,) entries of STATUSES
    used_refinement: np.ndarray  # (N,) whether Gauss-Newton ran
    iterations: np.ndarray       # (N,) Gauss-Newton iterations
    residual: np.ndarray         # (N,) final residual norm, px; NaN where not refined
    converged: np.ndarray        # (N,)

    def __len__(self):
        return len(self.status)

    @property
    def lifted(self) -> np.ndarray:
        """Rows that carry a finite location."""
        return np.isin(self.status, STATUSES[:_DEGENERATE])


# ---------------------------------------------------------------------------
# closed form, truncation gate and tight-fit residuals, on arrays of rows


def _closed_form(cbf, v_min, h, cam):
    """Z = fv*h/(vc - v_min); lateral/vertical components by back-projecting
    the bottom-face-center pixel at that depth.  The vertical focal length
    carries the triangle since the projected height is vertical."""
    z = cam[:, 1] * h / (cbf[:, 1] - v_min)
    return np.stack(
        [(cbf[:, 0] - cam[:, 2]) * z / cam[:, 0], (cbf[:, 1] - cam[:, 3]) * z / cam[:, 1], z], axis=1
    )


def _truncated(box, image_size, margin):
    width, height = image_size
    return (
        (box[:, 0] <= margin)
        | (box[:, 1] <= margin)
        | (box[:, 2] >= width - margin)
        | (box[:, 3] >= height - margin)
    )


# Object-frame offset of each viewpoint class's selected corners as factors of
# (l, h, w): the corners of the unit box, (16, 4, 3).
_SELECTED = np.array([selected_vertex_indices(v) for v in range(N_VIEWPOINTS)])
_UNIT_OFFSETS = vertex_offsets(Dimensions(1.0, 1.0, 1.0))[_SELECTED]
_VIEWPOINT_IDS = np.arange(N_VIEWPOINTS)


def _prepared(rows: DecodedRows):
    """Camera-frame offsets of each row's four selected corners, (n, 4, 3),
    and the 2D edges they must touch, [u_min, u_max, v_min, v_max] (n, 4)."""
    dims, vp = rows.dims, rows.viewpoint.astype(np.intp)
    ox, oy, oz = np.moveaxis(_UNIT_OFFSETS[vp] * dims[:, None, [2, 0, 1]], 2, 0)
    yaw = rows.yaw[:, None]
    c, s = np.cos(yaw), np.sin(yaw)  # rotation about the (downward) y axis
    rotated = np.stack([ox * c + oz * s, oy, oz * c - ox * s], axis=2)
    return rotated, rows.box[:, [0, 2, 1, 3]]


def _residuals(t, rotated, targets, cam):
    """Tight-fit residuals [u_left, u_right, v_top, v_bottom] in pixels of n
    rows at candidate bottom-face centers t (n, 3), and which rows have a
    selected corner at or behind the camera."""
    verts = rotated + t[:, None, :]
    z = verts[:, :, 2]
    proj = np.empty_like(targets)
    proj[:, :2] = cam[:, 2:3] + cam[:, 0:1] * verts[:, :2, 0] / z[:, :2]
    proj[:, 2:] = cam[:, 3:4] + cam[:, 1:2] * verts[:, 2:, 1] / z[:, 2:]
    return proj - targets, (z <= 0.0).any(axis=1)


def _norm(a):
    return np.sqrt((a * a).sum(axis=1))


def _normal_equations(t, r, rotated, cam):
    """J^T J (n, 3, 3) and J^T r (n, 3) from the analytic Jacobian of the
    residuals: du/dt = fu*(1/z, 0, -x/z^2) on the two u rows and
    dv/dt = fv*(0, 1/z, -y/z^2) on the two v rows."""
    verts = rotated + t[:, None, :]
    z = verts[:, :, 2]
    a = cam[:, 0:1] / z[:, :2]            # du/dtx
    b = -a * verts[:, :2, 0] / z[:, :2]   # du/dtz
    c = cam[:, 1:2] / z[:, 2:]            # dv/dty
    d = -c * verts[:, 2:, 1] / z[:, 2:]   # dv/dtz
    ab, cd = (a * b).sum(axis=1), (c * d).sum(axis=1)
    H = np.zeros((len(t), 3, 3))
    H[:, 0, 0] = (a * a).sum(axis=1)
    H[:, 1, 1] = (c * c).sum(axis=1)
    H[:, 2, 2] = (b * b).sum(axis=1) + (d * d).sum(axis=1)
    H[:, 0, 2] = H[:, 2, 0] = ab
    H[:, 1, 2] = H[:, 2, 1] = cd
    ru, rv = r[:, :2], r[:, 2:]
    g = np.stack([(a * ru).sum(axis=1), (c * rv).sum(axis=1), (b * ru).sum(axis=1) + (d * rv).sum(axis=1)], axis=1)
    return H, g


def _normal_step(H, g, damping):
    """Solve H step = g row by row.  A singular row is retried once with
    damping*I, and flagged when that is singular too."""
    singular = np.zeros(len(g), dtype=bool)
    try:
        return np.linalg.solve(H, g[..., None])[..., 0], singular
    except np.linalg.LinAlgError:
        pass  # some row is singular: solve each on its own
    step = np.zeros_like(g)
    for i in range(len(g)):
        try:
            step[i] = np.linalg.solve(H[i], g[i])
        except np.linalg.LinAlgError:
            try:
                step[i] = np.linalg.solve(H[i] + damping * np.eye(3), g[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    return step, singular


def _gauss_newton(t0, rotated, targets, cam, config: SolverConfig):
    """Gauss-Newton on the tight-fit equations of n rows at once.

    Each row takes plain Gauss-Newton steps, halved up to max_halvings times
    until the residual norm decreases.  It stops converged when no halving
    decreases it (already at a local minimum) or when the accepted step or
    the residual decrease falls below its tolerance.  A selected corner
    behind the camera at t0, or normal equations still singular after
    damping, stop it failed at t0.

    Returns (location, iterations, final residual norm, converged, failed).
    """
    n = len(t0)
    location = t0.copy()
    iterations = np.zeros(n, dtype=np.int64)
    final = np.full(n, math.inf)
    converged = np.zeros(n, dtype=bool)
    r, failed = _residuals(t0, rotated, targets, cam)
    act = np.flatnonzero(~failed)  # rows still iterating
    t, r, rotated, targets, cam = t0[act], r[act], rotated[act], targets[act], cam[act]
    rnorm = _norm(r)
    for it in range(config.max_iterations):
        if not act.size:
            break
        step, singular = _normal_step(*_normal_equations(t, r, rotated, cam), config.damping)

        alpha = np.ones(len(act))
        accepted = np.zeros(len(act), dtype=bool)
        t_new, r_new, rnorm_new = t.copy(), r.copy(), rnorm.copy()
        searching = ~singular
        for _ in range(config.max_halvings + 1):
            s = np.flatnonzero(searching)
            if not s.size:
                break
            t_try = t[s] - alpha[s, None] * step[s]
            r_try, behind = _residuals(t_try, rotated[s], targets[s], cam[s])
            rnorm_try = _norm(r_try)
            better = ~behind & (rnorm_try < rnorm[s])
            won = s[better]
            t_new[won], r_new[won], rnorm_new[won] = t_try[better], r_try[better], rnorm_try[better]
            accepted[won] = True
            searching[won] = False
            alpha[s[~better]] *= 0.5

        small = (_norm(alpha[:, None] * step) < config.step_tol) | (
            rnorm - rnorm_new < config.residual_change_tol
        )
        t, r, rnorm = t_new, r_new, rnorm_new
        # not accepted: a stalled line search (a local minimum) or singular
        done = ~accepted | small
        stop = act[done]
        ok = ~singular[done]
        iterations[stop] = it + ok
        final[stop] = rnorm[done]
        converged[stop] = ok
        failed[stop] = ~ok
        location[stop[ok]] = t[done][ok]
        keep = ~done
        act, t, r, rnorm = act[keep], t[keep], r[keep], rnorm[keep]
        rotated, targets, cam = rotated[keep], targets[keep], cam[keep]
    location[act] = t
    iterations[act] = config.max_iterations
    final[act] = rnorm
    return location, iterations, final, converged, failed


# ---------------------------------------------------------------------------
# the batched lift


def lift_batch(rows: DecodedRows, image_size, config: SolverConfig = DEFAULT_SOLVER_CONFIG) -> LiftResult:
    """Lift every row: closed form, then, unless config.refine is off,
    Gauss-Newton on the rows the truncation gate lets through.

    Rows are processed LIFT_BLOCK_ROWS at a time.  No row raises or affects
    another: each gets a status from STATUSES.
      ok                   refined (converged says whether it converged), or
                           the closed form when refinement is off
      truncated_init_only  the closed form; the 2D box touches the image margin
      refine_failed        the closed form; Gauss-Newton started with a
                           corner behind the camera or met a singular system
      degenerate_input     no location: zero-width or inverted 2D box, bottom
                           center at or above the box top, non-positive
                           dimensions or focal length, unknown viewpoint class
      non_finite           no location: a non-finite input or result
    """
    n = len(rows)
    codes = np.full(n, _OK, dtype=np.int8)
    location = np.full((n, 3), np.nan)
    used = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=np.int64)
    residual = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        for start in range(0, n, LIFT_BLOCK_ROWS):
            block = rows[start:start + LIFT_BLOCK_ROWS]
            box, dims, cbf, cam, vp = block.box, block.dims, block.cbf, block.camera, block.viewpoint
            finite = np.isfinite(block.data).all(axis=1)
            well_formed = (
                (box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3]) & (cbf[:, 1] > box[:, 1])
                & (dims > 0).all(axis=1) & (cam[:, :2] > 0).all(axis=1) & np.isin(vp, _VIEWPOINT_IDS)
            )
            idx = np.arange(start, start + len(block))
            codes[idx[~well_formed]] = _DEGENERATE
            codes[idx[~finite]] = _NON_FINITE
            good = finite & well_formed
            lift = idx[good]
            t0 = _closed_form(cbf[good], box[good, 1], dims[good, 0], cam[good])
            location[lift] = t0
            converged[lift] = True
            if not config.refine:
                continue
            gated = _truncated(box[good], image_size, config.truncation_margin_px)
            codes[lift[gated]] = _TRUNCATED
            refine = lift[~gated]
            rotated, targets = _prepared(rows[refine])
            t, it, rnorm, conv, failed = _gauss_newton(t0[~gated], rotated, targets, rows.camera[refine], config)
            location[refine], iterations[refine], residual[refine], converged[refine] = t, it, rnorm, conv
            used[refine] = True
            codes[refine[failed]] = _REFINE_FAILED
        codes[(codes < _DEGENERATE) & ~np.isfinite(location).all(axis=1)] = _NON_FINITE
    location[codes >= _DEGENERATE] = np.nan
    return LiftResult(location, np.array(STATUSES)[codes], used, iterations, residual, converged)


# kept for bench/spans.py, which wraps it as its solver.refine layer
def gauss_newton_refine(t0, rows: DecodedRows, config: SolverConfig = DEFAULT_SOLVER_CONFIG) -> LiftResult:
    """Stage two alone: refine each row from its start in t0 (n, 3), with no
    closed form and no truncation gate, on rows lift_batch would lift.

    Every row has used_refinement set and status ok or refine_failed; a
    failed row keeps its start.
    """
    rotated, targets = _prepared(rows)
    t0 = np.asarray(t0, dtype=float).reshape(-1, 3)
    with np.errstate(all="ignore"):
        t, it, rnorm, conv, failed = _gauss_newton(t0, rotated, targets, rows.camera, config)
    status = np.array(STATUSES)[np.where(failed, _REFINE_FAILED, _OK)]
    return LiftResult(t, status, np.ones(len(t), dtype=bool), it, rnorm, conv)
