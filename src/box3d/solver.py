"""Cascaded 3D location estimation.

Stage one recovers a closed-form location from the projected bottom-face
center and the similar-triangle relation between the box height and its
projected height, (vc - v_min)/h = f/Z.  Stage two, skipped for truncated
detections, refines that location with Gauss-Newton on the four tight-fit
constraints tying the selected 3D corners to the 2D box edges.

``lift_batch`` runs both stages on the decoded rows of a whole run, with
Gauss-Newton on ``LIFT_BLOCK_ROWS`` refined rows at a time, and gives every
row a status instead of raising.  ``gauss_newton_refine`` runs stage two
alone, from given starting locations.

Gauss-Newton works on four columns per row, one per constraint, and solves
its 3x3 normal equations in closed form, with no LAPACK call.  Its line
search takes each step at the first of the scales 1, 1/2, ...,
2^-MAX_HALVINGS that decreases the residual norm, and tries the next k
scales of every row still searching in one pass, k being the rows still
iterating over the rows searching.  The scales are powers of two and each
trial is computed on its own, so the results do not depend on the grouping.
Its iteration cap, tolerances and damping are the module constants below,
not settings: the paper names none.
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
    """Refinement switch and truncation margin; both overridable from key-value config files."""

    refine: bool = True             # False: closed form only, for every row
    truncation_margin_px: float = 10.0

    def __post_init__(self):
        # a NaN margin would switch the truncation gate off
        check_fields(self, ("truncation_margin_px",))


DEFAULT_SOLVER_CONFIG = SolverConfig()

# Gauss-Newton's numerical constants
MAX_ITERATIONS = 100
STEP_TOL = 1e-6             # meters, on the accepted step norm
RESIDUAL_CHANGE_TOL = 1e-9  # pixels, on the residual-norm change
DAMPING = 1e-9              # added to the three diagonal entries of a row with a zero pivot
MAX_HALVINGS = 10           # the line search's last scale is 2^-MAX_HALVINGS

# Refined rows per Gauss-Newton block of lift_batch: bounds the block's
# temporaries (a few kB per row) whatever the size of the run.
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
        theta_ray = np.fromiter(map(math.atan2, fu.tolist(), (cbf[:, 0] - cu).tolist()), float, len(fu))
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
    iterations: np.ndarray       # (N,) Gauss-Newton iterations, a try whose line search stalled included
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

# the image axis of each constraint [u_left, u_right, v_top, v_bottom]: 0 for u, 1 for v
_AXIS = [0, 0, 1, 1]


def _prepared(rows: DecodedRows):
    """The four tight-fit constraints of each row as one (5, n, 4) array of
    columns [u_left, u_right, v_top, v_bottom]: its selected corner's
    camera-frame offset along the constraint's image axis (x for u, y for v)
    and in depth, the focal length and principal point of that axis, and the
    2D edge the corner must touch."""
    dims, vp = rows.dims, rows.viewpoint.astype(np.intp)
    ox, oy, oz = np.moveaxis(_UNIT_OFFSETS[vp] * dims[:, None, [2, 0, 1]], 2, 0)
    yaw = rows.yaw[:, None]
    c, s = np.cos(yaw), np.sin(yaw)  # rotation about the (downward) y axis
    across = np.concatenate([ox[:, :2] * c + oz[:, :2] * s, oy[:, 2:]], axis=1)
    cam = rows.camera
    return np.stack([across, oz * c - ox * s, cam[:, [0, 0, 1, 1]], cam[:, [2, 2, 3, 3]], rows.box[:, [0, 2, 1, 3]]])


def _residuals(t, cols):
    """Tight-fit residuals [u_left, u_right, v_top, v_bottom] in pixels at
    candidate bottom-face centers t (..., 3) of constraint columns cols
    (5, ..., 4) that broadcast with them, and where a selected corner is at
    or behind the camera."""
    across, depth, focal, center, targets = cols
    z = depth + t[..., 2:]
    return center + focal * (across + t[..., _AXIS]) / z - targets, (z <= 0.0).any(axis=-1)


def _norm(a):
    """Euclidean norm over the last axis of 3 or 4, adding the squares left to right as numpy's sum does."""
    sq = a * a
    total = sq[..., 0] + sq[..., 1] + sq[..., 2]
    return np.sqrt(total if a.shape[-1] == 3 else total + sq[..., 3])


def _pairs(a):
    """(n, 4) -> the (n,) sums over the two u and over the two v constraints."""
    return a[:, 0] + a[:, 1], a[:, 2] + a[:, 3]


def _normal_equations(t, r, cols):
    """J^T J as (n,) columns of its distinct entries (hxx, hyy, hzz, hxz, hyz),
    hxy being 0, and J^T r as (gx, gy, gz), from the analytic Jacobian of the
    residuals: du/dt = fu*(1/z, 0, -x/z^2) on the two u rows and
    dv/dt = fv*(0, 1/z, -y/z^2) on the two v rows."""
    across, depth, focal = cols[:3]
    z = depth + t[:, 2:]
    p = focal / z                               # along the constraint's axis
    q = -p * (across + t[:, _AXIS]) / z         # along z
    (hxx, hyy), (hxz, hyz), zz = _pairs(p * p), _pairs(p * q), _pairs(q * q)
    (gx, gy), gz = _pairs(p * r), _pairs(q * r)
    return (hxx, hyy, zz[0] + zz[1], hxz, hyz), (gx, gy, gz[0] + gz[1])


def _eliminate(hxx, hyy, hzz, hxz, hyz, gx, gy, gz):
    """Solve [[hxx, 0, hxz], [0, hyy, hyz], [hxz, hyz, hzz]] step = g: dz from its
    Schur complement s, then dx and dy.  Also flags a zero pivot hxx, hyy or s."""
    a, b = hxz / hxx, hyz / hyy
    s = hzz - a * hxz - b * hyz
    dz = (gz - a * gx - b * gy) / s
    return np.stack([(gx - hxz * dz) / hxx, (gy - hyz * dz) / hyy, dz], axis=1), (hxx == 0) | (hyy == 0) | (s == 0)


def _normal_step(H, g, damping):
    """Solve H step = g on the columns of _normal_equations in closed form.  A
    row with a zero pivot and finite entries is solved again with damping added
    to the diagonal, then flagged with a zero step if a pivot is still 0.  A
    non-finite entry gives no flag, as LU with row pivoting finds a nonzero
    pivot there, but a NaN step, which the line search rejects."""
    step, singular = _eliminate(*H, *g)
    if singular.any():
        singular &= np.isfinite(H).all(axis=0)
        i = np.flatnonzero(singular)
        hxx, hyy, hzz, hxz, hyz, gx, gy, gz = (c[i] for c in (*H, *g))
        step[i], singular[i] = _eliminate(hxx + damping, hyy + damping, hzz + damping, hxz, hyz, gx, gy, gz)
        step[singular] = 0.0
    return step, singular


def _gauss_newton(t0, cols):
    """Gauss-Newton on the tight-fit equations of n rows at once, from
    starts t0 (n, 3), on their constraint columns cols (see _prepared).

    Each row takes plain Gauss-Newton steps, each at the first of the scales
    1, 1/2, ..., 2^-MAX_HALVINGS that decreases the residual norm, for at
    most MAX_ITERATIONS steps.  It stops converged when no scale decreases
    it (already at a local minimum) or when the accepted step or the
    residual decrease falls below STEP_TOL or RESIDUAL_CHANGE_TOL.  A
    selected corner behind the camera at t0, or normal equations still
    singular after DAMPING, stop it failed at t0.

    Each row's iterate, residuals and residual norm live in n-row arrays that
    the line search writes in place.  Its passes group scales as the module
    docstring says, and hold no more trial rows than the rows still iterating.

    Returns (location, iterations, final residual norm, converged, failed).
    """
    t = t0.copy()
    r, failed = _residuals(t0, cols)
    rnorm = np.where(failed, math.inf, _norm(r))
    iterations = np.where(failed, 0, np.int64(MAX_ITERATIONS))  # rows left iterating hit the cap
    converged = np.zeros(len(t0), dtype=bool)
    act = np.flatnonzero(~failed)  # rows still iterating
    for it in range(MAX_ITERATIONS):
        if not act.size:
            break
        ta, ra, ca, na = t[act], r[act], cols[:, act], rnorm[act]
        step, singular = _normal_step(*_normal_equations(ta, ra, ca), DAMPING)

        scale = np.zeros(len(act))  # stays 0 on a singular row and on a stalled one (a local minimum)
        s = np.flatnonzero(~singular)  # rows still searching
        tried = 0  # scales tried so far by every searching row
        while s.size and tried <= MAX_HALVINGS:
            k = min(max(len(act) // len(s), 1), MAX_HALVINGS + 1 - tried)
            scales = np.ldexp(1.0, -np.arange(tried, tried + k))
            # a pass that holds every row needs no gathered copies
            ts, steps, cs, rs = (ta, step, ca, na) if len(s) == len(act) else (ta[s], step[s], ca[:, s], na[s])
            t_try = ts[:, None] - scales[:, None] * steps[:, None]  # (len(s), k, 3)
            r_try, behind = _residuals(t_try, cs[:, :, None])
            rnorm_try = _norm(r_try)
            better = ~behind & (rnorm_try < rs[:, None])
            first = better.argmax(axis=1)  # each row's first scale that decreases
            won = better.any(axis=1)
            pick = np.flatnonzero(won), first[won]
            w = act[s[won]]
            t[w], r[w], rnorm[w] = t_try[pick], r_try[pick], rnorm_try[pick]
            scale[s[won]] = scales[pick[1]]
            s = s[~won]
            tried += k

        small = (_norm(scale[:, None] * step) < STEP_TOL) | (na - rnorm[act] < RESIDUAL_CHANGE_TOL)
        done = (scale == 0) | small
        stop = act[done]
        ok = ~singular[done]
        iterations[stop] = it + ok
        converged[stop], failed[stop] = ok, ~ok
        act = act[~done]
    return np.where(failed[:, None], t0, t), iterations, rnorm, converged, failed


# ---------------------------------------------------------------------------
# the batched lift


def lift_batch(rows: DecodedRows, image_size, config: SolverConfig = DEFAULT_SOLVER_CONFIG) -> LiftResult:
    """Lift every row: closed form, then, unless config.refine is off,
    Gauss-Newton on the rows the truncation gate lets through.

    The checks and the closed form cover every row at once; Gauss-Newton
    runs on LIFT_BLOCK_ROWS refined rows at a time.  No row raises or
    affects another: each gets a status from STATUSES.
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
    box, dims, cbf, cam = rows.box, rows.dims, rows.cbf, rows.camera
    location = np.full((n, 3), np.nan)
    used = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=np.int64)
    residual = np.full(n, np.nan)
    with np.errstate(all="ignore"):
        finite = np.isfinite(rows.data).all(axis=1)
        well_formed = (
            (box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3]) & (cbf[:, 1] > box[:, 1])
            & (dims > 0).all(axis=1) & (cam[:, :2] > 0).all(axis=1) & np.isin(rows.viewpoint, _VIEWPOINT_IDS)
        )
        codes = np.select([~finite, ~well_formed], [_NON_FINITE, _DEGENERATE], _OK).astype(np.int8)
        converged = finite & well_formed  # a closed-form location counts as converged
        lift = np.flatnonzero(converged)
        location[lift] = _closed_form(cbf[lift], box[lift, 1], dims[lift, 0], cam[lift])
        if config.refine:
            gated = _truncated(box[lift], image_size, config.truncation_margin_px)
            codes[lift[gated]] = _TRUNCATED
            refine = lift[~gated]
            used[refine] = True
            for start in range(0, len(refine), LIFT_BLOCK_ROWS):
                block = refine[start:start + LIFT_BLOCK_ROWS]
                t, it, rnorm, conv, failed = _gauss_newton(location[block], _prepared(rows[block]))
                location[block], iterations[block], residual[block], converged[block] = t, it, rnorm, conv
                codes[block[failed]] = _REFINE_FAILED
        codes[(codes < _DEGENERATE) & ~np.isfinite(location).all(axis=1)] = _NON_FINITE
    location[codes >= _DEGENERATE] = np.nan
    return LiftResult(location, np.array(STATUSES)[codes], used, iterations, residual, converged)


# kept for bench/spans.py, which wraps it as its solver.refine layer
def gauss_newton_refine(t0, rows: DecodedRows) -> LiftResult:
    """Stage two alone: refine each row from its start in t0 (n, 3), with no
    closed form and no truncation gate, on rows lift_batch would lift.

    Every row has used_refinement set and status ok or refine_failed; a
    failed row keeps its start.
    """
    t0 = np.asarray(t0, dtype=float).reshape(-1, 3)
    with np.errstate(all="ignore"):
        t, it, rnorm, conv, failed = _gauss_newton(t0, _prepared(rows))
    status = np.array(STATUSES)[np.where(failed, _REFINE_FAILED, _OK)]
    return LiftResult(t, status, np.ones(len(t), dtype=bool), it, rnorm, conv)
