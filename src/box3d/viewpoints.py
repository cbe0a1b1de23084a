"""The 16 viewpoint classes and the box corners each one selects.

A projected 3D box touches its 2D box on four sides; which of the eight
corners carries each side depends only on how the object is seen.  The
classes partition (local-yaw octant) x (camera above / level-or-below the
box top face):

* the u extremes come from the two silhouette columns, the diagonally
  opposite vertical edges bounding the visible faces, fixed per local-yaw
  quadrant;
* v_max is carried by the depth-nearest bottom corner and v_min by the
  depth-farthest top corner when the camera is above the top face (the
  nearest top corner otherwise), with the depth ordering frozen at its
  dead-ahead value per quadrant.

Octant intervals are closed above, (45k deg, 45(k+1) deg], so an angle
exactly on a boundary falls into the lower octant.  Class id =
2*octant + (1 if the camera center is above the box top plane else 0).

At finite distance the silhouette columns switch slightly off the nominal
quadrant boundaries (within +-asin(l/2rho) resp. +-asin(w/2rho) of the
face-on directions) and the depth ordering follows the global-yaw quadrant;
``away_from_viewpoint_boundaries`` gives the closed-form predicate for poses
where the static table is exact, validated against the brute-force
``extremal_vertices`` oracle.
"""

import math

import numpy as np

from .camera import TWO_PI, Box3D, CameraIntrinsics, Dimensions, box_vertices, project_point, vertex_offsets

N_VIEWPOINTS = 16

QUARTER_PI = math.pi / 4.0
HALF_PI = math.pi / 2.0


def _vertex_index(sx, level, sz):
    return 4 * (sx < 0) + 2 * level + (sz < 0)


# Ground-plane corner columns by (sx, sz) sign of the (l, w) half offsets.
_COL_A = (1, 1)
_COL_B = (1, -1)
_COL_C = (-1, -1)
_COL_D = (-1, 1)

# Per local-yaw quadrant: (u_min column, u_max column, depth-nearest column,
# depth-farthest column).  Nearest/farthest are antipodal.
_QUADRANT_COLUMNS = {
    0: (_COL_A, _COL_C, _COL_D, _COL_B),
    1: (_COL_B, _COL_D, _COL_A, _COL_C),
    2: (_COL_C, _COL_A, _COL_B, _COL_D),
    3: (_COL_D, _COL_B, _COL_C, _COL_A),
}


def _build_table():
    """The (left, right, top, bottom) vertex indices of each class id in
    turn."""
    table = []
    for octant in range(8):
        left, right, near, far = _QUADRANT_COLUMNS[octant // 2]
        for top in (near, far):  # camera level with or below the top face, then above it
            table.append((_vertex_index(left[0], 0, left[1]), _vertex_index(right[0], 0, right[1]),
                          _vertex_index(top[0], 1, top[1]), _vertex_index(near[0], 0, near[1])))
    return tuple(table)


_VERTEX_INDEX_TABLE = _build_table()


def selected_vertex_indices(viewpoint: int):
    """(left, right, top, bottom) vertex indices (see camera.vertex_offsets)
    of a viewpoint class id in [0, 16)."""
    if not 0 <= viewpoint < N_VIEWPOINTS:
        raise ValueError(f"viewpoint id out of range: {viewpoint}")
    return _VERTEX_INDEX_TABLE[viewpoint]


def local_yaw(b: Box3D) -> float:
    """Yaw relative to the viewing ray: 2*pi - theta_ray - theta, mod 2*pi."""
    theta_ray = math.atan2(b.location[2], b.location[0])
    return (TWO_PI - theta_ray - b.yaw) % TWO_PI


def octant_of_local_yaw(theta_l: float) -> int:
    """Octant index in [0, 8); intervals are closed above, so an angle
    exactly on a boundary falls into the lower octant (0 wraps to 7)."""
    t = theta_l % TWO_PI
    if t <= 0.0:
        t = TWO_PI
    return min(7, math.ceil(t / QUARTER_PI) - 1)


def classify_viewpoint(b: Box3D, k: CameraIntrinsics) -> int:
    """Viewpoint class of a pose; the ground-truth labeler for synthetic data."""
    above = b.location[1] > b.dims.h
    return 2 * octant_of_local_yaw(local_yaw(b)) + (1 if above else 0)


def extremal_vertices(b: Box3D, k: CameraIntrinsics):
    """Brute-force extremes: indices of the projected corners attaining
    (min u, max u, min v, max v); ties go to the lowest index.

    Raises BehindCameraError if any corner has non-positive depth.
    """
    verts = box_vertices(b)
    uv = np.stack([project_point(k, p) for p in verts])
    return (
        int(np.argmin(uv[:, 0])),
        int(np.argmax(uv[:, 0])),
        int(np.argmin(uv[:, 1])),
        int(np.argmax(uv[:, 1])),
    )


def _dist_to_multiple(angle, period):
    r = angle % period
    return min(r, period - r)


# meters the camera must clear the bottom face and the top plane of a box by
HEIGHT_MARGIN = 0.02


def away_from_viewpoint_boundaries(
    b: Box3D,
    angle_margin: float = math.radians(2.0),
    height_margin: float = HEIGHT_MARGIN,
) -> bool:
    """True when the static table is exact for this pose with margin to spare.

    Checks, in local yaw: distance to the nominal 45-degree boundaries, and
    clearance of the face-visibility flip angles around each 90-degree
    multiple (half-width asin(l/2rho) about the side-on directions,
    asin(w/2rho) about the face-on directions, rho = ground-plane ray
    length).  In global yaw: the depth-nearest bottom corner must match the
    quadrant's frozen dead-ahead choice, with margin.  In height: the camera
    must be clear of the box-top plane and above the bottom face.
    """
    tx, ty, tz = b.location
    rho = math.hypot(tx, tz)
    if rho <= max(b.dims.l, b.dims.w):
        return False
    # camera strictly above the bottom face and clear of the top plane
    if ty < height_margin or abs(ty - b.dims.h) < height_margin:
        return False

    t_l = local_yaw(b)
    if _dist_to_multiple(t_l, QUARTER_PI) < angle_margin:
        return False
    half_w = math.asin(min(1.0, b.dims.w / (2.0 * rho)))  # face-on flips (0, pi)
    half_l = math.asin(min(1.0, b.dims.l / (2.0 * rho)))  # side-on flips (pi/2, 3pi/2)
    if _dist_to_multiple(t_l, math.pi) < half_w + angle_margin:
        return False
    if _dist_to_multiple(t_l + HALF_PI, math.pi) < half_l + angle_margin:
        return False

    # depth ordering of the corner columns must match the frozen table entry
    theta_g = b.yaw
    if _dist_to_multiple(theta_g, HALF_PI) < angle_margin:
        return False
    sx = 1 if math.sin(theta_g) > 0 else -1
    sz = 1 if math.cos(theta_g) < 0 else -1
    near = _QUADRANT_COLUMNS[octant_of_local_yaw(t_l) // 2][2]
    return (sx, sz) == near


_RULE_NAMES = ("left/u_min", "right/u_max", "top/v_min", "bottom/v_max")


def format_viewpoint_table() -> str:
    """Human-readable dump of all 16 classes, for the CLI."""
    offsets = vertex_offsets(Dimensions(1.0, 1.0, 1.0))  # only their signs are printed
    lines = []
    for vid in range(N_VIEWPOINTS):
        octant, above = divmod(vid, 2)
        lo, hi = 45 * octant, 45 * (octant + 1)
        lines.append(
            f"viewpoint {vid:2d}: local yaw ({lo:3d}, {hi:3d}] deg, "
            f"camera {'above top face' if above else 'level with or below top face'}"
        )
        for name, i in zip(_RULE_NAMES, selected_vertex_indices(vid)):
            x, y, z = offsets[i]
            sx = "+l/2" if x > 0 else "-l/2"
            sy = "-h" if y < 0 else " 0"
            sz = "+w/2" if z > 0 else "-w/2"
            lines.append(f"    {name:12s} -> vertex {i} at ({sx}, {sy}, {sz})")
    return "\n".join(lines)
