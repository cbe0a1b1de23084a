"""KITTI-style calibration / label / detection files, the regressed-property
sidecar format, and plain key-value config files.

Label rows follow the 15/16-column KITTI layout (score column optional):

    type truncated occluded alpha  u_min v_min u_max v_max  h w l  x y z  ry [score]

Dimensions are stored h w l and the location is the bottom-face center in
camera coordinates, matching the package's Box3D convention directly.  The
observation angle alpha is stored verbatim; conversion to this package's
local yaw lives in the properties module.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .camera import Box2D, Box3D, CameraIntrinsics, Detection2D, Dimensions
from .properties import MultiBinOutput, RegressedProperties, default_bin_centers


@dataclass
class ObjectLabel:
    cls: str
    truncated: float
    occluded: int
    alpha: float
    box2d: Box2D
    dims: Dimensions
    location: np.ndarray
    yaw: float
    score: float | None = None

    def box3d(self) -> Box3D:
        return Box3D(self.location, self.dims, self.yaw)

    @property
    def is_dontcare(self) -> bool:
        return self.cls == "DontCare"


@dataclass
class FrameRecord:
    frame_id: str
    objects: list
    camera: CameraIntrinsics | None = None


@dataclass
class PropertyRecord:
    """Per-frame regressed properties, index-aligned to the detections."""

    frame_id: str
    properties: list


def parse_calib(text: str) -> CameraIntrinsics:
    """Intrinsics from the 12-number P2 projection-matrix line; the
    translation column is ignored (single-camera use)."""
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("P2:"):
            continue
        values = line.split(":", 1)[1].split()
        if len(values) != 12:
            raise ValueError(f"P2 line has {len(values)} numbers, expected 12")
        p = np.array([float(v) for v in values]).reshape(3, 4)
        return CameraIntrinsics(fu=p[0, 0], fv=p[1, 1], cu=p[0, 2], cv=p[1, 2])
    raise ValueError("no P2 line in calibration file")


def write_calib(k: CameraIntrinsics) -> str:
    p = [k.fu, 0.0, k.cu, 0.0, 0.0, k.fv, k.cv, 0.0, 0.0, 0.0, 1.0, 0.0]
    return "P2: " + " ".join(f"{v:.12e}" for v in p) + "\n"


def _parse_label_line(parts):
    if len(parts) not in (15, 16):
        raise ValueError(f"label row has {len(parts)} columns, expected 15 or 16")
    vals = [float(x) for x in parts[1:]]
    if not all(map(math.isfinite, vals)):
        raise ValueError("label row has a non-finite number")
    # DontCare rows carry -1 placeholders that Dimensions would reject
    dims = (
        Dimensions(vals[7], vals[8], vals[9])
        if min(vals[7], vals[8], vals[9]) > 0
        else Dimensions(1e-9, 1e-9, 1e-9)
    )
    return ObjectLabel(
        cls=parts[0],
        truncated=vals[0],
        occluded=int(vals[1]),
        alpha=vals[2],
        box2d=Box2D(vals[3], vals[4], vals[5], vals[6]),
        dims=dims,
        location=np.array(vals[10:13]),
        yaw=vals[13],
        score=vals[14] if len(parts) == 16 else None,
    )


def parse_labels(text: str, frame_id: str = "") -> FrameRecord:
    """Label rows; a bad row raises ValueError("line N: ...")."""
    objects = []
    for n, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if parts:
            try:
                objects.append(_parse_label_line(parts))
            except (ValueError, OverflowError) as exc:  # int(inf) overflows
                raise ValueError(f"line {n}: {exc}") from exc
    return FrameRecord(frame_id, objects)


def write_labels(objects) -> str:
    lines = []
    for o in objects:
        cols = [
            o.cls,
            f"{o.truncated:.6f}",
            str(int(o.occluded)),
            f"{o.alpha:.6f}",
            f"{o.box2d.u_min:.6f}",
            f"{o.box2d.v_min:.6f}",
            f"{o.box2d.u_max:.6f}",
            f"{o.box2d.v_max:.6f}",
            f"{o.dims.h:.6f}",
            f"{o.dims.w:.6f}",
            f"{o.dims.l:.6f}",
            f"{o.location[0]:.6f}",
            f"{o.location[1]:.6f}",
            f"{o.location[2]:.6f}",
            f"{o.yaw:.6f}",
        ]
        if o.score is not None:
            cols.append(f"{o.score:.6f}")
        lines.append(" ".join(cols))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_detections(text: str):
    """2D detection rows: class u_min v_min u_max v_max score.  A bad row
    raises ValueError("line N: ...")."""
    out = []
    for n, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) != 6:
                raise ValueError(f"detection row has {len(parts)} columns, expected 6")
            vals = [float(x) for x in parts[1:]]
            out.append(Detection2D(Box2D(vals[0], vals[1], vals[2], vals[3]), vals[4], parts[0]))
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from exc
    return out


def write_detections(detections) -> str:
    lines = [
        f"{d.cls} {d.box.u_min:.6f} {d.box.v_min:.6f} {d.box.u_max:.6f} "
        f"{d.box.v_max:.6f} {d.score:.6f}"
        for d in detections
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# regressed-property sidecar: header of named columns, one row per detection


def _property_columns(n_bins: int):
    cols = ["dh", "dw", "dl", "viewpoint", "du", "dv"]
    for i in range(n_bins):
        cols += [f"conf{i}", f"sin{i}", f"cos{i}"]
    return cols


def write_properties(record: PropertyRecord) -> str:
    if record.properties:
        n_bins = len(record.properties[0].multibin.bin_centers)
    else:
        n_bins = 2
    lines = ["# " + " ".join(_property_columns(n_bins))]
    for p in record.properties:
        m = p.multibin
        row = [*p.dim_residual, p.viewpoint_class, *p.cbf_offset]
        for i in range(n_bins):
            row += [m.confidences[i], m.sin_residuals[i], m.cos_residuals[i]]
        lines.append(" ".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_properties(text: str, frame_id: str = "") -> PropertyRecord:
    """Property rows after the column header.  A bad row or header raises
    ValueError("line N: ..."), N counting the header."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    n, header = lines[0] if lines else (1, "")
    if not header.lstrip().startswith("#"):
        raise ValueError(f"line {n}: property file must start with a '# <columns>' header")
    cols = header.lstrip("# ").split()
    n_bins = sum(1 for c in cols if c.startswith("conf"))
    expected = _property_columns(n_bins)
    if cols != expected:
        raise ValueError(f"line {n}: unexpected property columns {cols}, expected {expected}")
    centers = default_bin_centers(n_bins)
    props = []
    for n, line in lines[1:]:
        try:
            props.append(_parse_property_row(line.split(), cols, n_bins, centers))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {n}: {exc}") from exc
    return PropertyRecord(frame_id, props)


def _parse_property_row(vals, cols, n_bins, centers) -> RegressedProperties:
    if len(vals) != len(cols):
        raise ValueError(f"property row has {len(vals)} columns, expected {len(cols)}")
    row = dict(zip(cols, vals))
    conf = tuple(float(row[f"conf{i}"]) for i in range(n_bins))
    sins = tuple(float(row[f"sin{i}"]) for i in range(n_bins))
    coss = tuple(float(row[f"cos{i}"]) for i in range(n_bins))
    viewpoint = int(row["viewpoint"])
    float(viewpoint)  # OverflowError for a class no float holds; decode_rows stores a float
    return RegressedProperties(
        dim_residual=(float(row["dh"]), float(row["dw"]), float(row["dl"])),
        multibin=MultiBinOutput(conf, sins, coss, centers),
        viewpoint_class=viewpoint,
        cbf_offset=(float(row["du"]), float(row["dv"])),
    )


# ---------------------------------------------------------------------------
# plain key-value config files: "name = value", '#' comments


def parse_keyvalue(text: str) -> dict:
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        out[key] = value
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}


def _coerce(current, raw: str):
    if isinstance(current, bool):
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    if isinstance(current, (int, float)):
        return type(current)(raw)
    if isinstance(current, tuple):
        return tuple(float(v) for v in raw.replace(",", " ").split())
    if isinstance(current, Dimensions):
        h, w, l = (float(v) for v in raw.replace(",", " ").split())
        return Dimensions(h, w, l)
    return raw


def coerce_fields(obj, overrides: dict):
    """Replace dataclass fields from string values, with type coercion.

    Booleans take 1/0, true/false, yes/no or on/off in any case; tuple-valued
    fields take comma-separated numbers.  An unknown key or a value that does
    not coerce raises ValueError naming the key.
    """
    known = {f.name for f in fields(obj)}
    updates = {}
    for key, raw in overrides.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        try:
            updates[key] = _coerce(getattr(obj, key), raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return replace(obj, **updates)
