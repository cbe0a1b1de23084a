"""KITTI-style calibration / label / detection files, the regressed-property
sidecar format, and plain key-value config files.

Each row file parses into one table: a float array with a row per object and
the rows' class names (see Table).  Label rows follow the 15/16-column KITTI
layout (score column optional):

    type truncated occluded alpha  u_min v_min u_max v_max  h w l  x y z  ry [score]

Dimensions are stored h w l and the location is the bottom-face center in
camera coordinates, matching the package's Box3D convention directly.  The
observation angle alpha is stored verbatim; conversion to this package's
local yaw lives in the properties module.  DontCare rows keep their -1
placeholders.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .camera import Box2D, CameraIntrinsics, Detection2D, Dimensions


def _column_group(cols, doc):
    return property(lambda self: self.data[:, cols], doc=doc)


class Table:
    """Rows held as one float array, ``data``, whose column groups the
    subclasses name (views: writing to one writes to the rows), and the rows'
    class names, ``cls``: an object array, or None where the file has none.

    ``len`` is the row count; indexing with a slice, a mask or an index array
    selects rows.
    """

    __slots__ = ("data", "cls")
    WIDTH = None  # columns; None where the file's header sets them

    def __init__(self, data, cls=None):
        data = np.asarray(data, dtype=float)
        self.data = data if self.WIDTH is None else data.reshape(-1, self.WIDTH)
        self.cls = None if cls is None else np.asarray(cls, dtype=object)

    @classmethod
    def concatenate(cls, parts):
        names = None if parts[0].cls is None else np.concatenate([p.cls for p in parts])
        return cls(np.concatenate([p.data for p in parts]), names)

    def __len__(self):
        return len(self.data)

    def __getitem__(self, idx):
        return type(self)(self.data[idx], None if self.cls is None else self.cls[idx])


class LabelTable(Table):
    """Label rows: the 15 numbers of the KITTI layout, a missing score as NaN."""

    __slots__ = ()
    WIDTH = 15

    truncated = _column_group(0, "(N,) truncated fraction")
    occluded = _column_group(1, "(N,) occlusion level, a whole number")
    alpha = _column_group(2, "(N,) KITTI observation angle")
    box = _column_group(slice(3, 7), "(N, 4) u_min, v_min, u_max, v_max")
    dims = _column_group(slice(7, 10), "(N, 3) h, w, l meters")
    location = _column_group(slice(10, 13), "(N, 3) bottom-face center")
    yaw = _column_group(13, "(N,) global yaw")
    score = _column_group(14, "(N,) detection score; NaN where the row has none")


class DetectionTable(Table):
    """2D detection rows."""

    __slots__ = ()
    WIDTH = 5

    box = _column_group(slice(0, 4), "(N, 4) u_min, v_min, u_max, v_max")
    score = _column_group(4, "(N,) detection score")

    def __iter__(self):
        """One Detection2D per row."""
        for name, row in zip(self.cls, self.data.tolist()):
            yield Detection2D(Box2D(*row[:4]), row[4], name)


class PropertyTable(Table):
    """Regressed-property rows, columns in the sidecar's order; no class names."""

    __slots__ = ()

    dim_residual = _column_group(slice(0, 3), "(N, 3) dh, dw, dl meters, added to the class mean")
    viewpoint = _column_group(3, "(N,) viewpoint class id")
    cbf_offset = _column_group(slice(4, 6), "(N, 2) du, dv pixels from the 2D-box anchor")
    bins = _column_group(slice(6, None), "(N, 3B) conf, sin, cos of each orientation bin in turn")

    @property
    def n_bins(self):
        return (self.data.shape[1] - 6) // 3


@dataclass
class FrameRecord:
    frame_id: str
    objects: LabelTable
    camera: CameraIntrinsics | None = None


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
        p = [float(v) for v in values]  # row-major 3x4
        return CameraIntrinsics(fu=p[0], fv=p[5], cu=p[2], cv=p[6])
    raise ValueError("no P2 line in calibration file")


def write_calib(k: CameraIntrinsics) -> str:
    p = [k.fu, 0.0, k.cu, 0.0, 0.0, k.fv, k.cv, 0.0, 0.0, 0.0, 1.0, 0.0]
    return "P2: " + " ".join(f"{v:.12e}" for v in p) + "\n"


def _rows(lines, values):
    """Class names (first tokens) and values(tokens) of the non-blank lines
    among numbered (n, line) pairs; a row that values rejects raises
    ValueError("line N: ...")."""
    names, rows = [], []
    for n, line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            rows.append(values(parts))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {n}: {exc}") from exc
        names.append(parts[0])
    return names, rows


def _label_values(parts):
    if len(parts) not in (15, 16):
        raise ValueError(f"label row has {len(parts)} columns, expected 15 or 16")
    vals = [float(x) for x in parts[1:]]
    if not all(map(math.isfinite, vals)):
        raise ValueError("label row has a non-finite number")
    vals[1] = float(int(vals[1]))  # the occlusion level
    if len(vals) == 14:
        vals.append(math.nan)
    return vals


def parse_labels(text: str) -> LabelTable:
    """Label rows; a bad row raises ValueError("line N: ...")."""
    names, rows = _rows(enumerate(text.splitlines(), start=1), _label_values)
    return LabelTable(rows, names)


_LABEL_FORMAT = "{} {:.6f} {} " + " ".join(["{:.6f}"] * 12)


def write_labels(table: LabelTable) -> str:
    lines = []
    # a row at a time: the floats of a whole run would take several times
    # the array's memory
    for name, row in zip(table.cls, map(np.ndarray.tolist, table.data)):
        line = _LABEL_FORMAT.format(name, row[0], int(row[1]), *row[2:14])
        lines.append(line if math.isnan(row[14]) else f"{line} {row[14]:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")


def _detection_values(parts):
    if len(parts) != 6:
        raise ValueError(f"detection row has {len(parts)} columns, expected 6")
    return [float(x) for x in parts[1:]]


def parse_detections(text: str) -> DetectionTable:
    """2D detection rows: class u_min v_min u_max v_max score.  A bad row
    raises ValueError("line N: ...")."""
    names, rows = _rows(enumerate(text.splitlines(), start=1), _detection_values)
    return DetectionTable(rows, names)


def write_detections(table: DetectionTable) -> str:
    lines = [
        f"{name} {u0:.6f} {v0:.6f} {u1:.6f} {v1:.6f} {score:.6f}"
        for name, (u0, v0, u1, v1, score) in zip(table.cls, table.data.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# regressed-property sidecar: header of named columns, one row per detection


def _property_columns(n_bins: int):
    cols = ["dh", "dw", "dl", "viewpoint", "du", "dv"]
    for i in range(n_bins):
        cols += [f"conf{i}", f"sin{i}", f"cos{i}"]
    return cols


def write_properties(table: PropertyTable) -> str:
    lines = ["# " + " ".join(_property_columns(table.n_bins))]
    for row in table.data.tolist():
        cols = [f"{v:.9g}" for v in row]
        cols[3] = str(int(row[3]))  # the viewpoint class
        lines.append(" ".join(cols))
    return "\n".join(lines) + "\n"


def _property_values(parts, width):
    if len(parts) != width:
        raise ValueError(f"property row has {len(parts)} columns, expected {width}")
    vals = [float(x) for x in parts]
    # an integer class; OverflowError for one no float holds
    vals[3] = float(int(parts[3]))
    return vals


def parse_properties(text: str) -> PropertyTable:
    """Property rows after the column header, which names at least one bin.
    A bad row or header raises ValueError("line N: ..."), N counting the
    header."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    n, header = lines[0] if lines else (1, "")
    if not header.lstrip().startswith("#"):
        raise ValueError(f"line {n}: property file must start with a '# <columns>' header")
    cols = header.lstrip("# ").split()
    expected = _property_columns(max(1, sum(1 for c in cols if c.startswith("conf"))))
    if cols != expected:
        raise ValueError(f"line {n}: unexpected property columns {cols}, expected {expected}")
    _, rows = _rows(lines[1:], lambda parts: _property_values(parts, len(cols)))
    return PropertyTable(np.array(rows, dtype=float).reshape(-1, len(cols)))


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
