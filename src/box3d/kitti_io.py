"""KITTI-style calibration / label / detection files, the regressed-property
sidecar format, and plain key-value config files.

Row files of one kind parse a block at a time: the texts of a block of frames
become one table (a float array with a row per object and the rows' class
names, see Table) and the frames' row offsets (see Parsed), in one pass that
splits lines and tokens and converts every number of the block with Python's
float().  A block with a bad row is checked again row by row, frame by frame,
and the first bad row raises ParseError naming its frame and line.  Label rows
follow the 15/16-column KITTI layout (score column optional):

    type truncated occluded alpha  u_min v_min u_max v_max  h w l  x y z  ry [score]

Dimensions are stored h w l and the location is the bottom-face center in
camera coordinates, matching the package's Box3D convention directly.  The
observation angle alpha is stored verbatim; conversion to this package's
local yaw lives in the properties module.  DontCare rows keep their -1
placeholders.
"""

import math
from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import NamedTuple

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


class Parsed(NamedTuple):
    """The rows of a block of frames as one table, ``objects``, and the
    frames' ``(F + 1,)`` row offsets: frame f's rows are
    ``objects[offsets[f]:offsets[f + 1]]``."""

    objects: Table
    offsets: np.ndarray


class ParseError(ValueError):
    """The first bad row or header of a block of frames; ``frame`` is the
    index of its text in the block, and the message reads "line N: ..."
    where a line is at fault."""

    def __init__(self, frame, message):
        super().__init__(message)
        self.frame = frame


def join(parts) -> Parsed:
    """One Parsed of the Parsed records of consecutive blocks, at least one."""
    objects = type(parts[0].objects).concatenate([p.objects for p in parts])
    return Parsed(objects, np.append(0, np.cumsum(np.concatenate([np.diff(p.offsets) for p in parts]))))


@dataclass
class FrameRecord:
    frame_id: str
    objects: LabelTable
    camera: CameraIntrinsics | None = None


def _check_calib(text):
    """ValueError for a calibration text without a P2 line, or whose first P2
    line does not hold 12 numbers, or whose intrinsics CameraIntrinsics
    rejects."""
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("P2:"):
            continue
        values = line.split(":", 1)[1].split()
        if len(values) != 12:
            raise ValueError(f"P2 line has {len(values)} numbers, expected 12")
        p = [float(v) for v in values]
        CameraIntrinsics(fu=p[0], fv=p[5], cu=p[2], cv=p[6])
        return
    raise ValueError("no P2 line in calibration file")


def parse_calib(texts) -> np.ndarray:
    """(F, 4) intrinsics fu, fv, cu, cv of a block of frames' calibration
    texts, each from its first P2 line: the 12 numbers of a row-major 3x4
    projection matrix, whose translation column is ignored (single-camera
    use).  A bad text raises ParseError (see _check_calib)."""
    p2 = []
    try:
        for text in texts:
            for line in text.splitlines():
                line = line.strip()
                if line.startswith("P2:"):
                    p2.append(line[3:].split())
                    break
            else:
                raise ValueError("no P2 line")
        if not set(map(len, p2)) <= {12}:
            raise ValueError("P2 width")
        p = np.fromiter(map(float, chain.from_iterable(p2)), float, 12 * len(p2)).reshape(-1, 12)
        cameras = p[:, [0, 5, 2, 6]]
        if not ((cameras[:, :2] > 0).all() and np.isfinite(cameras).all()):
            raise ValueError("intrinsics")
    except ValueError:
        for frame, text in enumerate(texts):
            try:
                _check_calib(text)
            except ValueError as exc:
                raise ParseError(frame, str(exc)) from exc
        raise
    return cameras


def write_calib(k: CameraIntrinsics) -> str:
    p = [k.fu, 0.0, k.cu, 0.0, 0.0, k.fv, k.cv, 0.0, 0.0, 0.0, 1.0, 0.0]
    return "P2: " + " ".join(f"{v:.12e}" for v in p) + "\n"


def _split(texts):
    """The token lists of the texts' non-blank lines and the texts' row
    offsets."""
    rows, ends = [], [0]
    for text in texts:
        rows += filter(None, map(str.split, text.splitlines()))
        ends.append(len(rows))
    return rows, np.array(ends)


def _named_rows(rows, widths):
    """Class names (first tokens), the numbers after them in one flat array,
    and each row's count of numbers, which must be one of `widths`.  Takes the
    names off `rows`; ValueError for a row of another width or a token that
    float() rejects."""
    names = [r.pop(0) for r in rows]
    counts = np.fromiter(map(len, rows), int, len(rows))
    if not set(counts.tolist()) <= set(widths):
        raise ValueError("row width")
    return names, np.fromiter(map(float, chain.from_iterable(rows)), float, counts.sum()), counts


def _check_rows(frame, lines, values):
    """values(tokens) of each non-blank line among numbered (n, line) pairs;
    the first row that values rejects raises ParseError(frame, "line N: ...")."""
    for n, line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            values(parts)
        except (ValueError, OverflowError) as exc:
            raise ParseError(frame, f"line {n}: {exc}") from exc


def _check_texts(texts, values):
    """_check_rows over each text's lines in turn."""
    for frame, text in enumerate(texts):
        _check_rows(frame, enumerate(text.splitlines(), start=1), values)


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


def parse_labels(texts) -> Parsed:
    """The label rows of a block of frames' texts; a bad row raises
    ParseError."""
    rows, offsets = _split(texts)
    try:
        names, values, counts = _named_rows(rows, (14, 15))
        if not np.isfinite(values).all():
            raise ValueError("non-finite")
    except ValueError:
        _check_texts(texts, _label_values)
        raise
    data = np.full((len(counts), 15), math.nan)  # a missing score stays NaN
    data[np.arange(15) < counts[:, None]] = values
    data[:, 1] = np.trunc(data[:, 1]) + 0.0  # the occlusion level, never -0.0
    return Parsed(LabelTable(data, names), offsets)


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


def parse_detections(texts) -> Parsed:
    """The 2D detection rows of a block of frames' texts: class u_min v_min
    u_max v_max score.  A bad row raises ParseError."""
    rows, offsets = _split(texts)
    try:
        names, values, _ = _named_rows(rows, (5,))
    except ValueError:
        _check_texts(texts, _detection_values)
        raise
    return Parsed(DetectionTable(values, names), offsets)


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


def _property_header(lines):
    """The first non-blank line of a property text, its header, and its
    number, from the text's numbered (n, line) pairs; (1, "") for none."""
    return next(((n, line) for n, line in lines if line.strip()), (1, ""))


def _property_width(header):
    """The column count a property header line names; ValueError for a bad
    header."""
    if not header.lstrip().startswith("#"):
        raise ValueError("property file must start with a '# <columns>' header")
    cols = header.lstrip("# ").split()
    expected = _property_columns(max(1, sum(1 for c in cols if c.startswith("conf"))))
    if cols != expected:
        raise ValueError(f"unexpected property columns {cols}, expected {expected}")
    return len(cols)


def _check_properties(texts):
    """Raise the first bad header or row of the texts, text by text, or the
    first text whose bin count differs from the first text's."""
    for frame, text in enumerate(texts):
        lines = list(enumerate(text.splitlines(), start=1))
        n, header = _property_header(lines)
        try:
            width = _property_width(header)
        except ValueError as exc:
            raise ParseError(frame, f"line {n}: {exc}") from exc
        _check_rows(frame, lines[n:], lambda parts: _property_values(parts, width))
        if frame == 0:
            first = width
        elif width != first:
            raise ParseError(frame, f"{(width - 6) // 3} orientation bins, the block's first frame "
                                    f"has {(first - 6) // 3}")


def parse_properties(texts) -> Parsed:
    """The property rows of a block of frames' texts, at least one, each
    after its column header, which names at least one bin; all frames name
    the same bins.  A bad row or header raises ParseError, its line number
    counting the header."""
    rows, ends, widths = [], [0], {}  # widths: the column count of each distinct header
    try:
        for text in texts:
            lines = text.splitlines()
            n, header = _property_header(enumerate(lines, start=1))
            if header not in widths:
                widths[header] = _property_width(header)
            rows += filter(None, map(str.split, lines[n:]))
            ends.append(len(rows))
        (width,) = set(widths.values())
        if not set(map(len, rows)) <= {width}:
            raise ValueError("row width")
        data = np.fromiter(map(float, chain.from_iterable(rows)), float, width * len(rows))
        data = data.reshape(-1, width)
        data[:, 3] = [float(int(r[3])) for r in rows]  # the viewpoint class, an integer
    except (ValueError, OverflowError):
        _check_properties(texts)
        raise
    return Parsed(PropertyTable(data), np.array(ends))


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
