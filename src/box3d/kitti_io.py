"""KITTI-style calibration / label / detection files, the regressed-property
sidecar format, and plain key-value config files.

Row files of one kind parse a block at a time: the texts of a block of frames
become one table (a float array with a row per object and the rows' class
names, see Table) and the frames' row offsets (see Parsed), in one pass that
splits lines and tokens and converts every number of the block with Python's
float().  Each kind has one parser, and a block it rejects is bisected with
the same parser: first its texts, each part after the block's first text,
then the first failing text's rows (a property row after its text's header;
a calibration text whole) and the text after the block's first, so that the
first fault in frame order raises ParseError naming its frame and line.
Label rows follow the 15/16-column KITTI layout (score column optional):

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

    # kept for bench/run.py, whose write_inputs checks the injected boxes row by row
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


# kept for bench/spans.py, whose generate_scene counter reads result[0].objects
@dataclass
class FrameRecord:
    frame_id: str
    objects: LabelTable
    camera: CameraIntrinsics | None = None


def _fails(parse, texts):
    try:
        parse(texts)
    except (ValueError, OverflowError):
        return True
    return False


def _first_failing(fails, n):
    """The first of n units, some of which fail, given fails(lo, hi) of the
    units lo:hi when those before lo pass: the first half of the units left
    is tried, and the search descends into it if it fails, else into the
    second half."""
    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fails(lo, mid) else (mid, hi)
    return lo


def _parse(parse, texts, pieces):
    """parse(texts), a kind's block parser.  Where the block fails, the first
    failing text is found by bisection, each part parsed after the block's
    first text; then the first failing piece of that text's (n, block of one
    text) pieces(text), or else the text after the block's first, the same
    way.  That piece, parsed alone, raises ParseError naming the text, as
    "line n: ..." where n > 0.  A block fails exactly when one of its texts,
    or one of a text's pieces, does."""
    try:
        return parse(texts)
    except (ValueError, OverflowError):
        frame = _first_failing(lambda lo, hi: _fails(parse, [*texts[:1], *texts[max(lo, 1):hi]]), len(texts))
        units = [*pieces(texts[frame]), (0, [texts[0], texts[frame]])]
        n, piece = units[_first_failing(
            lambda lo, hi: _fails(parse, [text for _, block in units[lo:hi] for text in block]), len(units))]
        try:
            parse(piece)
        except (ValueError, OverflowError) as exc:
            raise ParseError(frame, f"line {n}: {exc}" if n else str(exc)) from exc
        raise


def _rows(text):
    """A text's numbered non-blank lines, each a block of one text."""
    return [(n, [line]) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _calib(texts):
    p2 = []
    for text in texts:
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("P2:"):
                p2.append(line[3:].split())
                break
        else:
            raise ValueError("no P2 line in calibration file")
    if not set(map(len, p2)) <= {12}:
        raise ValueError(f"P2 line has {next(len(p) for p in p2 if len(p) != 12)} numbers, expected 12")
    p = np.fromiter(map(float, chain.from_iterable(p2)), float, 12 * len(p2)).reshape(-1, 12)
    cameras = p[:, [0, 5, 2, 6]]
    if not ((cameras[:, :2] > 0).all() and np.isfinite(cameras).all()):
        for camera in cameras.tolist():  # the same tests: the first bad camera raises
            CameraIntrinsics(*camera)
    return cameras


def parse_calib(texts) -> np.ndarray:
    """(F, 4) intrinsics fu, fv, cu, cv of a block of frames' calibration
    texts, each from its first P2 line: the 12 numbers of a row-major 3x4
    projection matrix, whose translation column is ignored (single-camera
    use).  A text without a P2 line, with a P2 line of another length, or
    whose intrinsics CameraIntrinsics rejects raises ParseError."""
    return _parse(_calib, texts, lambda text: [(0, [text])])


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


def _named_rows(rows, kind, widths):
    """Class names (first tokens), the numbers after them in one flat array,
    and each row's count of numbers, which must be one of `widths`.  Takes the
    names off `rows`; ValueError for a row of another width or a token that
    float() rejects."""
    names = [r.pop(0) for r in rows]
    counts = np.fromiter(map(len, rows), int, len(rows))
    if not set(counts.tolist()) <= set(widths):
        bad = next(c for c in counts.tolist() if c not in widths)
        expected = " or ".join(str(w + 1) for w in widths)
        raise ValueError(f"{kind} row has {bad + 1} columns, expected {expected}")
    return names, np.fromiter(map(float, chain.from_iterable(rows)), float, counts.sum()), counts


def _labels(texts):
    rows, offsets = _split(texts)
    names, values, counts = _named_rows(rows, "label", (14, 15))
    if not np.isfinite(values).all():
        raise ValueError("label row has a non-finite number")
    data = np.full((len(counts), 15), math.nan)  # a missing score stays NaN
    data[np.arange(15) < counts[:, None]] = values
    data[:, 1] = np.trunc(data[:, 1]) + 0.0  # the occlusion level, never -0.0
    return Parsed(LabelTable(data, names), offsets)


def parse_labels(texts) -> Parsed:
    """The label rows of a block of frames' texts; a bad row raises
    ParseError."""
    return _parse(_labels, texts, _rows)


# tables of fewer rows are written a row at a time: the array pass's fixed
# cost, about 50 us on a 2-core VM, outweighs its saving below about 14 rows
LABEL_ARRAY_MIN_ROWS = 16


def write_labels(table: LabelTable) -> str:
    """The table's rows as KITTI label lines, each ending in a line break:
    the class name, then truncated, occluded as int() of it, alpha, the box,
    h w l, x y z and ry, then the score where it is not NaN.  Every number
    but the occlusion level is written as Python's '%.6f' writes it.  A NaN
    or infinite occlusion level raises what int() raises."""
    text = _label_array(table) if len(table) >= LABEL_ARRAY_MIN_ROWS else None
    return _label_rows(table) if text is None else text


_LABEL_FORMAT = "{} {:.6f} {} " + " ".join(["{:.6f}"] * 12)


def _label_rows(table):
    """write_labels with str.format, a row at a time: the floats of a whole
    run would take several times the array's memory."""
    lines = []
    for name, row in zip(table.cls, map(np.ndarray.tolist, table.data)):
        line = _LABEL_FORMAT.format(name, row[0], int(row[1]), *row[2:14])
        lines.append(line if math.isnan(row[14]) else f"{line} {row[14]:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")


def _words(texts):
    """Each ASCII text of at most 4 characters as one uint32 word of its
    bytes, padded with NUL."""
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), np.uint32)


# the words of a 3-digit group g are _DIGITS[region + g], the regions being
# g with leading zeros, then g as an integer, each without and with a
# decimal point after it, then g as an integer or nothing where g is 0
_GROUPS, _INTEGERS = [f"{g:03d}" for g in range(1000)], [str(g) for g in range(1000)]
_ZEROS, _INTEGER, _ZEROS_POINT, _INTEGER_POINT, _LEADING = range(0, 5000, 1000)
_DIGITS = _words([*_GROUPS, *_INTEGERS, *(g + "." for g in _GROUPS), *(g + "." for g in _INTEGERS),
                  "", *_INTEGERS[1:]])
_SPACE, _MINUS, _NEWLINE = _words([" ", " -", "\n"])


def _label_array(table):
    """write_labels' text in one array pass, or None where the table holds a
    number that is not finite (but a NaN score) or whose magnitude rounds to
    1e9 or more, an occlusion level outside +-1e9, or a class name that is
    not a str or holds a NUL.

    Each row is laid out in uint32 words: the class name's UTF-8 bytes, then
    per number a word of the space and sign before it and five words of
    three digits each, the millions, thousands and ones of its whole part
    and its two fraction groups; then the line break.  Unused bytes are NUL,
    and dropping every NUL leaves the text.

    A number x is written as the integer round(|x| * 1e6), rounded half to
    even on the exact product, which is how '%.6f' rounds.  rint of the
    float product p is that integer unless p is exactly a half integer:
    there the sign of the product's exact remainder, found with Dekker's
    two-product (1e6 has 14 significant bits, so only |x| needs Veltkamp's
    split), breaks the tie.  The occlusion level takes the same steps as
    |int(x)|, its fraction words left empty."""
    data = table.data
    n = len(data)
    scored = ~np.isnan(data[:, 14])
    mags = np.abs(data)
    mags[:, 1] = np.trunc(mags[:, 1])
    mags[~scored, 14] = 0.0
    if not (mags < 1e9).all():  # NaN and infinity fail too
        return None
    try:
        names = "\0".join(table.cls).encode()
    except TypeError:
        return None
    if names.count(b"\0") != n - 1:
        return None

    p = mags * 1e6
    r = np.rint(p)
    tie = np.flatnonzero(np.abs(p - r) == 0.5)
    if len(tie):  # p is a half integer: the exact product's remainder decides
        a, p_tie, r_tie = mags.ravel()[tie], p.ravel()[tie], r.ravel()[tie]
        c = a * 134217729.0  # Veltkamp's split of a at 2**27 + 1
        a_high = c - (c - a)
        rest = (a_high * 1e6 - p_tie) + (a - a_high) * 1e6  # a * 1e6 - p, exactly
        away = np.where(p_tie > r_tie, 1.0, -1.0)  # from r toward p
        r.ravel()[tie] = r_tie + away * (rest * away > 0)
    if not (r < 1e15).all():
        return None
    groups, millions = [], r.astype(np.int64)  # 3-digit groups, the lowest first
    for _ in range(4):
        higher = millions // 1000
        groups.append(millions - higher * 1000)
        millions = higher
    fraction_low, fraction_high, ones, thousands = groups

    name_bytes = np.array(names.split(b"\0")).view(np.uint8).reshape(n, -1)
    name_words = -(-name_bytes.shape[1] // 4)
    rows = np.zeros((n, name_words + 15 * 6 + 1), np.uint32)
    rows.view(np.uint8)[:, :name_bytes.shape[1]] = name_bytes
    words = rows[:, name_words:-1].reshape(n, 15, 6)
    negative = np.signbit(data)
    negative[:, 1] = data[:, 1] <= -1  # int() of it is negative
    words[..., 0] = np.where(negative, _MINUS, _SPACE)
    words[..., 1] = _DIGITS.take(millions + _LEADING)
    words[..., 2] = _DIGITS.take(thousands + np.where(r < 1e12, _LEADING, _ZEROS))
    words[..., 3] = _DIGITS.take(ones + np.where(r < 1e9, _INTEGER_POINT, _ZEROS_POINT))
    words[..., 4] = _DIGITS.take(fraction_high + _ZEROS)
    words[..., 5] = _DIGITS.take(fraction_low + _ZEROS)
    words[:, 1, 3] = _DIGITS.take(ones[:, 1] + np.where(r[:, 1] < 1e9, _INTEGER, _ZEROS))
    words[:, 1, 4:] = 0
    words[~scored, 14] = 0
    rows[:, -1] = _NEWLINE
    return rows.tobytes().translate(None, b"\0").decode()


def _detections(texts):
    rows, offsets = _split(texts)
    names, values, _ = _named_rows(rows, "detection", (5,))
    return Parsed(DetectionTable(values, names), offsets)


def parse_detections(texts) -> Parsed:
    """The 2D detection rows of a block of frames' texts: class u_min v_min
    u_max v_max score.  A bad row raises ParseError."""
    return _parse(_detections, texts, _rows)


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


def _properties(texts):
    rows, ends, widths = [], [0], {}  # widths: the column count of each distinct header
    for text in texts:
        lines = text.splitlines()
        n, header = next(((n, line) for n, line in enumerate(lines, start=1) if line.strip()), (1, ""))
        if header not in widths:
            widths[header] = _property_width(header)
        rows += filter(None, map(str.split, lines[n:]))
        ends.append(len(rows))
    width, *other = widths.values()  # the first text's header comes first
    for bad in other:
        if bad != width:
            raise ValueError(f"{(bad - 6) // 3} orientation bins, the block's first frame has {(width - 6) // 3}")
    if not set(map(len, rows)) <= {width}:
        bad = next(len(r) for r in rows if len(r) != width)
        raise ValueError(f"property row has {bad} columns, expected {width}")
    data = np.fromiter(map(float, chain.from_iterable(rows)), float, width * len(rows)).reshape(-1, width)
    # the viewpoint class, an integer; OverflowError for one no float holds
    data[:, 3] = [float(int(r[3])) for r in rows]
    return Parsed(PropertyTable(data), np.array(ends))


def _header_rows(text):
    """A property text's header alone, then the header before each later
    non-blank line, numbered by the piece's last line."""
    (n, [header]), *rows = _rows(text) or [(1, [""])]
    return [(n, [header]), *((m, [header + "\n" + line]) for m, [line] in rows)]


def parse_properties(texts) -> Parsed:
    """The property rows of a block of frames' texts, at least one, each
    after its column header, which names at least one bin; all frames name
    the same bins.  A bad row or header raises ParseError, its line number
    counting the header."""
    return _parse(_properties, texts, _header_rows)


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


def check_fields(obj, names, ok=lambda v: v >= 0, must="a non-negative number"):
    """ValueError naming the first of a dataclass's fields `names` whose
    value fails ok; NaN fails the default test."""
    for name in names:
        if not ok(getattr(obj, name)):
            raise ValueError(f"{name} must be {must}, got {getattr(obj, name)!r}")


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
