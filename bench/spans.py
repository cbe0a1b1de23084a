"""Spans around calls into box3d's layers, recorded from outside the package.

``Tracer.installed()`` swaps each listed public function, in its own module
and wherever another box3d module bound it by name (``cli`` imports them
with ``from .x import f``), for a wrapper that records a span, and puts the
originals back on exit.  Untraced runs therefore execute the package
untouched.  A listed function that the package no longer has is skipped, and
the layers that consist only of such functions are reported absent.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _one(args, kwargs, result):
    return {"objs": 1}


def _zero(args, kwargs, result):
    return {}


def _rows_returned(args, kwargs, result):
    for attr in ("objects", "properties"):
        if hasattr(result, attr):
            return {"objs": len(getattr(result, attr))}
    return {"objs": len(result)}


def _rows_given(args, kwargs, result):
    return {"objs": len(args[0])}


def _batch(args, kwargs, result):
    return {"objs": len(result)}


def _refined(args, kwargs, result):
    return {"objs": 1, "iterations": getattr(result, "iterations", 0),
            "converged": int(bool(getattr(result, "converged", False)))}


def _depurated(args, kwargs, result):
    n = len(args[0])
    return {"frames": 1, "pairs": n * (n - 1) // 2, "removed": sum(not v.kept for v in result)}


def _matched(args, kwargs, result):
    return {"frames": 1, "pairs": len(args[0]) * len(args[1])}


def _generated(args, kwargs, result):
    return {"objs": len(result[0].objects)}


# (module, function, layer, counter).  A call's counts say how much work it
# did; a layer's time per object is charged to the calls that count objects
# (see SpanTree.per_object).
WRAPPED = [
    ("kitti_io", "parse_calib", "kitti_io.parse", _zero),
    ("kitti_io", "parse_detections", "kitti_io.parse", _rows_returned),
    ("kitti_io", "parse_properties", "kitti_io.parse", _rows_returned),
    ("kitti_io", "parse_labels", "kitti_io.parse", _rows_returned),
    ("kitti_io", "write_labels", "kitti_io.write", _rows_given),
    ("properties", "decode_dimensions", "properties.decode", _one),
    ("properties", "decode_cbf", "properties.decode", _zero),
    ("properties", "decode_local_angle", "properties.decode", _zero),
    ("properties", "global_from_local", "properties.decode", _zero),
    ("properties", "alpha_from_local", "properties.decode", _zero),
    ("solver", "solve_cascaded", "solver", _one),
    ("solver", "initial_location", "solver", _one),
    ("solver", "lift_batch", "solver", _batch),
    ("solver", "gauss_newton_refine", "solver.refine", _refined),
    ("depuration", "depurate", "depuration.depurate", _depurated),
    ("metrics", "match_frame", "metrics.match", _matched),
    ("metrics", "average_precision", "metrics.ap_aos", _one),
    ("metrics", "aos_and_os", "metrics.ap_aos", _one),
    ("metrics", "dimension_error", "metrics.dim_error", _one),
    ("synthetic", "generate_scene", "synthetic.generate", _generated),
]


@dataclass
class Span:
    name: str          # "module.function", or "cli.<command>" for a command
    layer: str
    parent: int        # index of the enclosing span, -1 at the top
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Spans kept in memory, in the order their calls began."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.absent = []

    @contextmanager
    def span(self, name, layer=None):
        s = Span(name, layer or name, self._stack[-1] if self._stack else -1)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, layer, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            # self.span() inlined: this runs once per object in the hot layers
            s = Span(name, layer, stack[-1] if stack else -1)
            spans.append(s)
            stack.append(len(spans) - 1)
            s.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = clock()
                stack.pop()
            try:
                s.counts = counter(args, kwargs, result)
            except (TypeError, AttributeError, IndexError, KeyError):
                pass  # a changed signature leaves the call timed but uncounted
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, package="box3d"):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        patched = []
        present_layers = set()
        for mod_name, fn_name, layer, counter in WRAPPED:
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            present_layers.add(layer)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", layer, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        self.absent = sorted({w[2] for w in WRAPPED} - present_layers)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# turning spans into per-layer samples


class SpanTree:
    """Parent/child index over a finished list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.kids = {}
        for i, s in enumerate(spans):
            self.kids.setdefault(s.parent, []).append(i)

    def commands(self, name):
        """Indices of the top-level spans named `name` (a CLI command)."""
        return [i for i in self.kids.get(-1, []) if self.spans[i].name == name]

    def children(self, i, layer=None):
        return [j for j in self.kids.get(i, []) if layer is None or self.spans[j].layer == layer]

    def per_object(self, command, layer):
        """Seconds per object of `layer`'s calls made directly by `command`.

        Calls that count no objects (calibration parses, the decode helpers
        after the first) carry their time into the layer's next counted
        call; what is left at the end of a command goes to its last sample.
        """
        samples = []
        for c in self.commands(command):
            pending, last_n, first = 0.0, 0, len(samples)
            for i in self.children(c, layer):
                s = self.spans[i]
                pending += s.seconds
                n = s.counts.get("objs", 0)
                if n > 0:
                    samples.append(pending / n)
                    pending, last_n = 0.0, n
            if pending and len(samples) > first:
                samples[-1] += pending / last_n
        return samples

    def nested(self, top, layer):
        """Indices of the outermost `layer` spans anywhere below span `top`."""
        found, todo = [], list(self.kids.get(top, []))
        while todo:
            i = todo.pop()
            if self.spans[i].layer == layer:
                found.append(i)
            else:
                todo.extend(self.kids.get(i, []))
        return found

    def self_seconds(self, top):
        """A span's duration minus what its direct child spans cover."""
        return self.spans[top].seconds - sum(self.spans[i].seconds for i in self.kids.get(top, []))
