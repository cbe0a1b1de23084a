"""A fixed reference job that measures how fast the machine runs right now.

The machine is shared with other tenants. For minutes at a time everything
on it runs up to twice as slowly, a plain Python loop included. The benchmark
times this job between the measured commands and scales their times to a
machine on which the job takes ``REF_S`` seconds.

The job is the benchmark's own code, so no change to box3d alters it. Its mix
follows the pipeline's: about 40% pure-Python geometry on tuples (as in
polygon clipping), 35% small numpy solves (as in Gauss-Newton steps) and 25%
text formatting, parsing and file rewriting (as in the CLI's I/O).
"""

import math
import time
from pathlib import Path

import numpy as np

# Seconds the job takes on the 2-core sandbox the benchmark was written on,
# while its host is quiet.
REF_S = 0.04


def _clip(poly, a, b):
    ex, ez = b[0] - a[0], b[1] - a[1]
    out = []
    for i, cur in enumerate(poly):
        nxt = poly[(i + 1) % len(poly)]
        sc = ex * (cur[1] - a[1]) - ez * (cur[0] - a[0])
        sn = ex * (nxt[1] - a[1]) - ez * (nxt[0] - a[0])
        if sc >= 0:
            out.append(cur)
        if sc * sn < 0:
            t = sc / (sc - sn)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def _rect(x, z, yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    return [(x + ox * c + oz * s, z - ox * s + oz * c)
            for ox, oz in ((1.9, 0.8), (-1.9, 0.8), (-1.9, -0.8), (1.9, -0.8))]


def _python_part(n=1100):
    vertices = 0
    for i in range(n):
        poly, clip = _rect(0.0, 10.0, 0.1 * i), _rect(0.5, 10.3, 0.07 * i)
        for k in range(4):
            poly = _clip(poly, clip[k], clip[(k + 1) % 4])
        vertices += len(poly)
    return vertices


def _numpy_part(n=750):
    rng = np.random.default_rng(0)
    jac, res = rng.uniform(-1.0, 1.0, (n, 4, 3)), rng.uniform(-1.0, 1.0, (n, 4))
    for J, r in zip(jac, res):
        np.linalg.solve(J.T @ J + np.eye(3), J.T @ r)


def _file_part(scratch: Path, n=14):
    scratch.mkdir(parents=True, exist_ok=True)
    rows = np.random.default_rng(0).uniform(-50.0, 50.0, (30, 16))
    for i in range(n):
        path = scratch / f"{i:06d}.txt"
        path.write_text("".join(" ".join(f"{v:.6f}" for v in r) + "\n" for r in rows))
        [[float(v) for v in ln.split()] for ln in path.read_text().splitlines()]


def reference_seconds(scratch: Path) -> float:
    """Wall seconds of one run of the reference job.

    The job rewrites its files in `scratch`, as the measured rounds rewrite
    theirs; the first call creates them and should not be used."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    _file_part(scratch)
    return time.perf_counter() - t0
