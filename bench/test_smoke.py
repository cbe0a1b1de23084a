"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest -q bench/test_smoke.py

It checks what the benchmark prints against BENCHMARK.json and that the
output checks ran; it sets no timing bound.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_CHECKS = {
    "sparse_refine": {"rows", "tight_fit", "depuration", "eval"},
    "crowded_eval": {"rows", "tight_fit", "depuration", "injected_removed", "eval"},
    "closed_form": {"rows", "closed_form", "depuration", "eval"},
}


def bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: w.why for n, w in run.WORKLOADS.items()}
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--frames", "20",
                "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    *_, info_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    info = json.loads(info_line)["bench"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * info["detections_per_round"] > 0

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert info["directions"] == {m["name"]: m["better"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    assert set(info["checks"]) == EXPECTED_CHECKS[workload]
    for key in ("git_sha", "python", "numpy", "nproc", "threads", "seed"):
        assert key in info
    assert info["seed"] == 3 and all(v == "1" for v in info["threads"].values())
    if trace:
        assert info["absent"] == []
        assert (result["metrics"]["solver.refined_objs"]["value"] == 0) == (workload == "closed_form")
    else:
        assert 0 < result["metrics"]["aos"]["value"] <= result["metrics"]["ap3d"]["value"] <= 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench(tmp_path, "--workload", "sparse_refine", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_missing_function_is_reported_absent(monkeypatch):
    pkg = "fakebox"
    solver = types.ModuleType(f"{pkg}.solver")
    solver.lift_batch = lambda rows: list(rows)  # a batched lift, no per-object refine
    monkeypatch.setitem(sys.modules, pkg, types.ModuleType(pkg))
    monkeypatch.setitem(sys.modules, f"{pkg}.solver", solver)
    tracer = Tracer()
    with tracer.installed(pkg):
        assert solver.lift_batch([1, 2, 3]) == [1, 2, 3]
    assert solver.lift_batch.__name__ == "<lambda>"  # the original is back
    assert tracer.spans[0].name == "solver.lift_batch" and tracer.spans[0].counts == {"objs": 3}
    assert "solver.refine" in tracer.absent and "solver" not in tracer.absent
