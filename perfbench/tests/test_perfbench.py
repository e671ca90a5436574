"""Self-test of the benchmark: tiny runs of every workload, fixed request
order per seed, the tracer's restore, and the refusal to run without the
program's sources.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layertrace  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_request_order_fixed_per_seed(name):
    draw = workloads.WORKLOADS[name].draw
    first = [draw(7, i) for i in range(6)]
    assert first == [draw(7, i) for i in range(6)]
    assert first != [draw(8, i) for i in range(6)]


def test_tracer_restores_wrapped_functions():
    import importlib
    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _ in layertrace.WRAPPED}
    with layertrace.Tracer().installed():
        assert all(getattr(importlib.import_module(m), a) is not fn
                   for (m, a), fn in before.items())
    assert all(getattr(importlib.import_module(m), a) is fn
               for (m, a), fn in before.items())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(tmp_path, "cold_sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
