"""The benchmark's own checks: they must reject bad output and survive refactors."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def golden_plan(tmp_path_factory):
    case = gen.golden_ladder(BENCH_DIR.parent / "scenarios" / "golden.json", tmp_path_factory.mktemp("golden"), nodes=(50,))[0]
    _, _, _, outputs = workloads._run_plan(case, tracing.NullTracer())
    return case, outputs


def test_plan_check_accepts_the_golden_plan(golden_plan):
    case, (scenario, result, table, audit, baselines) = golden_plan
    assert checks.check_plan(case, scenario, result, table, audit, workloads.AUDIT_FACTOR, baselines) == []


def test_plan_check_rejects_golden_tf_raised_by_one_percent(golden_plan):
    case, (scenario, result, table, audit, baselines) = golden_plan
    slow = replace(result, t_f=result.t_f * 1.01)
    problems = checks.check_plan(case, scenario, slow, table, audit, workloads.AUDIT_FACTOR, baselines)
    assert any("above the expected" in p for p in problems)


def test_missing_binding_counts_zero(monkeypatch):
    monkeypatch.setattr(
        tracing, "BINDINGS", tracing.BINDINGS + (("threatnav.planner", "Gone.method", "planner.gone"),)
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["threatnav.planner.Gone.method"]
    assert tracer.totals().get("planner.gone") is None


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    summary = metrics.summarize([workloads.OpRecord("sweep", "x", repeat_seconds=[1.0], attempts=1, classified=1)], [], 1.0)
    layers = metrics.per_layer(tracing.Tracer(), summary, summary, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(metrics.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _) in layers.items()}
