"""Smoke test of the committed benchmark: each workload runs one short pass
from the repo root, checks its answers and prints every declared metric."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details["details"], result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_and_checks_its_answers(workload):
    _, result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_traced_run_measures_the_sum_passes():
    # The tracer splits the sum passes by wrapping inference.eliminate by
    # name; a renamed loop would report them as unmeasured zeros.
    details, result = _run("sat-circuit", trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert "inference.sum_e1e2.self_s" not in details["unmeasured"]
    assert result["metrics"]["inference.sum_e1e2.self_s"]["value"] > 0


def test_every_traced_layer_function_resolves():
    # The tracer reports a layer whose wrapped name is gone as an unmeasured
    # 0 instead of failing, so a rename in the package must fail here. It
    # wraps the passes (inference.eliminate) and the target joint
    # (factor.multiply_all) by name outside LAYER_FUNCTIONS.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [("unitsel.inference", "eliminate"), ("unitsel.factor", "multiply_all")]
    missing = [
        f"{module}.{name}"
        for targets in [*tracing.LAYER_FUNCTIONS.values(), wrapped]
        for module, name in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_committed_bench_records_name_declared_workloads_and_metrics():
    # The BENCH_*.json files carry the performance trend across changes; a
    # record that names a workload or an end-to-end metric the benchmark does
    # not declare can no longer be read against the others.
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert {"change", "command", "protocol", "workloads"} <= set(record), path.name
        assert set(record["workloads"]) <= workloads, path.name
        for name, entry in record["workloads"].items():
            for field in ("parent", "change", "parent_quartiles", "change_wins"):
                assert set(entry.get(field, {})) <= metrics, (path.name, name, field)
