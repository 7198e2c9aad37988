"""Smoke test of the benchmark harness on tiny inputs (n <= 6, a few trials).

Only table1 runs at its default order, n = 10: the CLI takes no table sizes,
and table1 keeps the CLI path of the ``tables`` workload under test.

It runs every workload untraced and traced, end to end through ``run.py``,
and checks the result format and that every metric is reported. It has no
timing thresholds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=600, cwd=cwd)


def _result(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)["metrics"]
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(workload):
    metrics = _result(workload, 1)["metrics"]
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    # the workloads reach different layers; these counts are exact
    assert (metrics["matgen.sample_perturbation.calls"]["value"] > 0) == (workload == "verify")
    assert (metrics["structured.operator_materialize.calls"]["value"] > 0) == (
        workload != "normwise")
    assert (metrics["cli.main.calls"]["value"] > 0) == (workload != "normwise")
    assert metrics["structured.matvec.count"]["value"] >= (
        metrics["structured.operator_spectral_norm.matvecs"]["value"])
    if workload == "verify":
        assert metrics["verify.trials"]["value"] == (
            metrics["matgen.sample_perturbation.calls"]["value"])


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "reference"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "tables", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_check_against_reference():
    ref = {"rows": [{"n": 5, "gamma_R": 2.0, "ok": True}], "violations": 0}
    close = {"rows": [{"n": 5, "gamma_R": 2.0 * (1 + 1e-7), "ok": True}], "violations": 0}
    assert check.problems(close, ref) == []
    far = {"rows": [{"n": 5, "gamma_R": 2.0 * (1 + 1e-5), "ok": True}], "violations": 0}
    assert check.problems(far, ref)
    flipped = {"rows": [{"n": 5, "gamma_R": 2.0, "ok": False}], "violations": 0}
    assert check.problems(flipped, ref)
    assert check.problems({"rows": ref["rows"], "violations": 1}, ref)
    assert check.problems({"error": "NoConvergence"}, ref)
    expected_failure = {"error": "NoConvergence"}
    assert check.problems({"error": "NoConvergence"}, expected_failure) == []
    assert check.problems({"error": "ValueError"}, expected_failure)
    assert check.problems({"rigorous_dr": 1.0, "first_order_dr": 0.5}, expected_failure) == []
    assert check.problems({"rigorous_dr": 0.4, "first_order_dr": 0.5}, expected_failure)
    assert check.problems({"rigorous_dr": float("nan"), "first_order_dr": 0.5},
                          expected_failure)
