"""Tests of the benchmark itself.

Every workload runs at a smoke size (``--scale 0.05``) through the same
code path as a measured run, as a separate process exactly as the
benchmark is invoked.  Run with ``python -m pytest perfbench/tests``
from the repository root (about two minutes).
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402

WORKLOADS = ("lockstep", "event-loop", "numerics")

# counts that must repeat bit for bit on one seed, and the workload
# that exercises each (elsewhere they are zero)
EXACT_COUNTS = {
    "clocks.events": "event-loop",
    "processes.events": "event-loop",
    "engines.branching_replicas.events": "event-loop",
    "experiments.critical_estimate.forward.evals": "lockstep",
    "experiments.critical_estimate.dual.evals": "event-loop",
    "walk.hitting_table.classes": "numerics",
    "moments.q_nnz": "numerics",
}


def run_bench(workload, seed, trace, cwd=ROOT, timeout=300):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_and_record(workload, seed, trace):
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


@pytest.fixture(scope="module")
def traced():
    """Two traced smoke runs of every workload on seed 0."""
    return {w: [result_and_record(w, 0, 1) for _ in range(2)] for w in WORKLOADS}


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert all(m["better"] == "lower" and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == metrics.PER_LAYER
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == metrics.unit_of(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_every_prediction_names_known_metrics_and_workloads():
    e2e = set(metrics.END_TO_END) | {"none"}
    for names, moves, on, unchanged in metrics.PREDICTIONS:
        assert names and set(moves.split(",")) <= e2e
        assert on in WORKLOADS + ("all",) and set(unchanged) <= set(WORKLOADS) - {on}
    assert len(set(metrics.PER_LAYER)) == len(metrics.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_pass_and_emits_every_per_layer_metric(traced, workload):
    for result, record in traced[workload]:
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == metrics.PER_LAYER
        assert all(m["unit"] == metrics.unit_of(k)[0] for k, m in result["metrics"].items())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_tree_is_well_formed(traced, workload):
    for _, record in traced[workload]:
        spans = {s["id"]: s for s in record["spans"]}
        roots = [s for s in spans.values() if s["parent"] is None]
        assert [r["name"] for r in roots] == ["run"]
        assert len({s["run_id"] for s in spans.values()}) == 1
        for s in spans.values():
            assert s["end"] >= s["start"]
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        passes = [s for s in spans.values() if s["name"] == "workload"]
        assert passes and all(spans[p["parent"]]["name"] == "run" for p in passes)
        assert 0.95 <= record["per_layer"]["trace.coverage"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs(traced, workload):
    (first, _), (second, _) = traced[workload]
    for name, home in EXACT_COUNTS.items():
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        assert a == b, name
        assert (a > 0) == (home == workload), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_on_another_seed(workload):
    result, record = result_and_record(workload, 1, 0)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == metrics.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["provenance"]["seed"] == 1 and record["provenance"]["src_tocp_loc"] > 0
    # wall_cal is the raw pass time over the calibration loop time
    assert record["wall_s"]["value"] > 0 and record["calibration_s"]["value"] > 0
    assert all(w > 1 for w in record["end_to_end"]["wall_cal"]["samples"])


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("lockstep", 0, 0, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
