"""Tests of the benchmark harness itself, on the tiny smoke grids.

Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]

assert run.add_source_path(), "run the harness tests from a checkout with src/pkmforge"


def _smoke(name, tmp_path, seed=workloads.DEFAULT_SEED):
    return workloads.WORKLOADS[name](seed, True, tmp_path)


def test_declared_workloads_are_the_harness_workloads():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run_emits_every_declared_metric(capsys, name, trace):
    argv = ["--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, stamp = json.loads(lines[-1]), json.loads(lines[-2])["stamp"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())
    assert set(stamp["samples"]) == set(emitted)
    assert stamp["seed"] == 7 and stamp["nproc"] >= 1 and stamp["numpy"]


def _shift_anchor(output):
    output["criteria"]["kinematic"]["index_max"][0] += 1
    return output


def _other_design(output):
    output["design_sha256"] = "0" * 64
    return output


def _nan_fine_value(output):
    output["fine_value"] = float("nan").hex()
    return output


def _shift_threshold_anchor(output):
    output["cubes"][3]["index_max"] = [i + 1 for i in output["cubes"][3]["index_max"]]
    output["cubes"][3]["index_min"] = [i + 1 for i in output["cubes"][3]["index_min"]]
    return output


def _reverse_edges(output):
    output["cubes"].reverse()
    return output


CORRUPTIONS = [
    ("report-49", _shift_anchor),
    ("synth-c7", _other_design),
    ("synth-c7", _nan_fine_value),
    ("thresholds-145", _shift_threshold_anchor),
    ("thresholds-145", _reverse_edges),
]


@pytest.mark.parametrize("name, corrupt", CORRUPTIONS)
def test_corrupted_output_counts_as_failed_operation(tmp_path, name, corrupt):
    workload = _smoke(name, tmp_path)
    assert workload.check(workload.output(workload.run())) == []

    honest = workload.output
    workload.output = lambda raw: corrupt(honest(raw))
    walls, scaled, attempted, failed = run.run_ops(workload, 0.0)
    assert (len(walls), len(scaled), attempted, failed) == (1, 1, 1, 1)


def test_raising_operation_counts_as_failed(tmp_path):
    workload = _smoke("thresholds-145", tmp_path)

    def broken(previous, span):
        raise TypeError("deliberate")

    workload.phases = lambda: (broken,)
    assert run.run_ops(workload, 0.0)[2:] == (1, 1)


def test_synth_gate_checks_invariants_on_a_seed_without_reference(tmp_path):
    workload = _smoke("synth-c7", tmp_path, seed=11)
    output = workload.output(workload.run())
    assert workload.check(output) == []
    assert workload.check(_nan_fine_value(dict(output)))


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    with tracer.operation():
        with tracer.span("outer"):
            time.sleep(0.01)
            with tracer.span("inner"):
                time.sleep(0.02)
    op, outer, inner = tracer.spans
    self_times = tracer.self_times()
    assert outer.parent == 0 and inner.parent == 1
    assert self_times[1] == outer.duration - inner.duration
    assert self_times[2] == inner.duration
    assert self_times[0] == op.duration - outer.duration


def test_wrappers_record_only_inside_operations_and_uninstall_cleanly():
    from pkmforge import cli, grid, optimize, stiffness

    originals = (grid.evaluate_mask, cli.largest_cuboid, optimize.pattern_search, stiffness.ScalarField)
    tracer = tracing.Tracer()
    sites = tracing.CallSites(tracer)
    sites.install()
    try:
        assert grid.evaluate_mask is not originals[0]
        workload = workloads.ThresholdsWorkload(1, True, Path("."))
        workload.run()
        assert tracer.spans == []
        with tracer.operation():
            workload.run()
        names = {span.name for span in tracer.spans}
        assert {"grid.evaluate_mask", "grid.largest_cuboid", "field.condition"} <= names
    finally:
        sites.uninstall()
    assert (grid.evaluate_mask, cli.largest_cuboid, optimize.pattern_search, stiffness.ScalarField) == originals


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    argv = ["bench/run.py", "--workload", "report-49", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
