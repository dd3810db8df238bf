"""The benchmark's own tests: its output contract and its failure gate.

Run from the repository root::

    python3 -m pytest spawnbench/tests -q

The tiny runs start the whole benchmark (every mechanism, every round)
and take a few minutes in total.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import ops  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("spawnbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    config = benchmark_json()
    assert [(m["name"], m["unit"], m["better"])
            for m in config["end_to_end"]] == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in config["per_layer"]] == spec.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(spec.WORKLOADS)
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    config = benchmark_json()
    proc = run_bench("--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = config["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "spawnbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "noop", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


WRONG = {
    "failing child": ops.Shape(("/bin/false",), None, 1),
    "wrong payload": ops.Shape(("/bin/echo", "abc"), b"xyz\n", 1),
}


@pytest.mark.parametrize("mech", ["posix_spawn", "forkserver",
                                  "spawn_batch", "xproc", spec.REFERENCE])
@pytest.mark.parametrize("case", sorted(WRONG))
def test_a_wrong_result_counts_as_failed_not_as_a_sample(mech, case):
    per_op = ops.children_per_op(mech)
    try:
        loop = worker.closed_loop(ops.make_op(mech, WRONG[case]), 1, 0.0,
                                  per_op)
    finally:
        ops.shutdown_services()
    assert loop.samples == []
    assert loop.attempted == worker.MIN_OPS * per_op
    assert loop.failed == loop.attempted
    assert loop.errors


def test_end_to_end_metrics_are_multiples_of_the_yardstick():
    import run
    merged = {mech: {"untraced_ns": [1000 * (index + 2)] * 3,
                     "setup_s": [0.1, 0.2, 0.3], "attempted": 4,
                     "failed": 0}
              for index, mech in enumerate(spec.MECHS)}
    merged[spec.REFERENCE] = {"untraced_ns": [1000, 2000, 3000],
                              "setup_s": [], "attempted": 4, "failed": 1}
    metrics = run.end_to_end(merged)
    assert [(name, unit) for name, unit, _ in spec.END_TO_END] == [
        (name, run.UNITS[name]) for name in metrics]
    for index, mech in enumerate(spec.MECHS):
        assert metrics[f"{mech}.p50_vs_raw"] == (index + 2) / 2
    assert metrics["setup_s"] == pytest.approx(0.2 * len(spec.MECHS))
    assert metrics["success_ratio"] == 1 - 1 / (4 * len(merged))


def test_a_correct_child_is_a_sample():
    shape = ops.make_shape("piped-c2", 3)
    loop = worker.closed_loop(ops.make_op("posix_spawn", shape), 2, 0.0, 1)
    assert loop.failed == 0 and loop.attempted == 2 * worker.MIN_OPS
    assert len(loop.samples) == loop.attempted
    assert all(len(spans) == 4 for spans in loop.samples)


def test_payload_is_seeded_and_64_bytes():
    assert ops.payload(5) == ops.payload(5) != ops.payload(6)
    assert len(ops.payload(5).encode()) == ops.PAYLOAD_BYTES == 64
