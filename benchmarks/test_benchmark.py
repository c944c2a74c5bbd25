"""Smoke test of the benchmark itself, at one second per run.

    python3 -m pytest -q benchmarks

It checks the result line against BENCHMARK.json, the zero/non-zero pattern
of the per-layer metrics on each workload, and that a tree without the
package source fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def values(result: dict, section: str) -> dict[str, float]:
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    got = result["metrics"]
    assert set(got) == set(spec)
    for name, metric in got.items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == spec[name]
    return {name: metric["value"] for name, metric in got.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_are_all_reported_and_nonzero(workload):
    metrics = values(result_of(bench(workload, 0)), "end_to_end")
    assert all(v > 0 for v in metrics.values()), metrics


def test_traced_train_run_splits_backward_and_skips_viterbi():
    metrics = values(result_of(bench("train_toy", 1)), "per_layer")
    assert metrics["decoders.viterbi_s"] == 0
    for name in ("autodiff.backward_s", "autodiff.graph_nodes", "optim.adam_step_s",
                 "encoder.encode_bwd_s", "interaction.ffn_fuse_bwd_s",
                 "decoders.log_partition_bwd_s", "data.make_batches_s"):
        assert metrics[name] > 0, name


def test_traced_predict_run_has_no_backward_or_optimizer():
    metrics = values(result_of(bench("predict_base", 1)), "per_layer")
    for name, value in metrics.items():
        if name.startswith(("autodiff.", "optim.")) or name.endswith("_bwd_s"):
            assert value == 0, name
    for name in ("decoders.viterbi_s", "checkpoint.save_s", "checkpoint.load_s",
                 "metrics.evaluate_s", "data.pad_fraction"):
        assert metrics[name] > 0, name


def test_exact_counts_repeat_for_the_same_seed():
    first = values(result_of(bench("train_toy", 1)), "per_layer")
    second = values(result_of(bench("train_toy", 1)), "per_layer")
    for name in ("autodiff.graph_nodes", "autodiff.activation_mb", "data.pad_fraction"):
        assert first[name] == second[name], name


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("train_toy", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
