"""Tests of the benchmark itself: short mode of every workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done


def result(workload: str, trace: int, seed: int = 3) -> dict:
    done = run(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_labels_every_metric_with_its_clock():
    for kind in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[kind]:
            assert SPEC["metrics"][metric["name"]]["clock"] in ("wall", "modeled", "none")
    assert SPEC["metrics"]["library_modeled_gflops"]["clock"] == "modeled"
    for name in WORKLOADS:
        conf = SPEC["workloads"][name]
        assert conf["why"] and conf["layers"] and conf["avoids"]
        if name.startswith("serve-"):
            # a fixed rate well below the seed's capacity, so the queue drains
            assert 0.05 <= conf["offered_rps"] / conf["seed_capacity_rps"] <= 0.3
            assert conf["rate_reason"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = result(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]
    assert "failed_share 0 " in run(workload, 0).stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    out = result(workload, 1)
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    # the layer-sum check of the traced run
    assert abs(metrics["unattributed_share"]) <= 0.10
    assert metrics["search.units"] > 0 and metrics["jit.kernel_us"] > 0
    if workload == "serve-chain":
        assert 0 < metrics["chain.fused_share"] < 1
        assert metrics["dist.split_us"] > 0
    if workload == "serve-small":
        assert metrics["serve.packed_share"] > 0


def test_modeled_gflops_repeats_exactly_across_runs():
    first = result("serve-kernel", 0)["metrics"]["library_modeled_gflops"]["value"]
    again = result("serve-kernel", 0, seed=4)["metrics"]["library_modeled_gflops"]["value"]
    assert first == again


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("serve-kernel", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_reports_its_support():
    from harness import tail

    stats = tail([float(i) for i in range(1, 101)])
    assert stats["n"] == 100 and stats["beyond"] == 10
    assert stats["p50"] == pytest.approx(50.5)
