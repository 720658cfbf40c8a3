"""The benchmark's own tests, at tiny input sizes.

    python3 -m pytest perfbench -q

They run the real driver (``run.py --size tiny``) in subprocesses, so
they check the published contract: every metric named in
BENCHMARK.json is emitted under that name with its unit, the gate
passes on this tree, and a store entry corrupted on purpose is
counted as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    """(exit code, stdout lines) of one driver run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def tiny_result(workload, trace, *extra):
    code, lines = bench(
        "--workload", workload, "--seed", "0", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny", *extra,
    )
    assert code == 0, lines
    return json.loads(lines[-1])


def test_benchmark_json_names_the_driver_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    for group, units in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        for metric in SPEC[group]:
            assert metric["unit"] == units[metric["name"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(child.WORKLOADS)


@pytest.mark.parametrize("workload", child.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = tiny_result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"].pop(metric["name"])
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
    assert result["metrics"] == {}


@pytest.mark.parametrize("workload", child.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = tiny_result(workload, 1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert metrics["failed_frac"]["value"] == 0
    assert metrics["sim.events"]["value"] > 0
    assert metrics["host.calib_s"]["value"] > 0
    if workload == "campaign-cold":
        assert metrics["workloads.build_calls"]["value"] > 0
        assert metrics["point.count"]["value"] > 0
    if workload == "store-warm":
        assert metrics["store.hit_ratio"]["value"] == 1.0
        assert metrics["workloads.build_calls"]["value"] == 0
    if workload == "campaign-pool":
        assert metrics["pool.run_s"]["value"] > 0


def test_corrupted_store_entry_counts_as_failure():
    result = tiny_result("store-warm", 0, "--inject-corruption", "1")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "campaign-cold", "--seed", "0",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_default_seed_reproduces_the_builtin_seeds():
    from repro.campaigns.spec import PAPER_SCALE_ATTACK_SEEDS
    from repro.speed import _PAIRS

    for seed in range(5):
        params = child.campaign_spec(seed, "full").experiments[0].params
        assert params["attack_seeds"] == [PAPER_SCALE_ATTACK_SEEDS[seed]]
    jobs = child.drain_jobs(0, 1.0)
    assert [job.workload.as_dict()["seed"] for job in jobs] == [
        params["seed"] for _kind, params, _scheme in _PAIRS["medium"]
    ]


def test_self_time_excludes_child_spans():
    trace = tracer.Tracer("unit")

    def inner():
        time.sleep(0.02)

    wrapped_inner = trace.wrap("inner", inner, record=False)

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    trace.run_root("root", trace.wrap("outer", outer))
    assert trace.calls["inner"] == 2
    assert trace.self_s["inner"] == pytest.approx(trace.total_s["inner"])
    assert trace.self_s["outer"] == pytest.approx(
        trace.total_s["outer"] - trace.total_s["inner"]
    )
    assert trace.self_s["root"] < trace.self_s["outer"]
    recorded = [span for span in trace.spans if span is not None]
    names = {span[0]: span[1] for span in recorded}
    by_name = {span[1]: span for span in recorded}
    assert names[by_name["outer"][4]] == "root"
    assert all(span[5] == "unit" for span in recorded)
