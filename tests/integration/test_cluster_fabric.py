"""Integration: the distributed campaign fabric under chaos (ISSUE 10).

Kill-any-process invariant, proven end to end with real coordinator +
agent subprocesses over the spool transport:

* **coordinator death** — ``kill -9`` inside a manifest checkpoint
  write; a resume re-simulates only what never reached the store;
* **host agent death** — a hard crash mid-chunk is detected, the
  chunk requeued, the agent respawned, and the campaign completes in
  the same run;
* **heartbeat partition** — a host whose heartbeats all drop keeps
  computing; its lease expires, its chunk is reassigned, and its late
  results are discarded as duplicates by hash, never double-ingested.

Every scenario ends the same way: a resume is a zero-simulation
no-op and ``campaign verify --strict`` signs off the store.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec, ExperimentSpec, plan_campaign
from repro.engine.cache import ResultCache
from repro.engine.executor import group_by_workload
from repro.faults import CRASH_EXIT_CODE

TINY = 0.05

pytestmark = pytest.mark.slow


def _tiny_spec():
    """One fig11 sweep: 12 distinct points at trivial scale."""
    return CampaignSpec(
        name="chaos-dist",
        experiments=[
            ExperimentSpec(
                name="f11",
                kind="fig11",
                params=dict(
                    scale=TINY, flip_thresholds=[6_250],
                    schemes=["mithril"], attack_seeds=[31],
                ),
            )
        ],
    )


@pytest.fixture
def harness(tmp_path):
    spec = _tiny_spec()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_CAMPAIGN_DIR"] = str(tmp_path / "campaigns")
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop("REPRO_TELEMETRY", None)
    return {
        "spec": spec,
        "spec_path": spec_path,
        "env": env,
        "tmp_path": tmp_path,
    }


def _run(harness, *extra, faults=None, check=True):
    env = dict(harness["env"])
    if faults is not None:
        plan_path = harness["tmp_path"] / "fault-plan.json"
        plan_path.write_text(json.dumps({
            "state_dir": str(harness["tmp_path"] / "fault-state"),
            "faults": faults,
        }))
        env["REPRO_FAULT_PLAN"] = str(plan_path)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "campaign", "run",
         str(harness["spec_path"]), "--hosts", "2", "--batch-size", "4",
         "--no-report", "--lease-timeout", "1", "--heartbeat", "0.2",
         *extra],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"campaign run exited {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc


def _last_run_stats(harness):
    from repro.campaigns import CampaignManifest, manifest_path

    manifest = CampaignManifest.load(
        manifest_path("chaos-dist", harness["env"]["REPRO_CAMPAIGN_DIR"])
    )
    return manifest.data["runs"][-1]


def _verify_strict(harness):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "campaign", "verify",
         str(harness["spec_path"]), "--strict", "--json"],
        env=harness["env"], capture_output=True, text=True, timeout=600,
    )
    payload = json.loads(proc.stdout)
    return proc.returncode, payload


def _settled_store_count(harness, quiet_s=1.0, timeout_s=60.0):
    """Store entry count once orphaned agents have wound down.

    After a coordinator kill the agent processes notice the dead
    parent and exit on their own, but they may finish their in-flight
    chunk first — wait for the store to go quiet before counting.
    """
    cache = ResultCache(harness["env"]["REPRO_CACHE_DIR"])
    deadline = time.monotonic() + timeout_s
    count = cache.entry_count()
    settled_at = time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.1)
        now_count = cache.entry_count()
        if now_count != count:
            count = now_count
            settled_at = time.monotonic()
        elif time.monotonic() - settled_at >= quiet_s:
            break
    return count


class TestCoordinatorDeath:
    def test_kill_mid_checkpoint_then_resume_resimulates_nothing(
        self, harness
    ):
        total = plan_campaign(_tiny_spec()).total_points

        # -- kill -9 the coordinator inside a manifest checkpoint
        # write: completed points are in the store, their completion
        # records are not.
        proc = _run(harness, check=False, faults=[
            {"site": "manifest.write", "kind": "crash",
             "hard": True, "times": 1, "match": "chaos-dist"},
        ])
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        stored = _settled_store_count(harness)
        assert 0 < stored < total

        # -- clean resume: the store turns every point simulated
        # before the kill into a cache hit.
        _run(harness)
        stats = _last_run_stats(harness)
        assert stats["distributed"] is True
        assert stats["simulated"] == total - stored
        assert stats["simulated"] + stats["previously_complete"] + \
            stats["cache_hits"] == total

        # -- a further rerun is a zero-work, zero-process no-op
        proc = _run(harness)
        stats = _last_run_stats(harness)
        assert stats["submitted"] == 0
        assert stats["simulated"] == 0
        assert "cluster:" not in proc.stdout  # no agents spawned
        code, audit = _verify_strict(harness)
        assert code == 0, audit
        assert audit["verified"] == total


class TestHostAgentDeath:
    def test_agent_crash_is_detected_requeued_and_respawned(
        self, harness
    ):
        total = plan_campaign(_tiny_spec()).total_points

        # one agent takes a hard crash mid-chunk; the campaign must
        # absorb it in the same run
        proc = _run(harness, faults=[
            {"site": "worker.execute", "kind": "crash",
             "hard": True, "times": 1},
        ])
        assert "process exited" in proc.stdout
        stats = _last_run_stats(harness)
        assert stats["distributed"] is True
        assert stats["hosts_lost"] >= 1
        assert stats["hosts_restarted"] >= 1
        assert stats["reassigned"] >= 1

        _run(harness)
        assert _last_run_stats(harness)["simulated"] == 0
        code, audit = _verify_strict(harness)
        assert code == 0, audit
        assert audit["verified"] == total


class TestHeartbeatPartition:
    def test_partitioned_host_expires_and_late_results_discard(
        self, harness
    ):
        """Host 2's heartbeats all drop while a hang stretches its
        chunk past the lease: the chunk reassigns to host 1, and when
        host 2 finally reports, every one of its results is a late
        duplicate discarded by hash."""
        plan = plan_campaign(_tiny_spec())
        total = plan.total_points
        # chunks are dealt in workload-grouped plan order: host 1
        # gets jobs [0:4], host 2 gets jobs [4:8] — hang host 2's
        # first job only
        dealt = group_by_workload(
            list(plan.jobs), lambda job_hash: plan.jobs[job_hash].workload
        )
        victim = dealt[4]

        proc = _run(harness, faults=[
            {"site": "host.heartbeat", "kind": "drop",
             "match": "2", "times": None},
            {"site": "worker.execute", "kind": "hang",
             "seconds": 2.0, "match": victim, "times": 1},
        ])
        assert "lease expired" in proc.stdout
        stats = _last_run_stats(harness)
        assert stats["distributed"] is True
        assert stats["hosts_lost"] >= 1
        assert stats["reassigned"] >= 1
        assert stats["duplicate_results"] >= 1
        assert stats["quarantined"] == 0

        _run(harness)
        assert _last_run_stats(harness)["simulated"] == 0
        code, audit = _verify_strict(harness)
        assert code == 0, audit
        assert audit["verified"] == total
        assert audit["duplicates"] == []  # store stayed exactly-once
