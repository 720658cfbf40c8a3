"""Integration: end-to-end crash/torn-write recovery (ISSUE 7).

These tests kill a real ``repro campaign run`` subprocess at the
worst possible moments — between the temp write and the rename of a
manifest checkpoint, and mid-store-entry write — then resume and
assert the two acceptance invariants:

* **zero re-simulated completed points** — everything simulated
  before the kill is served from the store on resume (the manifest
  and cache agree);
* **zero corrupt survivors** — every torn/corrupt file ends up in a
  ``quarantine/`` directory, never satisfying a read, and
  ``campaign verify --strict`` signs off the healed store.

The kills are injected through the deterministic fault harness
(``REPRO_FAULT_PLAN``, docs/FAULTS.md) with ``hard: true``, which is
``os._exit(CRASH_EXIT_CODE)`` — indistinguishable from ``kill -9``
at the moment of the write.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignSpec,
    ExperimentSpec,
    plan_campaign,
    verify_campaign,
)
from repro.engine.cache import ResultCache
from repro.faults import CRASH_EXIT_CODE

TINY = 0.05

pytestmark = pytest.mark.slow


def _tiny_spec():
    """One fig11 sweep: 12 distinct points at trivial scale."""
    return CampaignSpec(
        name="chaos-test",
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
    """Spec file + isolated env for driving the CLI as a subprocess."""
    spec = _tiny_spec()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_CAMPAIGN_DIR"] = str(tmp_path / "campaigns")
    env.pop("REPRO_FAULT_PLAN", None)
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
         str(harness["spec_path"]), "--batch-size", "4", "--no-report",
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
        manifest_path("chaos-test", harness["env"]["REPRO_CAMPAIGN_DIR"])
    )
    return manifest.data["runs"][-1]


def _verify(harness):
    return verify_campaign(
        harness["spec"],
        directory=harness["env"]["REPRO_CAMPAIGN_DIR"],
        cache_dir=harness["env"]["REPRO_CACHE_DIR"],
    )


class TestKillMidManifestWrite:
    def test_resume_resimulates_nothing_already_stored(self, harness):
        total = plan_campaign(_tiny_spec()).total_points
        cache = ResultCache(harness["env"]["REPRO_CACHE_DIR"])

        # -- kill -9 in the write window of the 2nd manifest
        # checkpoint: batch 1 and 2 are in the store, but only batch 1
        # made it into the manifest.
        proc = _run(harness, check=False, faults=[
            {"site": "manifest.write", "kind": "crash",
             "hard": True, "times": 1, "match": "chaos-test"},
        ])
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        stored_before_resume = cache.entry_count()
        assert 0 < stored_before_resume < total

        # -- clean resume: completes, and every point that reached the
        # store before the kill is a cache hit, not a simulation.
        proc = _run(harness)
        stats = _last_run_stats(harness)
        assert stats["simulated"] == total - stored_before_resume
        assert stats["cache_hits"] >= 0
        assert stats["simulated"] + stats["previously_complete"] + \
            stats["cache_hits"] == total

        # -- exactly-once: store audit is clean, and a further rerun
        # is a complete noop.
        audit = _verify(harness)
        assert audit["ok"], audit
        assert audit["verified"] == total
        assert audit["duplicates"] == []
        _run(harness)
        stats = _last_run_stats(harness)
        assert stats["submitted"] == 0
        assert stats["simulated"] == 0

    def test_hard_kill_leaves_no_orphan_worker(self, harness):
        """With ``--jobs 2`` one pool serves every batch, so its workers
        sit idle between checkpoints.  A kill -9 of the campaign process
        there must not orphan them: they would hold the captured
        stdout/stderr pipes open and ``subprocess.run`` would wait out
        its whole timeout.  The resume then re-simulates nothing that
        reached the store."""
        import time

        total = plan_campaign(_tiny_spec()).total_points
        cache = ResultCache(harness["env"]["REPRO_CACHE_DIR"])
        start = time.monotonic()
        proc = _run(harness, "--jobs", "2", check=False, faults=[
            {"site": "manifest.write", "kind": "crash",
             "hard": True, "times": 1, "match": "chaos-test"},
        ])
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        assert time.monotonic() - start < 120
        stored_before_resume = cache.entry_count()
        assert 0 < stored_before_resume < total

        _run(harness, "--jobs", "2")
        stats = _last_run_stats(harness)
        assert stats["simulated"] == total - stored_before_resume
        audit = _verify(harness)
        assert audit["ok"], audit
        assert audit["verified"] == total

    def test_torn_manifest_recovers_from_prev_rotation(self, harness):
        """A torn manifest primary costs at most one batch of
        completion records: load quarantines the torn file, falls back
        to ``manifest.json.prev`` (rotated on every checkpoint), and
        the resumed campaign converges with zero re-simulation."""
        from repro.campaigns import CampaignManifest, run_campaign

        spec = _tiny_spec()
        total = plan_campaign(spec).total_points
        campaign_root = (
            Path(harness["env"]["REPRO_CAMPAIGN_DIR"]) / "chaos-test"
        )
        run_campaign(
            spec,
            directory=harness["env"]["REPRO_CAMPAIGN_DIR"],
            cache_dir=harness["env"]["REPRO_CACHE_DIR"],
            batch_size=4,
        )
        manifest_file = campaign_root / "manifest.json"
        prev_file = campaign_root / "manifest.json.prev"
        assert prev_file.exists()  # rotated during the checkpoints

        # tear the primary the way a non-atomic writer would
        good = manifest_file.read_text()
        manifest_file.write_text(good[: len(good) // 2])

        manifest = CampaignManifest.load(manifest_file)
        assert manifest is not None  # .prev adopted
        assert any(
            "manifest.json.prev" in note
            for note in manifest.data.get("notes") or []
        )
        quarantine = campaign_root / "quarantine"
        assert any(quarantine.glob("manifest.json*"))

        # resume: at most the last batch is re-checked, all of it
        # from the store — zero re-simulated points.
        result = run_campaign(
            spec,
            directory=harness["env"]["REPRO_CAMPAIGN_DIR"],
            cache_dir=harness["env"]["REPRO_CACHE_DIR"],
            batch_size=4,
        )
        assert result.complete
        assert result.stats.simulated == 0
        audit = _verify(harness)
        assert audit["ok"], audit
        assert audit["verified"] == total

    def test_unrecoverable_manifest_restarts_but_stays_warm(
        self, harness
    ):
        """Both manifest copies gone: the campaign restarts from
        scratch, but the store still turns every completed point into
        a cache hit — re-planned work is never re-simulated."""
        from repro.campaigns import run_campaign

        spec = _tiny_spec()
        campaign_root = (
            Path(harness["env"]["REPRO_CAMPAIGN_DIR"]) / "chaos-test"
        )
        run_campaign(
            spec,
            directory=harness["env"]["REPRO_CAMPAIGN_DIR"],
            cache_dir=harness["env"]["REPRO_CACHE_DIR"],
            batch_size=4,
        )
        (campaign_root / "manifest.json").write_text("garbage{")
        (campaign_root / "manifest.json.prev").unlink()
        result = run_campaign(
            spec,
            directory=harness["env"]["REPRO_CAMPAIGN_DIR"],
            cache_dir=harness["env"]["REPRO_CACHE_DIR"],
            batch_size=4,
        )
        assert result.complete
        assert result.stats.simulated == 0
        assert result.stats.cache_hits == result.stats.submitted


class TestQuarantineLifecycle:
    def test_poison_point_quarantines_skips_then_heals(
        self, harness, monkeypatch
    ):
        """A poison job is quarantined with diagnostics instead of
        aborting; resumes skip it until --retry-quarantined, after
        which a clean environment heals the campaign completely."""
        from repro.campaigns import run_campaign
        from repro.faults import FAULT_PLAN_ENV

        spec = _tiny_spec()
        plan = plan_campaign(spec)
        poison = sorted(plan.jobs)[0]
        kwargs = dict(
            directory=harness["env"]["REPRO_CAMPAIGN_DIR"],
            cache_dir=harness["env"]["REPRO_CACHE_DIR"],
            batch_size=4,
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
            "faults": [{"site": "worker.execute", "kind": "error",
                        "match": poison, "times": None}],
        }))
        result = run_campaign(spec, max_retries=1, **kwargs)
        assert not result.complete
        assert set(result.quarantined) == {poison}
        record = result.quarantined[poison]
        assert record["reason"] == "exception"
        assert record["attempts"] == 2
        assert "InjectedError" in record["message"]

        # resume without --retry-quarantined: the poison point stays
        # parked, nothing resubmits
        result = run_campaign(spec, **kwargs)
        assert result.stats.submitted == 0
        assert set(result.quarantined) == {poison}

        # heal: clear the fault, retry the quarantine
        monkeypatch.delenv(FAULT_PLAN_ENV)
        result = run_campaign(spec, retry_quarantined=True, **kwargs)
        assert result.complete
        assert result.quarantined == {}
        assert result.stats.simulated == 1
        audit = _verify(harness)
        assert audit["ok"] and not audit["quarantined"]


class TestGracefulDrain:
    def test_sigterm_drains_checkpoint_and_resumes(self, harness):
        """SIGTERM mid-campaign finishes the in-flight batch,
        checkpoints, and exits resumable (exit code 3); the resume
        re-simulates nothing the drained run completed.

        The third job to execute (the first of the second of six
        batches) hangs for a few seconds, so the campaign is still
        inside a batch when the signal lands: however fast the
        simulator, the run cannot finish between the first checkpoint
        and the SIGTERM."""
        import signal
        import time

        env = dict(harness["env"])
        plan_path = harness["tmp_path"] / "fault-plan.json"
        plan_path.write_text(json.dumps({
            "state_dir": str(harness["tmp_path"] / "fault-state"),
            "faults": [
                {"site": "worker.execute", "kind": "hang",
                 "seconds": 0, "times": 2},
                {"site": "worker.execute", "kind": "hang",
                 "seconds": 4, "times": 1},
            ],
        }))
        env["REPRO_FAULT_PLAN"] = str(plan_path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", "run",
             str(harness["spec_path"]), "--batch-size", "2",
             "--no-report"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        manifest_file = (
            Path(env["REPRO_CAMPAIGN_DIR"]) / "chaos-test"
            / "manifest.json"
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if manifest_file.exists():
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        assert proc.poll() is None, proc.communicate()
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 3, f"{stdout}\n{stderr}"
        assert "drained" in stdout

        cache = ResultCache(env["REPRO_CACHE_DIR"])
        stored = cache.entry_count()
        assert stored > 0

        _run(harness)
        stats = _last_run_stats(harness)
        total = plan_campaign(_tiny_spec()).total_points
        assert stats["simulated"] == total - stored
        audit = _verify(harness)
        assert audit["ok"], audit


class TestKillMidStoreWrite:
    def test_kill_mid_entry_write_leaves_no_torn_entry(self, harness):
        total = plan_campaign(_tiny_spec()).total_points
        cache = ResultCache(harness["env"]["REPRO_CACHE_DIR"])

        proc = _run(harness, check=False, faults=[
            {"site": "cache.entry.write", "kind": "crash",
             "hard": True, "times": 1},
        ])
        assert proc.returncode == CRASH_EXIT_CODE
        # the atomic protocol held: whatever is on disk parses clean
        plan = plan_campaign(_tiny_spec())
        for job in plan.jobs.values():
            assert cache.verify(job) in ("ok", "missing")

        _run(harness)
        audit = _verify(harness)
        assert audit["ok"], audit
        assert audit["verified"] == total
        assert audit["corrupt"] == []
        # exactly-once across both runs: no duplicates, noop rerun
        _run(harness)
        assert _last_run_stats(harness)["simulated"] == 0

    def test_torn_store_entry_is_quarantined_and_resimulated(
        self, harness
    ):
        """A torn entry write (simulating a non-atomic writer or a
        filesystem eating a write) is caught by the same-run store
        audit: the file moves to quarantine/, the point re-simulates,
        and no corrupt file survives anywhere in the store."""
        total = plan_campaign(_tiny_spec()).total_points
        proc = _run(harness, faults=[
            {"site": "cache.entry.write", "kind": "torn", "times": 1},
        ])
        assert "store audit" in proc.stdout
        stats = _last_run_stats(harness)
        assert stats["audited_bad"] == 1
        # exactly once in the store, torn evidence in quarantine
        audit = _verify(harness)
        assert audit["ok"], audit
        assert audit["verified"] == total
        assert len(audit["store_quarantine_log"]) == 1
        cache_root = Path(harness["env"]["REPRO_CACHE_DIR"])
        for entry in cache_root.rglob("*.json"):
            if "quarantine" in entry.parts:
                continue
            json.loads(entry.read_text())  # no torn survivors
        _run(harness)
        assert _last_run_stats(harness)["simulated"] == 0
