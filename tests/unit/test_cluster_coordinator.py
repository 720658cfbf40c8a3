"""Unit tests for the coordinator's scheduling/ingest state machine.

These drive :class:`repro.cluster.coordinator.Coordinator` directly —
no agent processes — pinning the invariants the integration chaos
tests rely on: idempotent result ingestion (late duplicates discarded
by hash), store verification before completion, lease-expiry
requeues, and the hello-does-not-requeue rule that keeps a persistent
spool inbox safe across agent restarts.
"""

import json
import time

import pytest

from repro.campaigns import CampaignSpec, ExperimentSpec, plan_campaign
from repro.campaigns.executor import CampaignManifest, manifest_path
from repro.cluster.coordinator import ClusterRunStats, Coordinator
from repro.cluster.transport import (
    COORDINATOR_MAILBOX,
    Message,
    SpoolTransport,
)
from repro.engine import SimJob, WorkloadSpec


def _tiny_spec():
    return CampaignSpec(
        name="unit-cluster",
        experiments=[
            ExperimentSpec(
                name="f11",
                kind="fig11",
                params=dict(
                    scale=0.05, flip_thresholds=[6_250],
                    schemes=["mithril"], attack_seeds=[31],
                ),
            )
        ],
    )


class FakeCache:
    """Stands in for ResultCache: verify() answers from a dict."""

    def __init__(self, verdicts=None):
        self.verdicts = dict(verdicts or {})

    def verify(self, job):
        return self.verdicts.get(job.job_hash(), "missing")


@pytest.fixture
def rig(tmp_path):
    plan = plan_campaign(_tiny_spec())
    manifest = CampaignManifest.for_plan(
        manifest_path("unit-cluster", tmp_path / "campaigns"), plan
    )
    cache = FakeCache()
    transport = SpoolTransport(tmp_path / "cluster", sender="coordinator")
    stats = ClusterRunStats(total_points=plan.total_points, hosts=1)
    coordinator = Coordinator(
        plan, manifest, cache, transport, stats,
        launcher=None, lease_timeout=1.0, chunk_size=4,
    )
    return coordinator


def _result(job_hash, host="1", status="ok", failure=None):
    payload = {"hash": job_hash, "host": host, "status": status}
    if failure is not None:
        payload["failure"] = failure
    return Message(type="result", sender=f"host-{host}", payload=payload)


class TestIngestIdempotency:
    def test_verified_ok_result_marks_complete_once(self, rig):
        job_hash = sorted(rig.plan.jobs)[0]
        rig.cache.verdicts[job_hash] = "ok"
        rig._ingest(_result(job_hash))
        assert job_hash in rig.completed
        assert job_hash in rig.manifest.completed
        assert rig._dirty == 1

    def test_duplicate_result_discarded_by_hash(self, rig):
        job_hash = sorted(rig.plan.jobs)[0]
        rig.cache.verdicts[job_hash] = "ok"
        rig._ingest(_result(job_hash, host="1"))
        # The late duplicate a healed partition delivers — possibly
        # from a different host that executed the reassigned chunk.
        rig._ingest(_result(job_hash, host="2"))
        rig._ingest(_result(job_hash, host="1"))
        assert rig.stats.duplicate_results == 2
        assert rig._dirty == 1  # only the first ingest counted

    def test_ok_result_without_store_entry_requeues(self, rig):
        job_hash = sorted(rig.plan.jobs)[0]
        rig._ingest(_result(job_hash))  # FakeCache says "missing"
        assert job_hash not in rig.completed
        assert job_hash in rig.pending
        assert rig.stats.reassigned == 1

    def test_failed_result_quarantines_with_diagnostics(self, rig):
        job_hash = sorted(rig.plan.jobs)[0]
        rig._ingest(_result(job_hash, status="failed", failure={
            "scheme": "mithril", "workload": "f11", "attempts": 3,
            "reason": "exception", "message": "boom",
        }))
        assert job_hash in rig.quarantined
        assert rig.stats.quarantined == 1
        record = rig.manifest.quarantined[job_hash]
        assert record["reason"] == "exception"
        assert record["attempts"] == 3

    def test_late_failure_for_quarantined_point_is_a_duplicate(self, rig):
        # A partitioned host's late failure for a point its reassigned
        # twin already failed must not count a second quarantine or
        # overwrite the first record.
        job_hash = sorted(rig.plan.jobs)[0]
        first = {"scheme": "mithril", "workload": "f11", "attempts": 3,
                 "reason": "exception", "message": "first"}
        rig._ingest(_result(job_hash, host="1", status="failed",
                            failure=first))
        rig._ingest(_result(job_hash, host="2", status="failed",
                            failure={**first, "message": "late"}))
        assert rig.stats.quarantined == 1
        assert rig.stats.duplicate_results == 1
        assert rig._dirty == 1
        assert rig.manifest.quarantined[job_hash]["message"] == "first"

    def test_failure_record_is_filed_under_the_checked_hash(self, rig):
        # The message hash was checked against the plan; a record whose
        # own job_hash is null, empty or foreign must not override it.
        hashes = sorted(rig.plan.jobs)[:3]
        for job_hash, bogus in zip(hashes, (None, "", "feedface")):
            rig._ingest(_result(job_hash, status="failed", failure={
                "job_hash": bogus, "reason": "exception", "attempts": 3,
            }))
        assert sorted(rig.manifest.quarantined) == hashes
        for job_hash in hashes:
            assert rig.manifest.quarantined[job_hash]["job_hash"] == job_hash

    def test_ok_result_heals_a_quarantined_point(self, rig):
        job_hash = sorted(rig.plan.jobs)[0]
        rig._ingest(_result(job_hash, status="failed", failure={
            "reason": "exception", "message": "boom", "attempts": 3,
        }))
        rig.cache.verdicts[job_hash] = "ok"
        rig._ingest(_result(job_hash, host="2"))
        assert job_hash in rig.completed
        assert job_hash not in rig.quarantined
        assert job_hash not in rig.manifest.quarantined
        assert rig.stats.duplicate_results == 0

    def test_unknown_hash_is_ignored(self, rig):
        rig._ingest(_result("feedfacefeedfacefeedface"))
        assert rig.stats.duplicate_results == 0
        assert rig.pending == []


class TestHostLifecycle:
    def test_hello_does_not_requeue_outstanding_chunk(self, rig):
        # The spool inbox survives an agent restart: a fresh
        # incarnation still consumes the original assign message, so
        # requeueing on hello would double-execute the chunk.
        host = rig.add_host("1", spawn=False)
        job_hash = sorted(rig.plan.jobs)[0]
        host.assigned.add(job_hash)
        rig._ingest(Message(type="hello", sender="host-1",
                            payload={"host": "1", "pid": 123}))
        assert host.assigned == {job_hash}
        assert host.alive and host.pid == 123
        assert rig.pending == []
        assert rig.stats.reassigned == 0

    def test_lease_expiry_requeues_and_marks_dead(self, rig):
        host = rig.add_host("1", spawn=False)
        job_hash = sorted(rig.plan.jobs)[0]
        host.alive = True
        host.last_seen = time.time() - 10.0  # lease_timeout is 1.0
        host.assigned.add(job_hash)
        host.assigned_at = time.time()
        rig._check_hosts(time.time())
        assert not host.alive
        assert host.assigned == set()
        assert rig.pending == [job_hash]
        assert rig.stats.hosts_lost == 1
        assert rig.stats.reassigned == 1

    def test_heartbeat_renews_lease_and_rejoins(self, rig):
        host = rig.add_host("1", spawn=False)
        host.alive = False
        rig._ingest(Message(type="heartbeat", sender="host-1",
                            payload={"host": "1"}))
        assert host.alive
        assert time.time() - host.last_seen < 1.0

    def test_chunk_deadline_requeues_but_keeps_lease(self, rig):
        rig.chunk_timeout = 0.0
        host = rig.add_host("1", spawn=False)
        job_hash = sorted(rig.plan.jobs)[0]
        host.alive = True
        host.last_seen = time.time()
        host.assigned.add(job_hash)
        host.assigned_at = time.time() - 1.0
        rig._check_hosts(time.time())
        assert host.alive               # still heartbeating
        assert rig.pending == [job_hash]  # but the chunk came back


class TestAssignment:
    def test_one_outstanding_chunk_per_host(self, rig):
        host = rig.add_host("1", spawn=False)
        host.alive = True
        host.last_seen = time.time()
        rig.pending = sorted(rig.plan.jobs)
        rig._assign(time.time())
        assert len(host.assigned) == 4  # chunk_size
        assert rig.transport.pending_count(host.mailbox) == 1
        rig._assign(time.time())        # no second chunk while busy
        assert rig.transport.pending_count(host.mailbox) == 1
        [assign] = rig.transport.recv(host.mailbox)
        assert assign.type == "assign"
        hashes = [j["hash"] for j in assign.payload["jobs"]]
        assert set(hashes) == host.assigned

    def test_assign_skips_already_completed(self, rig):
        host = rig.add_host("1", spawn=False)
        host.alive = True
        host.last_seen = time.time()
        done = sorted(rig.plan.jobs)[0]
        rig.completed.add(done)
        rig.pending = sorted(rig.plan.jobs)
        rig._assign(time.time())
        assert done not in host.assigned

    def test_work_done_counts_quarantine(self, rig):
        assert not rig._work_done()
        hashes = sorted(rig.plan.jobs)
        rig.completed.update(hashes[1:])
        rig.quarantined.add(hashes[0])
        assert rig._work_done()


class TestCanonicalRoundtrip:
    """Assignment messages carry jobs as canonical dicts; the agent
    must rebuild a job whose hash matches the coordinator's exactly —
    a mismatch means the store would file results under the wrong
    key."""

    def test_plan_jobs_roundtrip_hash_equal(self, rig):
        for job_hash, job in rig.plan.jobs.items():
            clone = SimJob.from_canonical(job.canonical())
            assert clone == job
            assert clone.job_hash() == job_hash

    def test_roundtrip_survives_json_transport(self):
        job = SimJob.make(
            workload=WorkloadSpec.make("fft", seed=21, scale=0.25),
            scheme="mithril",
            scheme_params={"n_entries": 512, "rfm_th": 64},
            flip_th=6_250, mlp=8, track_hammer=False,
        )
        wire = json.loads(json.dumps(job.canonical()))
        clone = SimJob.from_canonical(wire)
        assert clone.job_hash() == job.job_hash()
        assert clone.scheme_params == job.scheme_params
        assert clone.mlp == 8 and clone.track_hammer is False
