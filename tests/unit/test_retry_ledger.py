"""Unit tests for the retry ledger and the JobFailure record codec.

The ledger is the one place a failed attempt turns into either a
backoff-and-retry or a quarantine; serial and pooled execution both
feed it.  JobFailure records cross process and host boundaries as
dicts (manifest quarantine records, cluster result messages), so
``from_dict`` must invert ``as_dict`` exactly.
"""

import json

from repro.engine import SimJob, WorkloadSpec
from repro.engine.supervisor import JobFailure, RetryLedger, RetryPolicy


def _job(seed=21):
    return SimJob.make(
        workload=WorkloadSpec.make("fft", seed=seed, scale=0.05),
        scheme="mithril",
        scheme_params={"n_entries": 512, "rfm_th": 64},
        flip_th=6_250,
    )


def _ledger(max_retries):
    job = _job()
    job_hash = job.job_hash()
    policy = RetryPolicy(max_retries=max_retries, backoff_base_s=0.01)
    return RetryLedger({job_hash: job}, policy), job_hash, job


class TestJobFailureCodec:
    def test_round_trip_through_json(self):
        failure = JobFailure(
            job_hash="ab" * 12, scheme="mithril", workload="fft",
            attempts=3, reason="worker-crash", message="died",
            traceback="Traceback ...",
            events=[{"attempt": 1, "reason": "worker-crash",
                     "message": "died"}],
        )
        wire = json.loads(json.dumps(failure.as_dict()))
        assert JobFailure.from_dict(wire) == failure

    def test_round_trip_without_traceback(self):
        failure = JobFailure(
            job_hash="cd" * 12, scheme="para", workload="stream",
            attempts=0, reason="hash-mismatch", message="mismatch",
        )
        assert JobFailure.from_dict(failure.as_dict()) == failure

    def test_missing_fields_get_placeholders(self):
        failure = JobFailure.from_dict({"job_hash": "ef" * 12})
        assert failure.scheme == "?" and failure.workload == "?"
        assert failure.attempts == 0
        assert failure.reason == "unknown"
        assert failure.events == []


class TestRetryLedger:
    def test_retry_then_quarantine(self):
        ledger, job_hash, job = _ledger(max_retries=1)
        assert ledger.begin(job_hash) == 1
        delay = ledger.failed(job_hash, "exception", "boom 1")
        assert delay == ledger.policy.delay(job_hash, 1)
        assert ledger.retried == 1
        assert ledger.failures == {}

        assert ledger.begin(job_hash) == 2
        assert ledger.failed(job_hash, "timeout", "boom 2", "tb") is None
        assert ledger.retried == 1
        failure = ledger.failures[job_hash]
        assert failure.scheme == job.scheme
        assert failure.workload == job.workload.kind
        assert failure.attempts == 2
        assert failure.reason == "timeout"
        assert failure.message == "boom 2"
        assert failure.traceback == "tb"
        assert failure.events == [
            {"attempt": 1, "reason": "exception", "message": "boom 1"},
            {"attempt": 2, "reason": "timeout", "message": "boom 2"},
        ]

    def test_zero_retries_quarantines_first_failure(self):
        ledger, job_hash, _job_ = _ledger(max_retries=0)
        ledger.begin(job_hash)
        assert ledger.failed(job_hash, "exception", "boom") is None
        assert ledger.failures[job_hash].attempts == 1
        assert ledger.retried == 0
