"""Integration: serial and pooled execution keep one retry ledger.

``run_jobs`` retries in-process at ``n_jobs=1`` and through the
supervised worker pool at ``n_jobs>1``.  Both feed the same
:class:`~repro.engine.supervisor.RetryLedger`, so a poison job must
leave the same quarantine record and the same ``job.retry`` /
``retry.backoff`` telemetry whichever path ran it.
"""

import json

from repro import telemetry
from repro.engine import SimJob, normal_workload_specs, run_jobs
from repro.engine.supervisor import RetryPolicy
from repro.faults import FAULT_PLAN_ENV
from repro.telemetry import merge_events

TINY = 0.1


def _jobs():
    specs = normal_workload_specs(scale=TINY, num_cores=2)
    return [SimJob(workload=specs["fft"]), SimJob(workload=specs["radix"])]


def _run(monkeypatch, tel_dir, n_jobs):
    monkeypatch.setenv("REPRO_TELEMETRY", str(tel_dir))
    telemetry.reset()
    results = run_jobs(
        _jobs(), n_jobs=n_jobs, use_cache=False, on_failure="skip",
        retry_policy=RetryPolicy(max_retries=1, backoff_base_s=0.01,
                                 backoff_cap_s=0.01, jitter=0.0),
    )
    telemetry.reset()
    stats = run_jobs.last_stats
    merged = merge_events(tel_dir)
    retries = [r for r in merged if r["kind"] == "job.retry"]
    backoffs = [
        r for r in merged
        if r["kind"] == "span" and r["name"] == "retry.backoff"
    ]
    return results, stats, retries, backoffs


def test_serial_and_pooled_retries_emit_the_same_records(
    monkeypatch, tmp_path
):
    poison = _jobs()[0].job_hash()
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "faults": [{"site": "worker.execute", "kind": "error",
                    "match": poison, "times": None}],
    }))
    serial = _run(monkeypatch, tmp_path / "serial", n_jobs=1)
    pooled = _run(monkeypatch, tmp_path / "pooled", n_jobs=2)

    for results, stats, retries, backoffs in (serial, pooled):
        assert results[0] is None and results[1] is not None
        assert stats.retried == 1
        [failure] = stats.failures
        assert failure.job_hash == poison
        assert failure.attempts == 2
        assert len(retries) == 1 and retries[0]["reason"] == "exception"
        assert len(backoffs) == 1

    (_, serial_stats, serial_retries, serial_backoffs) = serial
    (_, pooled_stats, pooled_retries, pooled_backoffs) = pooled
    assert serial_stats.failures[0].events == pooled_stats.failures[0].events
    assert serial_stats.failures[0].reason == pooled_stats.failures[0].reason
    assert set(serial_retries[0]) == set(pooled_retries[0])
    assert (set(serial_backoffs[0].get("attrs", {}))
            == set(pooled_backoffs[0].get("attrs", {})))
