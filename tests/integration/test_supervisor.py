"""Integration: the supervised worker pool and the retrying executor.

Every failure mode the supervisor exists for is provoked here through
the deterministic fault harness (docs/FAULTS.md): ordinary exceptions
retry with backoff, killed workers are detected and replaced, hung
workers are killed at their lease deadline, and poison jobs end up as
structured :class:`JobFailure` records — never as an aborted batch or
an opaque pool error.
"""

import json
import os
import signal

import pytest

from repro.engine import (
    JobExecutionError,
    SimJob,
    normal_workload_specs,
    result_to_dict,
    run_jobs,
)
from repro.engine import supervisor
from repro.engine.supervisor import RetryPolicy, SupervisedPool
from repro.faults import FAULT_PLAN_ENV
from repro.telemetry import merge_events, summarize_events

TINY = 0.1


def _tiny_jobs(count=3):
    specs = normal_workload_specs(scale=TINY, num_cores=2)
    jobs = [
        SimJob(workload=specs["fft"]),
        SimJob(workload=specs["radix"]),
        SimJob(workload=specs["fft"], scheme="mithril", flip_th=6_250),
    ]
    return jobs[:count]


def _fast_policy(max_retries=2):
    return RetryPolicy(max_retries=max_retries, backoff_base_s=0.0,
                       backoff_cap_s=0.0, jitter=0.0)


def _activate(monkeypatch, tmp_path, rules):
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "state_dir": str(tmp_path / "fault-state"),
        "faults": rules,
    }))


def _dumps(results):
    return json.dumps(
        [result_to_dict(r) for r in results], sort_keys=True
    )


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.3,
                             jitter=0.0)
        delays = [policy.delay("ab12cd", n) for n in (1, 2, 3, 4)]
        assert delays == [
            pytest.approx(0.1), pytest.approx(0.2),
            pytest.approx(0.3), pytest.approx(0.3),
        ]

    def test_jitter_is_deterministic_per_hash(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.5)
        a1 = policy.delay("aaaa1111", 1)
        a2 = policy.delay("aaaa1111", 1)
        b = policy.delay("bbbb2222", 1)
        assert a1 == a2
        assert a1 != b


class TestRetries:
    def test_transient_error_retries_to_success(
        self, monkeypatch, tmp_path
    ):
        job = _tiny_jobs(1)[0]
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "error", "times": 1},
        ])
        results = run_jobs([job], use_cache=False,
                           retry_policy=_fast_policy())
        stats = run_jobs.last_stats
        assert results[0] is not None
        assert stats.retried == 1
        assert stats.failed == 0
        assert stats.simulated == 1

    def test_worker_crash_retries_to_success(
        self, monkeypatch, tmp_path
    ):
        """A killed worker (os._exit inside the child) is detected,
        the worker replaced, and the job retried — the pool survives
        what broke ProcessPoolExecutor."""
        job = _tiny_jobs(1)[0]
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "crash", "times": 1},
        ])
        results = run_jobs([job], n_jobs=2, use_cache=False,
                           retry_policy=_fast_policy())
        assert results[0] is not None
        assert run_jobs.last_stats.retried == 1

    def test_hung_worker_is_killed_at_the_lease_deadline(
        self, monkeypatch, tmp_path
    ):
        job = _tiny_jobs(1)[0]
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "hang",
             "seconds": 600, "times": 1},
        ])
        results = run_jobs([job], use_cache=False, job_timeout=1.5,
                           retry_policy=_fast_policy())
        assert results[0] is not None
        stats = run_jobs.last_stats
        assert stats.retried == 1
        assert any(
            "timeout" not in (f.reason or "") for f in stats.failures
        ) or not stats.failures


class TestQuarantine:
    def test_poison_job_raises_structured_error(
        self, monkeypatch, tmp_path
    ):
        jobs = _tiny_jobs(2)
        poison = jobs[0].job_hash()
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "crash",
             "match": poison, "times": None},
        ])
        with pytest.raises(JobExecutionError) as excinfo:
            run_jobs(jobs, n_jobs=2, use_cache=False,
                     retry_policy=_fast_policy(max_retries=1))
        failures = excinfo.value.failures
        assert [f.job_hash for f in failures] == [poison]
        failure = failures[0]
        assert failure.reason == "worker-crash"
        assert failure.attempts == 2
        assert failure.scheme == jobs[0].scheme
        assert failure.workload == jobs[0].workload.kind
        assert len(failure.events) == 2
        # structured stats survive the raise
        assert run_jobs.last_stats.failed == 1

    def test_on_failure_skip_returns_none_slots(
        self, monkeypatch, tmp_path
    ):
        jobs = _tiny_jobs(2)
        poison = jobs[0].job_hash()
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "error",
             "match": poison, "times": None},
        ])
        results = run_jobs(jobs, use_cache=False, on_failure="skip",
                           retry_policy=_fast_policy(max_retries=1))
        assert results[0] is None
        assert results[1] is not None
        assert run_jobs.last_stats.failed == 1

    def test_healthy_jobs_complete_and_cache_despite_poison(
        self, monkeypatch, tmp_path
    ):
        """The batch's survivors are cached even when a sibling job
        is quarantined — a retry run only pays for the poison job."""
        jobs = _tiny_jobs(3)
        poison = jobs[0].job_hash()
        cache_dir = tmp_path / "cache"
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "error",
             "match": poison, "times": None},
        ])
        run_jobs(jobs, n_jobs=2, cache_dir=cache_dir, on_failure="skip",
                 retry_policy=_fast_policy(max_retries=0))
        monkeypatch.delenv(FAULT_PLAN_ENV)
        results = run_jobs(jobs, cache_dir=cache_dir)
        stats = run_jobs.last_stats
        assert all(r is not None for r in results)
        assert stats.cache_hits == 2
        assert stats.simulated == 1

    def test_invalid_on_failure_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([], on_failure="explode")


class TestDeterminism:
    def test_supervised_results_byte_identical_to_serial(self):
        jobs = _tiny_jobs(3)
        serial = run_jobs(jobs, n_jobs=1, use_cache=False)
        supervised = run_jobs(jobs, n_jobs=3, use_cache=False)
        assert _dumps(serial) == _dumps(supervised)

    def test_results_identical_through_crash_retries(
        self, monkeypatch, tmp_path
    ):
        """Faulted-then-retried execution must produce byte-identical
        results to an undisturbed run: retries re-enter the same
        deterministic simulate path."""
        jobs = _tiny_jobs(3)
        clean = run_jobs(jobs, use_cache=False)
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "crash", "times": 2},
        ])
        faulted = run_jobs(jobs, n_jobs=2, use_cache=False,
                           retry_policy=_fast_policy())
        assert run_jobs.last_stats.retried == 2
        assert _dumps(clean) == _dumps(faulted)


def _items(jobs):
    return [(job.job_hash(), job) for job in jobs]


def _pids(pool):
    return [worker.proc.pid for worker in pool._workers]


def _assert_reaped(pids):
    """Every pid is gone and reaped: no longer a child of this process."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestPoolLifecycle:
    """One pool serves many batches: live workers are reused, a worker
    that died idle is replaced for free, a run that lost a worker
    hands the next run a fresh pool, and close() reaps everything."""

    def test_runs_reuse_the_same_workers(self):
        jobs = _tiny_jobs(3)
        with SupervisedPool(2, policy=_fast_policy()) as pool:
            assert _pids(pool) == []  # constructing spawns nothing
            first = pool.run(_items(jobs[:2]))
            pids = _pids(pool)
            second = pool.run(_items(jobs[1:]))
            assert _pids(pool) == pids
        assert len(pids) == 2
        assert set(first.results) == {j.job_hash() for j in jobs[:2]}
        assert set(second.results) == {j.job_hash() for j in jobs[1:]}
        assert first.retried == second.retried == 0
        _assert_reaped(pids)

    def test_worker_killed_while_idle_is_replaced_for_free(
        self, monkeypatch, tmp_path
    ):
        jobs = _tiny_jobs(3)
        tel_dir = tmp_path / "tel"
        monkeypatch.setenv("REPRO_TELEMETRY", str(tel_dir))
        with SupervisedPool(2, policy=_fast_policy()) as pool:
            run_jobs(jobs[:2], n_jobs=2, use_cache=False, pool=pool)
            victim, survivor = _pids(pool)
            os.kill(victim, signal.SIGKILL)
            # Wait for the death without reaping it: the pool must
            # notice on its own.
            os.waitid(os.P_PID, victim, os.WEXITED | os.WNOWAIT)
            results = run_jobs(jobs, n_jobs=2, use_cache=False, pool=pool)
            stats = run_jobs.last_stats
            after = _pids(pool)
        assert all(r is not None for r in results)
        assert stats.retried == 0 and stats.failed == 0
        assert victim not in after and survivor in after
        merged = merge_events(tel_dir)
        assigns = [r for r in merged if r["kind"] == "lease.assign"]
        # one attempt per job: 2 in the first batch, 3 in the second
        assert len(assigns) == 5
        assert {r["attempt"] for r in assigns} == {1}
        respawn = [
            r for r in merged
            if r["kind"] == "worker.spawn" and "replaces" in r
        ]
        assert [r["replaces"] for r in respawn] == [victim]
        assert summarize_events(merged)["kinds"].get("worker.crash") is None
        _assert_reaped(after + [victim])

    def test_run_that_lost_a_worker_leaves_a_fresh_pool(
        self, monkeypatch, tmp_path
    ):
        jobs = _tiny_jobs(3)
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "crash",
             "match": jobs[2].job_hash(), "times": 1},
        ])
        with SupervisedPool(2, policy=_fast_policy()) as pool:
            pool.run(_items(jobs[:2]))
            warm = _pids(pool)
            crashed = pool.run(_items(jobs[1:]))
            assert _pids(pool) == []  # closed by the run that crashed
            fresh = pool.run(_items(jobs[:2]))
            renewed = _pids(pool)
        assert crashed.retried == 1 and not crashed.failures
        assert set(crashed.results) == {j.job_hash() for j in jobs[1:]}
        assert len(fresh.results) == 2
        assert len(renewed) == 2 and not set(renewed) & set(warm)
        _assert_reaped(warm + renewed)

    def test_close_is_idempotent_and_leaves_no_live_child(self):
        pool = SupervisedPool(2, policy=_fast_policy())
        pool.close()  # nothing spawned yet
        pool.run(_items(_tiny_jobs(2)))
        pids = _pids(pool)
        assert len(pids) == 2
        pool.close()
        pool.close()
        assert _pids(pool) == []
        _assert_reaped(pids)

    def test_stale_queued_result_outside_the_batch_is_ignored(
        self, monkeypatch
    ):
        """Every worker posts an ok and an err for a hash outside the
        batch ahead of its first real outcome; neither may land."""
        worker_main = supervisor._worker_main
        stale = "f" * 64

        def chatty_worker(tasks, results, parent_pid):
            results.send(("ok", stale, "not a result", None))
            results.send(("err", stale, "stale failure", None))
            worker_main(tasks, results, parent_pid)

        monkeypatch.setattr(supervisor, "_worker_main", chatty_worker)
        jobs = _tiny_jobs(3)
        with SupervisedPool(2, policy=_fast_policy()) as pool:
            outcome = pool.run(_items(jobs))
        assert set(outcome.results) == {j.job_hash() for j in jobs}
        assert outcome.retried == 0 and outcome.failures == {}
        expected = run_jobs(jobs, use_cache=False)
        assert _dumps([outcome.results[j.job_hash()] for j in jobs]) == \
            _dumps(expected)

    def test_multi_batch_campaign_identical_at_one_and_two_jobs(
        self, monkeypatch, tmp_path
    ):
        """Warm workers change only where points run: a campaign split
        into several checkpoint batches stores byte-identical results
        serially and on a two-worker pool, the pool spawns its two
        workers once for all batches, and run_campaign reaps them
        before it returns."""
        from repro.campaigns import (
            CampaignSpec,
            ExperimentSpec,
            plan_campaign,
            run_campaign,
        )
        from repro.engine import ResultCache

        spec = CampaignSpec(name="pool-batches", experiments=[
            ExperimentSpec(name="f11", kind="fig11", params=dict(
                scale=0.05, flip_thresholds=[6_250],
                schemes=["mithril"], attack_seeds=[31],
            )),
        ])
        jobs = list(plan_campaign(spec).jobs.values())
        stored = {}
        for n_jobs in (1, 2):
            if n_jobs == 2:
                monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "tel"))
            cache_dir = tmp_path / f"cache-{n_jobs}"
            outcome = run_campaign(
                spec, directory=tmp_path / f"campaigns-{n_jobs}",
                cache_dir=cache_dir, batch_size=4, n_jobs=n_jobs,
            )
            assert outcome.complete
            assert outcome.stats.batches > 1
            assert outcome.stats.simulated == len(jobs)
            cache = ResultCache(cache_dir)
            stored[n_jobs] = _dumps([cache.get(job) for job in jobs])
        assert stored[1] == stored[2]
        spawns = [
            r for r in merge_events(tmp_path / "tel")
            if r["kind"] == "worker.spawn"
        ]
        assert len(spawns) == 2
        assert not any("replaces" in r for r in spawns)
        _assert_reaped([r["worker"] for r in spawns])
