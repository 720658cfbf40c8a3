"""Integration: the sweep executor (dedup, cache, parallel determinism).

Pins down the engine's contract: a job batch yields the same
byte-identical results whether it runs serially, across worker
processes, or from a warm cache — and the stats counter proves the
warm path never calls ``simulate()``.
"""

import json

import pytest

from repro.engine import (
    SimJob,
    WorkloadSpec,
    attack_workload_spec,
    build_workload,
    execute_job,
    normal_workload_specs,
    result_to_dict,
    run_jobs,
    workload_kinds,
)

TINY = 0.1


def _tiny_jobs():
    specs = normal_workload_specs(scale=TINY, num_cores=2)
    return [
        SimJob(workload=specs["fft"]),
        SimJob(workload=specs["radix"]),
        SimJob(workload=specs["fft"], scheme="mithril", flip_th=6_250),
        SimJob(workload=specs["fft"], scheme="graphene", flip_th=6_250),
    ]


def _dumps(results):
    return json.dumps([result_to_dict(r) for r in results], sort_keys=True)


class TestCatalog:
    def test_registered_kinds(self):
        kinds = workload_kinds()
        for kind in ("mix-high", "mix-blend", "fft", "radix", "pagerank",
                     "attack"):
            assert kind in kinds

    def test_build_workload_is_deterministic(self):
        spec = WorkloadSpec.make("fft", scale=TINY, num_cores=2, seed=21)
        a = build_workload(spec)
        b = build_workload(spec)
        assert [t.entries for t in a] == [t.entries for t in b]

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            build_workload(WorkloadSpec.make("no-such-kind"))

    def test_attack_spec_builds_attacker_plus_benign(self):
        spec = attack_workload_spec(
            "multi-sided", scale=TINY, num_cores=4, flip_th=6_250, seed=31
        )
        traces = build_workload(spec)
        assert len(traces) == 4


class TestExecutor:
    def test_results_align_with_input_order(self):
        jobs = _tiny_jobs()
        results = run_jobs(jobs, use_cache=False)
        assert len(results) == len(jobs)
        assert results[0] == execute_job(jobs[0])
        assert results[2].scheme_name == "MithrilScheme"

    def test_duplicates_simulate_once(self):
        jobs = _tiny_jobs()
        results = run_jobs([jobs[0], jobs[0], jobs[1]], use_cache=False)
        stats = run_jobs.last_stats
        assert stats.total == 3
        assert stats.unique == 2
        assert stats.simulated == 2
        assert results[0] == results[1]

    def test_parallel_results_are_byte_identical_to_serial(self):
        jobs = _tiny_jobs()
        serial = run_jobs(jobs, n_jobs=1, use_cache=False)
        parallel = run_jobs(jobs, n_jobs=4, use_cache=False)
        assert run_jobs.last_stats.n_jobs == 4
        assert _dumps(serial) == _dumps(parallel)

    def test_cache_hits_skip_simulation_and_match(self, tmp_path):
        jobs = _tiny_jobs()
        cold = run_jobs(jobs, n_jobs=1, cache_dir=tmp_path)
        stats = run_jobs.last_stats
        assert stats.simulated == len(jobs)
        assert stats.cache_hits == 0
        assert stats.cache_misses == len(jobs)
        assert stats.cache_quarantined == 0
        warm = run_jobs(jobs, n_jobs=4, cache_dir=tmp_path)
        stats = run_jobs.last_stats
        assert stats.simulated == 0
        assert stats.cache_hits == len(jobs)
        assert stats.cache_misses == 0
        assert stats.cache_quarantined == 0
        assert _dumps(cold) == _dumps(warm)

    def test_stats_carry_timing_breakdown(self, tmp_path):
        jobs = _tiny_jobs()[:1]
        run_jobs(jobs, cache_dir=tmp_path)
        timing = run_jobs.last_stats.timing_breakdown
        assert set(timing) >= {"cache_lookup", "execute", "cache_put"}
        assert all(v >= 0.0 for v in timing.values())
        run_jobs(jobs, cache_dir=tmp_path)
        warm_timing = run_jobs.last_stats.timing_breakdown
        assert "execute" not in warm_timing  # nothing simulated

    def test_corrupt_entry_counts_as_quarantined(self, tmp_path):
        from repro.engine.cache import ResultCache

        jobs = _tiny_jobs()[:1]
        run_jobs(jobs, cache_dir=tmp_path)
        entry = ResultCache(tmp_path).path_for(jobs[0])
        entry.write_text(entry.read_text()[: entry.stat().st_size // 2])
        run_jobs(jobs, cache_dir=tmp_path)
        stats = run_jobs.last_stats
        assert stats.cache_quarantined == 1
        assert stats.cache_hits == 0
        assert stats.simulated == 1

    def test_no_cache_ignores_existing_entries(self, tmp_path):
        jobs = _tiny_jobs()[:1]
        run_jobs(jobs, cache_dir=tmp_path)
        run_jobs(jobs, use_cache=False, cache_dir=tmp_path)
        assert run_jobs.last_stats.simulated == 1


class TestWorkloadReuse:
    """Each workload is built once per run of jobs that share it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count real builds; start with nothing held."""
        from repro.engine import executor

        calls = []

        def counting_build(spec):
            calls.append(spec)
            return build_workload(spec)

        monkeypatch.setattr(executor, "_held_workload", None)
        monkeypatch.setattr(executor, "build_workload", counting_build)
        return calls

    def test_campaign_builds_each_distinct_spec_once(self, builds):
        from repro.campaigns import (
            CampaignSpec,
            ExperimentSpec,
            plan_campaign,
            run_campaign,
        )
        from repro.engine import executor
        from repro.engine.cache import ResultCache

        spec = CampaignSpec(name="reuse", experiments=[ExperimentSpec(
            name="f11", kind="fig11", params=dict(
                scale=0.05, flip_thresholds=[6_250],
                schemes=["mithril"], attack_seeds=[31],
            ),
        )])
        jobs = list(plan_campaign(spec).jobs.values())
        distinct = {job.workload for job in jobs}
        # plan order interleaves specs, so reuse needs the grouping
        assert 1 < len(distinct) < len(jobs)
        run_campaign(spec, batch_size=5)
        assert len(builds) == len(distinct)

        cache = ResultCache()
        for job in jobs:
            executor._held_workload = None  # a fresh, unshared build
            assert result_to_dict(cache.get(job)) == result_to_dict(
                execute_job(job)
            )

    def test_returned_list_is_the_callers_own(self, builds):
        from repro.engine.executor import materialize_job

        job = _tiny_jobs()[0]
        first, *_ = materialize_job(job)
        expected = [trace.entries for trace in first]
        first.pop()
        first.append("not a trace")
        again, *_ = materialize_job(job)
        assert [trace.entries for trace in again] == expected
        assert len(builds) == 1

    def test_failed_build_leaves_nothing_held(self, builds, monkeypatch):
        from repro.engine import catalog, executor
        from repro.engine.supervisor import RetryPolicy

        held_during_build = []

        def flaky(seed: int = 0):
            held_during_build.append(executor._held_workload)
            if len(held_during_build) == 1:
                raise RuntimeError("transient build failure")
            return build_workload(WorkloadSpec.make(
                "fft", scale=TINY, num_cores=2, seed=seed
            ))

        monkeypatch.setitem(catalog._WORKLOAD_BUILDERS, "flaky", flaky)
        run_jobs([_tiny_jobs()[0]], use_cache=False)  # hold a workload
        assert executor._held_workload is not None
        results = run_jobs(
            [SimJob(workload=WorkloadSpec.make("flaky", seed=21))],
            use_cache=False,
            retry_policy=RetryPolicy(max_retries=1, backoff_base_s=0.0),
        )
        assert run_jobs.last_stats.retried == 1
        assert results[0] is not None
        # dropped before each build; the failed one memoized nothing,
        # so the retry built again
        assert held_during_build == [None, None]


class TestDriverDeterminism:
    """The ISSUE acceptance check, at CI-friendly scale."""

    def test_fig10_parallel_equals_serial_with_cache_reuse(
        self, monkeypatch, tmp_path
    ):
        from repro.experiments import fig10

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(
            flip_thresholds=(6_250,), schemes=("mithril",), scale=TINY,
            attack_seeds=(31,),
        )
        serial = fig10.run(n_jobs=1, use_cache=False, **kwargs)
        parallel = fig10.run(n_jobs=4, use_cache=True, **kwargs)
        assert json.dumps(serial) == json.dumps(parallel)
        warm = fig10.run(n_jobs=4, use_cache=True, **kwargs)
        assert run_jobs.last_stats.simulated == 0
        assert json.dumps(serial) == json.dumps(warm)

    def test_fig6_accepts_engine_kwargs(self):
        from repro.experiments import fig6

        rows_serial = fig6.run(
            flip_thresholds=(6_250,), rfm_th_values=(64,), n_jobs=1
        )
        rows_parallel = fig6.run(
            flip_thresholds=(6_250,), rfm_th_values=(64,), n_jobs=4
        )
        assert rows_serial == rows_parallel
