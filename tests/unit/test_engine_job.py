"""Unit tests for the declarative job model (SimJob / WorkloadSpec)."""

import dataclasses
import pickle

import pytest

from repro.engine import SimJob, WorkloadSpec, build_config, freeze_params


class TestFreezeParams:
    def test_sorts_keys(self):
        assert freeze_params({"b": 2, "a": 1}) == (("a", 1), ("b", 2))

    def test_empty_and_none(self):
        assert freeze_params({}) == ()
        assert freeze_params(None) == ()

    def test_rejects_non_scalar_values(self):
        with pytest.raises(TypeError):
            freeze_params({"a": [1, 2]})
        with pytest.raises(TypeError):
            freeze_params({"a": {"nested": 1}})

    def test_rejects_non_str_keys(self):
        with pytest.raises(TypeError):
            freeze_params({1: "a"})


class TestWorkloadSpec:
    def test_make_freezes_params(self):
        spec = WorkloadSpec.make("fft", seed=21, scale=1.0)
        assert spec.kind == "fft"
        assert spec.as_dict() == {"seed": 21, "scale": 1.0}

    def test_hashable_and_order_independent(self):
        a = WorkloadSpec.make("fft", seed=21, scale=1.0)
        b = WorkloadSpec.make("fft", scale=1.0, seed=21)
        assert a == b
        assert hash(a) == hash(b)


class TestSimJob:
    def test_job_hash_is_stable_and_order_independent(self):
        spec = WorkloadSpec.make("fft", seed=21)
        a = SimJob.make(workload=spec, scheme="mithril",
                        scheme_params={"n_entries": 512, "rfm_th": 64})
        b = SimJob.make(workload=spec, scheme="mithril",
                        scheme_params={"rfm_th": 64, "n_entries": 512})
        assert a == b
        assert a.job_hash() == b.job_hash()
        assert len(a.job_hash()) == 24

    def test_job_hash_differs_on_any_knob(self):
        spec = WorkloadSpec.make("fft", seed=21)
        base = SimJob(workload=spec)
        assert base.job_hash() != SimJob(workload=spec, flip_th=1).job_hash()
        assert base.job_hash() != SimJob(workload=spec, mlp=8).job_hash()
        assert (
            base.job_hash()
            != SimJob(workload=WorkloadSpec.make("fft", seed=22)).job_hash()
        )

    def test_jobs_deduplicate_in_sets(self):
        spec = WorkloadSpec.make("radix", seed=22)
        assert len({SimJob(workload=spec), SimJob(workload=spec)}) == 1

    def test_canonical_is_json_shaped(self):
        import json

        job = SimJob.make(
            workload=WorkloadSpec.make("fft", seed=21),
            scheme="graphene",
            config_overrides={"scheduler": "frfcfs"},
            flip_th=3_125,
        )
        payload = json.dumps(job.canonical(), sort_keys=True)
        assert "graphene" in payload and "frfcfs" in payload


class TestJobHashCache:
    def _job(self, **knobs):
        return SimJob(workload=WorkloadSpec.make("fft", seed=21), **knobs)

    def test_equal_jobs_stay_equal_once_one_is_hashed(self):
        hashed, fresh = self._job(), self._job()
        hashed.job_hash()
        assert hashed == fresh
        assert hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh)
        assert hashed.job_hash() == fresh.job_hash()

    def test_replace_hashes_the_new_job(self):
        job = self._job()
        old = job.job_hash()
        moved = dataclasses.replace(job, flip_th=1_500)
        assert moved.job_hash() != old
        assert moved.job_hash() == self._job(flip_th=1_500).job_hash()

    def test_pickle_round_trip_keeps_the_hash(self):
        job = self._job()
        unhashed = pickle.dumps(job)
        expected = job.job_hash()
        assert pickle.dumps(job) == unhashed
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.job_hash() == expected

    def test_canonical_carries_no_cached_key(self):
        job = self._job()
        before = job.canonical()
        job.job_hash()
        assert job.canonical() == before
        assert set(before) == {
            field.name for field in dataclasses.fields(SimJob)
        }


class TestSchemeFactoryFor:
    def test_explicit_params_derive_rfm_th_from_params(self):
        from repro.engine import scheme_factory_for

        job = SimJob.make(
            workload=WorkloadSpec.make("fft", seed=21),
            scheme="mithril",
            scheme_params={"n_entries": 512, "rfm_th": 64},
            flip_th=6_250,
        )
        factory, rfm_th = scheme_factory_for(job)
        assert rfm_th == 64  # from scheme_params, not silently 0
        assert factory().rfm_th == 64

    def test_job_rfm_th_overrides_scheme_params(self):
        from repro.engine import scheme_factory_for

        job = SimJob.make(
            workload=WorkloadSpec.make("fft", seed=21),
            scheme="mithril",
            scheme_params={"n_entries": 512, "rfm_th": 64},
            rfm_th=128,
        )
        _factory, rfm_th = scheme_factory_for(job)
        assert rfm_th == 128

    def test_paper_config_derives_rfm_th(self):
        from repro.engine import scheme_factory_for
        from repro.params import MITHRIL_DEFAULT_RFM_TH

        job = SimJob(
            workload=WorkloadSpec.make("fft", seed=21),
            scheme="mithril", flip_th=6_250,
        )
        _factory, rfm_th = scheme_factory_for(job)
        assert rfm_th == MITHRIL_DEFAULT_RFM_TH[6_250]


class TestJobPlan:
    def test_duplicate_key_raises(self):
        from repro.engine import JobPlan

        plan = JobPlan()
        job = SimJob(workload=WorkloadSpec.make("fft", seed=21))
        plan.add("a", job)
        with pytest.raises(ValueError):
            plan.add("a", job)
        assert len(plan) == 1


class TestBuildConfig:
    def test_empty_overrides_return_default(self):
        from repro.params import DEFAULT_CONFIG

        assert build_config(()) == DEFAULT_CONFIG

    def test_top_level_and_dotted_overrides(self):
        config = build_config(freeze_params({
            "scheduler": "frfcfs",
            "timings.trefw": 16e6,
            "organization.channels": 1,
        }))
        assert config.scheduler == "frfcfs"
        assert config.timings.trefw == 16e6
        assert config.organization.channels == 1

    def test_unknown_field_raises(self):
        with pytest.raises(TypeError):
            build_config(freeze_params({"no_such_field": 1}))
