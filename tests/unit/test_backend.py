"""Backend selection and cache-invariance contracts."""

import json

import pytest

from repro.sim.backend import (
    BACKEND_ENV,
    SCALAR,
    TURBO,
    resolve_backend,
)


class TestResolveBackend:
    def test_default_is_turbo(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() == TURBO

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "turbo")
        assert resolve_backend() == TURBO

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "turbo")
        assert resolve_backend("scalar") == SCALAR

    def test_case_and_whitespace_tolerant(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(" Scalar ") == SCALAR

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            resolve_backend("warp")

    def test_make_system_returns_backend_class(self, monkeypatch):
        from repro.sim.system import SimulatedSystem, make_system
        from repro.sim.turbo import TurboSimulatedSystem
        from repro.workloads.synthetic import random_access_trace

        traces = [random_access_trace(num_requests=8)]
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert type(make_system(traces)) is TurboSimulatedSystem
        assert type(
            make_system(traces, backend="scalar")
        ) is SimulatedSystem
        monkeypatch.setenv(BACKEND_ENV, "scalar")
        assert type(make_system(traces)) is SimulatedSystem


class TestBackendIsNotAResultDimension:
    """Job hashes and cached payloads are backend-independent."""

    def _tiny_job(self):
        from repro.engine.job import SimJob, WorkloadSpec

        spec = WorkloadSpec.make("mix-high", scale=0.1, seed=11)
        return SimJob(workload=spec, scheme="mithril", flip_th=2500,
                      scale=0.1)

    def test_job_hash_ignores_backend_env(self, monkeypatch):
        job = self._tiny_job()
        monkeypatch.setenv(BACKEND_ENV, "scalar")
        scalar_hash = job.job_hash()
        monkeypatch.setenv(BACKEND_ENV, "turbo")
        assert job.job_hash() == scalar_hash

    def test_cached_payload_byte_identical_across_backends(
        self, monkeypatch, tmp_path
    ):
        from repro.engine.cache import ResultCache
        from repro.engine.executor import run_jobs

        job = self._tiny_job()
        payloads = {}
        for backend in ("scalar", "turbo"):
            cache_dir = tmp_path / backend
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
            monkeypatch.setenv(BACKEND_ENV, backend)
            run_jobs([job], n_jobs=1)
            cache = ResultCache(cache_dir)
            path = cache.path_for(job)
            assert path.exists()
            payloads[backend] = path.read_bytes()
        assert payloads["scalar"] == payloads["turbo"]
        entry = json.loads(payloads["turbo"])
        assert "backend" not in entry  # implementation detail, not data
