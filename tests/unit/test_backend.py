"""Backend selection and cache-invariance contracts."""

import json

import pytest

from repro.sim.backend import (
    BACKEND_ENV,
    NATIVE,
    PYTHON,
    resolve_backend,
)


class TestResolveBackend:
    def test_default_is_native(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() == NATIVE

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert resolve_backend() == PYTHON

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert resolve_backend("python") == PYTHON

    def test_case_and_whitespace_tolerant(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(" Python ") == PYTHON

    def test_unknown_raises(self):
        for name in ("warp", "scalar", "turbo"):
            with pytest.raises(ValueError,
                               match="unknown simulation backend"):
                resolve_backend(name)

    def test_make_system_returns_backend_class(self, monkeypatch):
        """One system class; the backend is the system's attribute and
        decides which drain ``run`` takes."""
        from repro.sim.system import SimulatedSystem, make_system
        from repro.workloads.synthetic import random_access_trace

        traces = [random_access_trace(num_requests=8)]
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        system = make_system(traces)
        assert type(system) is SimulatedSystem
        assert system.backend == NATIVE
        assert make_system(traces, backend="python").backend == PYTHON
        monkeypatch.setenv(BACKEND_ENV, "python")
        system = make_system(traces)
        assert system.backend == PYTHON
        system.run()
        assert system.drain_path == "python"


class TestBackendIsNotAResultDimension:
    """Job hashes and cached payloads are backend-independent."""

    def _tiny_job(self):
        from repro.engine.job import SimJob, WorkloadSpec

        spec = WorkloadSpec.make("mix-high", scale=0.1, seed=11)
        return SimJob(workload=spec, scheme="mithril", flip_th=2500,
                      scale=0.1)

    def test_job_hash_ignores_backend_env(self, monkeypatch):
        job = self._tiny_job()
        monkeypatch.setenv(BACKEND_ENV, "python")
        python_hash = job.job_hash()
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert job.job_hash() == python_hash

    def test_cached_payload_byte_identical_across_backends(
        self, monkeypatch, tmp_path
    ):
        from repro.engine.cache import ResultCache
        from repro.engine.executor import run_jobs

        job = self._tiny_job()
        payloads = {}
        for backend in ("python", "native"):
            cache_dir = tmp_path / backend
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
            monkeypatch.setenv(BACKEND_ENV, backend)
            run_jobs([job], n_jobs=1)
            cache = ResultCache(cache_dir)
            path = cache.path_for(job)
            assert path.exists()
            payloads[backend] = path.read_bytes()
        assert payloads["python"] == payloads["native"]
        entry = json.loads(payloads["native"])
        assert "backend" not in entry  # implementation detail, not data
