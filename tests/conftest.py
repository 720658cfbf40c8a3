"""Shared fixtures: small system configurations that keep tests fast."""

import os

import pytest

from repro.params import DramOrganization, DramTimings, SystemConfig


@pytest.fixture(autouse=True)
def _isolated_sim_cache(tmp_path, monkeypatch):
    """Keep the engine's result cache out of ~/.cache during tests.

    Every test gets a fresh, throwaway cache directory (and campaign
    state directory), so driver runs always exercise the simulate path
    and never leave state behind.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sim-cache"))
    monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "campaigns"))
    # Chaos stays opt-in: a fault plan leaked from the environment (or
    # a prior test forgetting to clean up) must never perturb the
    # suite.  Tests that want injection set REPRO_FAULT_PLAN itself.
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    # Telemetry: off unless a test sets REPRO_TELEMETRY itself — but
    # when the *outer* environment enabled it (the telemetry-smoke CI
    # lane runs the golden suites with telemetry on to prove
    # non-perturbation), keep it enabled and redirect the streams into
    # the test's own tmp dir.  Either way the module-level sink is
    # dropped so no test leaks an open events file into the next.
    if os.environ.get("REPRO_TELEMETRY"):
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "telemetry"))
    else:
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    # Probes follow the same protocol: off unless a test opts in, but
    # an outer REPRO_PROBES (the probe-smoke CI step runs the golden
    # suite with probes on to prove non-perturbation) stays enabled,
    # redirected into the test's tmp dir.
    if os.environ.get("REPRO_PROBES"):
        monkeypatch.setenv("REPRO_PROBES", str(tmp_path / "probes"))
    else:
        monkeypatch.delenv("REPRO_PROBES", raising=False)
    monkeypatch.delenv("REPRO_PROBE_INTERVAL", raising=False)
    from repro import telemetry

    telemetry.reset()
    yield
    telemetry.reset()


@pytest.fixture
def python_drain(monkeypatch):
    """Run native-backend systems on the python loop: the native
    kernel reports itself unavailable (without a warning), as on a host
    without a C compiler."""
    from repro.sim import kernel

    monkeypatch.setattr(kernel, "load", lambda: None)


@pytest.fixture
def timings() -> DramTimings:
    return DramTimings()


@pytest.fixture
def organization() -> DramOrganization:
    return DramOrganization()


@pytest.fixture
def small_config() -> SystemConfig:
    """One channel, eight banks — enough for scheduling behaviour."""
    return SystemConfig().with_organization(channels=1, banks_per_rank=8)
