"""Probe streams are byte-identical across backends and perturb nothing.

The probe layer (:mod:`repro.sim.probes`) samples scheme internals at
fixed cycle intervals from the python event loop.  A probed run takes
that loop on either backend (the native kernel does not sample), so
for every scheme family the ``python`` and ``native`` backends must
emit probe streams whose file contents are *equal bytes*, while the
``SimulationResult`` stays identical to a probes-off run — which on
the native backend is a kernel run.  The battery also covers issue
tables built across trace-iterator blocks, seal verification, the
probes-off zero-file guarantee, and the report/Perfetto renderers.

The backend parameters keep the ids ``scalar`` (python) and ``turbo``
(native) so test ids stay stable across the backend rename.
"""

import json

import pytest

from repro.engine.executor import materialize_job
from repro.engine.job import SimJob, WorkloadSpec
from repro.sim.probes import probe_files, read_probe_stream
from repro.sim.system import make_system
from repro.workloads import trace as trace_module


def _job(scheme, workload="mix-high", seed=11, **kwargs):
    spec = WorkloadSpec.make(workload, scale=0.2, seed=seed)
    return SimJob(workload=spec, scheme=scheme, flip_th=2500,
                  scale=0.2, **kwargs)


def _run_probed(job, backend, directory, monkeypatch, interval="5000"):
    """Run ``job`` on ``backend`` with probes into ``directory``; a
    probed run always takes the python loop."""
    monkeypatch.setenv("REPRO_PROBES", str(directory))
    monkeypatch.setenv("REPRO_PROBE_INTERVAL", interval)
    traces, factory, config, rfm_th = materialize_job(job)
    system = make_system(
        traces,
        scheme_factory=factory,
        config=config,
        rfm_th=rfm_th,
        flip_th=job.flip_th,
        mlp=job.mlp,
        track_hammer=job.track_hammer,
        backend=backend,
    )
    result = system.run(max_cycles=job.max_cycles)
    assert system.drain_path == "python"
    return result


def _run_plain(job, backend, monkeypatch):
    monkeypatch.delenv("REPRO_PROBES", raising=False)
    traces, factory, config, rfm_th = materialize_job(job)
    system = make_system(
        traces,
        scheme_factory=factory,
        config=config,
        rfm_th=rfm_th,
        flip_th=job.flip_th,
        mlp=job.mlp,
        track_hammer=job.track_hammer,
        backend=backend,
    )
    return system.run(max_cycles=job.max_cycles)


def _single_stream(directory):
    [path] = probe_files(directory)
    return path


class TestCrossBackendParity:
    """Python vs native backend probe streams, byte for byte, per
    scheme, and equal to the unprobed kernel run's result."""

    @pytest.mark.parametrize(
        "scheme",
        ["none", "mithril", "mithril+", "graphene", "blockhammer",
         "twice"],
    )
    def test_streams_byte_identical(self, scheme, tmp_path, monkeypatch):
        job = _job(scheme)
        results = {}
        texts = {}
        for backend in ("python", "native"):
            directory = tmp_path / backend
            results[backend] = _run_probed(
                job, backend, directory, monkeypatch
            )
            path = _single_stream(directory)
            texts[backend] = path.read_text()
            records, sealed = read_probe_stream(path)
            assert sealed, f"{backend} stream not sealed"
            assert any(r["k"] == "sample" for r in records)
        assert results["python"] == results["native"]
        assert texts["python"] == texts["native"]
        assert _run_plain(job, "native", monkeypatch) == results["native"]

    def test_mixed_blockhammer_mithril_banks(self, tmp_path, monkeypatch):
        """Banks alternating BlockHammer and Mithril: both backends
        sample the same mixed system identically."""
        from repro.core.mithril import MithrilScheme

        spec = WorkloadSpec.make(
            "attack", scale=0.2, pattern="multi-sided", seed=31
        )
        job = SimJob(workload=spec, scheme="blockhammer", flip_th=2500,
                     scale=0.2)
        traces, bh_factory, config, rfm_th = materialize_job(job)

        def alternating_factory():
            state = {"count": 0}

            def factory():
                state["count"] += 1
                if state["count"] % 2:
                    return bh_factory()
                return MithrilScheme()

            return factory

        monkeypatch.setenv("REPRO_PROBE_INTERVAL", "2000")
        results = {}
        texts = {}
        for name in ("python", "native"):
            directory = tmp_path / name
            monkeypatch.setenv("REPRO_PROBES", str(directory))
            system = make_system(
                traces, scheme_factory=alternating_factory(),
                config=config, rfm_th=rfm_th, flip_th=job.flip_th,
                backend=name,
            )
            results[name] = system.run()
            path = _single_stream(directory)
            texts[name] = path.read_text()
            records, sealed = read_probe_stream(path)
            assert sealed
            assert sum(r["k"] == "sample" for r in records) >= 2
        assert results["python"] == results["native"]
        assert texts["python"] == texts["native"]

    def test_parity_through_chunked_decode(self, tmp_path, monkeypatch):
        """Issue tables built from 64-entry iterator blocks sample the
        same stream as one-block tables."""
        job = _job("mithril")
        texts = {}
        for block in (None, 64):
            if block is not None:
                monkeypatch.setattr(trace_module, "_ITER_BLOCK", block)
            directory = tmp_path / f"block-{block}"
            _run_probed(job, "python", directory, monkeypatch)
            texts[block] = _single_stream(directory).read_text()
        assert texts[None] == texts[64]


class TestNonPerturbation:
    """Probing must never change what the simulation computes."""

    @pytest.mark.parametrize(
        "backend", ["python", "native"], ids=["scalar", "turbo"]
    )
    @pytest.mark.parametrize("scheme", ["mithril", "blockhammer"])
    def test_results_match_probes_off(self, backend, scheme, tmp_path,
                                      monkeypatch):
        job = _job(scheme)
        plain = _run_plain(job, backend, monkeypatch)
        probed = _run_probed(job, backend, tmp_path / "p", monkeypatch)
        assert plain == probed

    def test_probes_off_writes_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROBES", raising=False)
        _run_plain(_job("mithril"), "python", monkeypatch)
        assert probe_files(tmp_path) == []
        assert not list(tmp_path.glob("probes-*"))


class TestStreamContents:
    def test_records_are_canonical_and_sealed(self, tmp_path,
                                              monkeypatch):
        _run_probed(_job("mithril"), "python", tmp_path, monkeypatch)
        path = _single_stream(tmp_path)
        lines = path.read_text().splitlines()
        for line in lines:
            record = json.loads(line)
            # canonical encoding round-trips exactly
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )
        kinds = [json.loads(line)["k"] for line in lines]
        assert kinds[0] == "header"
        assert kinds[-1] == "seal"
        assert kinds[-2] == "final"
        assert kinds.count("sample") >= 2

    def test_sample_schedule_and_monotone_counters(self, tmp_path,
                                                   monkeypatch):
        _run_probed(_job("mithril"), "python", tmp_path, monkeypatch,
                    interval="5000")
        records, sealed = read_probe_stream(_single_stream(tmp_path))
        assert sealed
        samples = [r for r in records if r["k"] == "sample"]
        cycles = [s["cycle"] for s in samples]
        assert cycles == sorted(set(cycles))
        assert all(c >= 5000 for c in cycles)
        acts = [sum(s["acts"]) for s in samples]
        assert acts == sorted(acts)
        raa_caps = [max(s["raa"]) for s in samples]
        assert all(cap >= 0 for cap in raa_caps)

    def test_torn_stream_reads_unsealed(self, tmp_path, monkeypatch):
        _run_probed(_job("mithril"), "python", tmp_path, monkeypatch)
        path = _single_stream(tmp_path)
        text = path.read_text()
        # chop the seal line in half: a crash mid-append
        path.write_text(text[: len(text) - 20])
        records, sealed = read_probe_stream(path)
        assert not sealed
        assert any(r["k"] == "sample" for r in records)


class TestProbeReport:
    def test_report_renders_percentile_panels(self, tmp_path,
                                              monkeypatch):
        from repro.analysis.probe_report import (
            build_probe_report,
            format_probe_report,
        )

        for scheme in ("mithril", "blockhammer"):
            _run_probed(_job(scheme), "python", tmp_path, monkeypatch)
        report = build_probe_report(tmp_path)
        assert report["streams"] == 2
        schemes = {run["scheme"] for run in report["runs"]}
        assert schemes == {"MithrilScheme", "BlockHammerScheme"}
        for run in report["runs"]:
            assert run["sealed"]
            summary = run["acts_per_interval"]
            for key in ("p50", "p95", "p99"):
                assert key in summary
        text = format_probe_report(report)
        assert "p50" in text and "p95" in text and "p99" in text
        assert "CbS" in text
        assert "throttle latency" in text

    def test_perfetto_probe_tracks_validate(self, tmp_path,
                                            monkeypatch):
        from repro.telemetry.perfetto import (
            probe_counter_events,
            validate_perfetto,
        )

        _run_probed(_job("mithril"), "python", tmp_path, monkeypatch)
        events = probe_counter_events(tmp_path)
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert {"probe.acts", "probe.raa", "probe.cbs_entries"} <= names
        assert validate_perfetto({"traceEvents": events}) == []
