"""Integration: the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.schemes import scheme_names


class TestCliCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table4" in out

    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "mithril" in out and "blockhammer" in out

    def test_configure(self, capsys):
        assert main(["configure", "6250"]) == 0
        out = capsys.readouterr().out
        assert "RFM_TH" in out
        assert "128" in out

    def test_configure_infeasible(self, capsys):
        assert main(["configure", "10"]) == 1

    def test_experiment_table4(self, capsys):
        assert main(["experiment", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Mithril-32 @ DRAM" in out

    def test_experiment_json(self, capsys):
        assert main(["experiment", "fig2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["arr_graphene_safe_flip_th"] > 0

    def test_safety_mithril_safe(self, capsys):
        code = main([
            "safety", "mithril", "--attack", "double-sided",
            "--acts", "20000", "--flip-th", "3125",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "flips:             0" in out

    def test_safety_none_flips(self, capsys):
        code = main([
            "safety", "none", "--attack", "double-sided",
            "--acts", "20000", "--flip-th", "3125",
        ])
        assert code == 1

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_safety_runs_every_listed_scheme(
        self, scheme, monkeypatch, capsys
    ):
        """Every name ``repro schemes`` lists replays its paper
        configuration, and the exit code is the report's verdict."""
        import repro.cli as cli

        replay, reports = cli.run_safety_trace, []

        def recording(*args, **kwargs):
            reports.append(replay(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run_safety_trace", recording)
        assert main(["schemes"]) == 0
        assert scheme in capsys.readouterr().out.split()
        code = main(["safety", scheme, "--acts", "20000"])
        out = capsys.readouterr().out
        assert len(reports) == 1
        assert f"flips:             {len(reports[0].flips)}" in out
        assert code == (0 if reports[0].safe else 1)

    def test_safety_parfm_uses_appendix_c_rfm_th(self, capsys):
        """At FlipTH 1.5K PARFM runs at Appendix C's RFM_TH of 16, as in
        the simulator: 20,000 ACTs issue 1,250 RFMs."""
        main(["safety", "parfm", "--flip-th", "1500", "--acts", "20000"])
        assert "rfm commands:      1250\n" in capsys.readouterr().out

    def test_safety_rfm_graphene_default_output(self, capsys):
        assert main(["safety", "rfm-graphene"]) == 1
        assert capsys.readouterr().out == (
            "scheme:            RfmGrapheneScheme\n"
            "attack:            double-sided (200000 ACTs)\n"
            "flips:             48\n"
            "max disturbance:   3125 (FlipTH 3125)\n"
            "headroom:          0.0%\n"
            "preventive rows:   196\n"
            "rfm commands:      3125\n"
        )

    def test_experiment_rejects_a_flag_its_driver_lacks(self, capsys):
        assert main(["experiment", "table4", "--scale", "0.5"]) == 1
        assert "does not support --scale" in capsys.readouterr().out

    def test_analytic_experiment_accepts_engine_flags(self, capsys):
        assert main(["experiment", "fig6", "--jobs", "2"]) == 0
        assert "lossy-counting" in capsys.readouterr().out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestCacheCommand:
    def test_gc_dead_generation(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        dead = tmp_path / "deadbeef00000000"
        dead.mkdir(parents=True)
        (dead / "entry.json").write_text("{}")
        assert main(["cache"]) == 0
        assert "dead generations" in capsys.readouterr().out
        assert main(["cache", "--gc", "deadbeef00000000"]) == 0
        assert "removed 1 cached result" in capsys.readouterr().out
        assert not dead.exists()

    def test_gc_stale_spares_the_live_generation(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.engine import code_version

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        live = tmp_path / code_version()
        live.mkdir(parents=True)
        (live / "keep.json").write_text("{}")
        dead = tmp_path / "0123456789abcdef"
        dead.mkdir()
        (dead / "drop.json").write_text("{}")
        assert main(["cache", "--gc", "stale"]) == 0
        assert (live / "keep.json").exists()
        assert not dead.exists()

    def test_gc_refuses_the_live_generation(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.engine import code_version

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "--gc", code_version()]) == 1
        assert "refusing" in capsys.readouterr().out

    def _seed_live_entry(self, tmp_path, monkeypatch):
        from repro.engine import ResultCache, SimJob, WorkloadSpec
        from repro.sim.metrics import SimulationResult
        from repro.types import EnergyCounts

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        job = SimJob(
            workload=WorkloadSpec.make("fft", seed=21, scale=0.1),
            scheme="mithril",
        )
        ResultCache().put(job, SimulationResult(
            scheme_name="MithrilScheme",
            total_cycles=100,
            per_core_instructions=[1],
            per_core_finish_cycles=[100],
            energy=EnergyCounts(acts=1),
            acts=1, row_hits=0, row_misses=1,
        ))
        return job

    def test_stats_reports_live_generation(
        self, tmp_path, monkeypatch, capsys
    ):
        self._seed_live_entry(tmp_path, monkeypatch)
        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "(live)" in out
        assert "entries" in out

    def test_stats_on_empty_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "nothing"))
        assert main(["cache", "--stats"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_stats_covers_flat_dead_generations(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        dead = tmp_path / "deadbeef00000000"
        dead.mkdir(parents=True)
        (dead / "entry.json").write_text('{"job": {"scheme": "none"}}')
        assert main(["cache", "--stats"]) == 0
        assert "deadbeef00000000" in capsys.readouterr().out

    def test_query_by_scheme(self, tmp_path, monkeypatch, capsys):
        self._seed_live_entry(tmp_path, monkeypatch)
        assert main(["cache", "--query", "scheme=mithril"]) == 0
        out = capsys.readouterr().out
        assert "1 entry" in out
        assert main(["cache", "--query", "scheme=graphene"]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_query_bad_key_is_a_clean_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "--query", "nonsense=1"]) == 1
        assert "unknown query key" in capsys.readouterr().out
        assert main(["cache", "--query", "no-equals"]) == 1
        capsys.readouterr()
        assert main(["cache", "--query", "flip_th=abc"]) == 1
        assert "must be an integer" in capsys.readouterr().out



class TestClosedPipe:
    def test_closed_stdout_exits_quietly(self, tmp_path):
        """``repro ... | head -1``: once the reader is gone, the CLI
        exits 1 without a BrokenPipeError traceback."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "list"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestTracesCommands:
    def test_list(self, capsys):
        assert main(["traces", "list"]) == 0
        out = capsys.readouterr().out
        assert "capacity-pressure" in out
        assert "dramsim3-csv" in out
        assert "xor-bank" in out

    def test_synth_check_characterize_roundtrip(self, tmp_path, capsys):
        out_dir = tmp_path / "set"
        assert main([
            "traces", "synth", "row-conflict-heavy", "-o", str(out_dir),
            "--scale", "0.1", "--cores", "2", "--check",
            "--format", "binary", "--gzip",
        ]) == 0
        out = capsys.readouterr().out
        assert "design targets met" in out
        assert (out_dir / "manifest.json").exists()
        assert main(["traces", "characterize", str(out_dir), "--json",
                     "--per-core"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate"]["act_per_access"] >= 0.95
        assert len(payload["cores"]) == 2

    def test_synth_unknown_kind_is_a_clean_error(self, tmp_path, capsys):
        assert main(["traces", "synth", "no-such-kind",
                     "-o", str(tmp_path / "x")]) == 1
        assert "cannot synthesize" in capsys.readouterr().out

    def test_synth_kind_needing_params_is_a_clean_error(
        self, tmp_path, capsys
    ):
        # `attack` is listed but its builder requires `pattern`
        assert main(["traces", "synth", "attack",
                     "-o", str(tmp_path / "x")]) == 1
        assert "cannot synthesize 'attack'" in capsys.readouterr().out

    def test_ingest_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["traces", "ingest", str(tmp_path / "absent.csv"),
                     "-o", str(tmp_path / "x")]) == 1
        assert "ingest failed" in capsys.readouterr().out

    def test_characterize_non_traceset_is_a_clean_error(
        self, tmp_path, capsys
    ):
        assert main(["traces", "characterize", str(tmp_path)]) == 1
        assert "cannot characterize" in capsys.readouterr().out

    def test_ingest_csv(self, tmp_path, capsys):
        source = tmp_path / "log.csv"
        source.write_text("addr,cycle,op\n0x40,10,READ\n0x80,30,WRITE\n")
        out_dir = tmp_path / "imported"
        assert main([
            "traces", "ingest", str(source), "-o", str(out_dir),
            "--name", "import-test", "--mapping", "bank-row-col",
        ]) == 0
        assert "ingested 1 trace(s), 2 requests" in capsys.readouterr().out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["name"] == "import-test"
        sources = manifest["provenance"]["sources"]
        assert sources[0]["mapping"] == "bank-row-col"

    def test_smoke_covers_every_kind(self, capsys):
        from repro.engine import workload_kinds

        assert main(["traces", "smoke", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for kind in workload_kinds():
            assert kind in out

    def test_characterize_shipped_example_set(self, capsys):
        from pathlib import Path

        example = (Path(__file__).resolve().parents[2]
                   / "examples" / "traces" / "example-set")
        assert main(["traces", "characterize", str(example)]) == 0
        assert "act_per_access" in capsys.readouterr().out


class TestProbeCli:
    """`repro probe report` and the probe-aware trace export."""

    def _record_stream(self, tmp_path, monkeypatch, scheme="mithril"):
        from repro.engine.executor import materialize_job
        from repro.engine.job import SimJob, WorkloadSpec
        from repro.sim.system import make_system

        directory = tmp_path / "probes"
        monkeypatch.setenv("REPRO_PROBES", str(directory))
        monkeypatch.setenv("REPRO_PROBE_INTERVAL", "5000")
        spec = WorkloadSpec.make("mix-high", scale=0.2, seed=11)
        job = SimJob(workload=spec, scheme=scheme, flip_th=2500,
                     scale=0.2)
        traces, factory, config, rfm_th = materialize_job(job)
        make_system(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th, backend="python",
        ).run()
        return directory

    def test_probe_report_markdown(self, tmp_path, monkeypatch, capsys):
        directory = self._record_stream(tmp_path, monkeypatch)
        assert main(["probe", "report",
                     "--probes-dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "Probe report" in out
        assert "MithrilScheme" in out
        assert "p95" in out

    def test_probe_report_json_and_output(self, tmp_path, monkeypatch,
                                          capsys):
        directory = self._record_stream(tmp_path, monkeypatch)
        target = tmp_path / "report.json"
        assert main(["probe", "report", "--probes-dir", str(directory),
                     "--json", "--output", str(target)]) == 0
        report = json.loads(target.read_text())
        assert report["streams"] == 1
        assert report["runs"][0]["sealed"]
        assert "p99" in report["runs"][0]["acts_per_interval"]

    def test_probe_report_reads_env_dir(self, tmp_path, monkeypatch,
                                        capsys):
        self._record_stream(tmp_path, monkeypatch)
        # REPRO_PROBES is still set: no --probes-dir needed
        assert main(["probe", "report"]) == 0
        assert "Probe report" in capsys.readouterr().out

    def test_probe_report_errors_without_streams(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.delenv("REPRO_PROBES", raising=False)
        assert main(["probe", "report"]) == 1
        assert "no probe directory" in capsys.readouterr().out
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["probe", "report",
                     "--probes-dir", str(empty)]) == 1
        assert "no probe streams" in capsys.readouterr().out

    def test_trace_export_includes_probe_tracks(self, tmp_path,
                                                monkeypatch, capsys):
        from repro import telemetry

        probes = self._record_stream(tmp_path, monkeypatch)
        tel_dir = tmp_path / "tel"
        monkeypatch.setenv("REPRO_TELEMETRY", str(tel_dir))
        telemetry.reset()
        telemetry.get().event("marker")
        output = tmp_path / "trace.json"
        assert main(["trace", "export",
                     "--telemetry-dir", str(tel_dir),
                     "--probes-dir", str(probes),
                     "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        counters = [e for e in payload["traceEvents"]
                    if e.get("ph") == "C"]
        assert counters
        assert any(e["name"] == "probe.acts" for e in counters)
