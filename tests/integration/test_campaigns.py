"""Integration: resumable campaigns end to end.

Covers the ISSUE's campaign acceptance criteria at CI scale:

* a killed campaign resumes with zero re-simulated completed points
  (asserted through ``run_jobs.last_stats`` aggregation);
* the manifest converges — reruns of a complete campaign submit
  nothing and leave the completion set untouched;
* ``campaign run stress-panel`` yields a report with per-family
  slowdown panels for both figure experiments.
"""

import json

import pytest

import repro.campaigns.executor as campaign_executor
from repro.campaigns import (
    CampaignManifest,
    CampaignSpec,
    ExperimentSpec,
    build_report,
    format_report,
    get_campaign,
    manifest_path,
    plan_campaign,
    run_campaign,
)
from repro.engine.executor import run_jobs

TINY = 0.05


def _tiny_spec():
    """One fig11 sweep: 12 distinct points at trivial scale."""
    return CampaignSpec(
        name="resume-test",
        experiments=[
            ExperimentSpec(
                name="f11",
                kind="fig11",
                params=dict(
                    scale=TINY, flip_thresholds=[6_250],
                    schemes=["mithril"], attack_seeds=[31],
                ),
            )
        ],
    )


class TestResumability:
    def test_killed_campaign_resumes_without_resimulating(
        self, monkeypatch
    ):
        spec = _tiny_spec()
        total = plan_campaign(spec).total_points

        # -- run 1: the executor dies after its first batch ------------
        calls = {"batches": 0}

        def dying_run_jobs(jobs, **kwargs):
            if calls["batches"] >= 1:
                raise KeyboardInterrupt("simulated kill")
            calls["batches"] += 1
            results = run_jobs(jobs, **kwargs)
            dying_run_jobs.last_stats = run_jobs.last_stats
            return results

        dying_run_jobs.last_stats = None
        monkeypatch.setattr(
            campaign_executor, "run_jobs", dying_run_jobs
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, batch_size=5)
        monkeypatch.setattr(campaign_executor, "run_jobs", run_jobs)

        manifest = CampaignManifest.load(manifest_path(spec.name))
        assert manifest is not None
        assert len(manifest.completed) == 5
        assert manifest.status == "running"

        # -- run 2: resumes; the 5 completed points are not
        # resubmitted, let alone re-simulated -------------------------
        result = run_campaign(spec, batch_size=5)
        assert result.complete
        assert result.stats.previously_complete == 5
        assert result.stats.submitted == total - 5
        assert result.stats.simulated == total - 5
        assert result.stats.cache_hits == 0

        # -- run 3: the manifest has converged — nothing submitted,
        # 0 simulate calls, completion set byte-stable ----------------
        before = set(
            CampaignManifest.load(manifest_path(spec.name)).completed
        )
        result = run_campaign(spec, batch_size=5)
        assert result.complete
        assert result.stats.submitted == 0
        assert result.stats.simulated == 0
        after_manifest = CampaignManifest.load(manifest_path(spec.name))
        assert set(after_manifest.completed) == before
        assert after_manifest.status == "complete"

        # the experiment replays entirely from cache: 0 simulate calls
        from repro.experiments import run_experiment

        run_experiment(
            "fig11", scale=TINY, flip_thresholds=(6_250,),
            schemes=("mithril",), attack_seeds=(31,),
        )
        assert run_jobs.last_stats.simulated == 0

    def test_code_version_change_resets_completion(self, monkeypatch):
        spec = _tiny_spec()
        run_campaign(spec, batch_size=100)
        path = manifest_path(spec.name)
        data = json.loads(path.read_text())
        data["code_version"] = "0000000000000000"
        path.write_text(json.dumps(data))
        plan = plan_campaign(spec)
        manifest = CampaignManifest.for_plan(path, plan)
        assert manifest.completed == []
        assert any(
            "completion reset" in note
            for note in manifest.data.get("notes", [])
        )

    def test_dry_run_pending_count_respects_code_version(
        self, capsys
    ):
        """A stale-code-version manifest must not make --dry-run
        promise completion the real run would not honour."""
        from repro.cli import main

        spec = _tiny_spec()
        total = plan_campaign(spec).total_points
        run_campaign(spec)
        path = manifest_path(spec.name)
        spec_file = path.parent / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))

        assert main([
            "campaign", "run", str(spec_file), "--dry-run",
        ]) == 0
        out = capsys.readouterr().out
        assert f"would submit 0 point(s) ({total} already" in out

        data = json.loads(path.read_text())
        data["code_version"] = "0000000000000000"
        path.write_text(json.dumps(data))
        assert main([
            "campaign", "run", str(spec_file), "--dry-run",
        ]) == 0
        out = capsys.readouterr().out
        assert f"would submit {total} point(s) (0 already" in out

    def test_noop_resume_leaves_the_store_untouched(self):
        from repro.engine import ResultCache

        spec = _tiny_spec()
        run_campaign(spec)
        live = ResultCache().version_dir()

        def snapshot():
            return {
                path: path.stat().st_mtime_ns
                for path in live.rglob("*") if path.is_file()
            }

        before = snapshot()
        assert len(before) == len(plan_campaign(spec).jobs)
        run_campaign(spec)  # zero-submission resume
        assert snapshot() == before

    def test_distributed_noop_resume_starts_no_agent(self, monkeypatch):
        """``hosts > 0`` over a completed manifest drives the
        coordinator branch of run_campaign without launching a single
        agent: the run is recorded, nothing is submitted, and
        ``stats.hosts`` stays 0."""
        from repro.cluster.coordinator import LocalAgentLauncher

        spec = _tiny_spec()
        assert run_campaign(spec).complete

        def no_launch(self, host_id):
            raise AssertionError(f"agent {host_id} launched")

        monkeypatch.setattr(LocalAgentLauncher, "launch", no_launch)
        path = manifest_path(spec.name)
        runs_before = len(json.loads(path.read_text())["runs"])
        result = run_campaign(spec, hosts=2)
        assert result.complete
        assert result.stats.hosts == 0
        assert result.stats.submitted == 0
        assert result.stats.simulated == 0
        runs = json.loads(path.read_text())["runs"]
        assert len(runs) == runs_before + 1
        assert runs[-1]["distributed"] is True
        assert runs[-1]["hosts"] == 0

    def test_cli_verify_audits_exactly_once(self, capsys):
        """`campaign verify` signs off a completed campaign and flags
        a store entry that goes missing behind the manifest's back."""
        from repro.cli import main
        from repro.engine import ResultCache

        spec = _tiny_spec()
        run_campaign(spec)
        spec_file = manifest_path(spec.name).parent / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))

        assert main([
            "campaign", "verify", str(spec_file), "--strict",
        ]) == 0
        out = capsys.readouterr().out
        assert "verdict:     OK" in out

        victim = sorted(plan_campaign(spec).jobs.values(),
                        key=lambda job: job.job_hash())[0]
        ResultCache().path_for(victim).unlink()
        assert main(["campaign", "verify", str(spec_file)]) == 1
        out = capsys.readouterr().out
        assert "missing:     1" in out

    def test_cli_verify_exit_code_contract(self, capsys):
        """The documented 0/1/2 contract: clean, findings, unreadable
        — each with a machine-readable --json shape carrying the exit
        code so scripts never parse prose."""
        from repro.cli import main
        from repro.engine import ResultCache

        spec = _tiny_spec()
        run_campaign(spec)
        spec_file = manifest_path(spec.name).parent / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))

        # 0: clean (strict included), with the JSON payload agreeing
        assert main([
            "campaign", "verify", str(spec_file), "--strict", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["strict_ok"] is True
        assert payload["exit_code"] == 0
        assert payload["verified"] == payload["planned"]

        # 1: findings — a store entry vanishes behind the manifest
        victim = sorted(plan_campaign(spec).jobs.values(),
                        key=lambda job: job.job_hash())[0]
        ResultCache().path_for(victim).unlink()
        assert main([
            "campaign", "verify", str(spec_file), "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["ok"] is False
        assert len(payload["missing"]) == 1

        # 2: unreadable state — the spec cannot be resolved at all
        assert main(["campaign", "verify", "no-such-campaign"]) == 2
        capsys.readouterr()
        assert main([
            "campaign", "verify", "no-such-campaign", "--json",
        ]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert "error" in payload

    def test_cli_verify_strict_flags_quarantine_as_findings(
        self, capsys, monkeypatch
    ):
        """A campaign whose only blemish is a quarantined point is ok
        under the default audit (exit 0) but a finding under
        --strict (exit 1)."""
        from repro.cli import main
        from repro.faults import FAULT_PLAN_ENV

        spec = _tiny_spec()
        poison = sorted(plan_campaign(spec).jobs)[0]
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
            "faults": [{"site": "worker.execute", "kind": "error",
                        "match": poison, "times": None}],
        }))
        run_campaign(spec, max_retries=0)
        monkeypatch.delenv(FAULT_PLAN_ENV)
        spec_file = manifest_path(spec.name).parent / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))

        assert main(["campaign", "verify", str(spec_file)]) == 0
        capsys.readouterr()
        assert main([
            "campaign", "verify", str(spec_file), "--strict", "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["strict_ok"] is False
        assert payload["exit_code"] == 1
        assert poison in payload["quarantined"]

    def test_dry_run_never_simulates(self, monkeypatch):
        def boom(*_a, **_k):
            raise AssertionError("dry run must not execute jobs")

        monkeypatch.setattr(campaign_executor, "run_jobs", boom)
        from repro.cli import main

        assert main([
            "campaign", "run", "smoke", "--scale", str(TINY), "--dry-run",
        ]) == 0


class TestCampaignRunAndReport:
    @pytest.mark.slow
    def test_stress_panel_report_has_per_family_panels(self, capsys):
        """ISSUE acceptance, shrunk: per-family slowdown panels for
        both figure experiments of the stress-panel campaign."""
        from repro.cli import main

        assert main([
            "campaign", "run", "stress-panel", "--scale", "0.02",
            "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "report:" in out

        spec = get_campaign("stress-panel")
        report = build_report(spec)
        assert report["status"] == "complete"
        families = (
            "capacity-pressure",
            "row-conflict-heavy",
            "multi-channel-imbalanced",
        )
        experiments_with_panels = 0
        for experiment in report["experiments"]:
            assert experiment["replay"]["simulated"] == 0
            if experiment["panels"]:
                experiments_with_panels += 1
                assert set(experiment["panels"]) == set(families)
                assert experiment["panel_slowdowns"]
        assert experiments_with_panels >= 2

        rendered = format_report(report)
        for family in families:
            assert f"panel: {family}" in rendered
        assert "slowdown" in rendered

    def test_smoke_campaign_end_to_end_cli(self, tmp_path, capsys):
        """plan → run → status → report, the CI smoke sequence."""
        from repro.cli import main

        scale = ["--scale", str(TINY)]
        assert main(["campaign", "list"]) == 0
        assert "stress-panel" in capsys.readouterr().out

        assert main(["campaign", "plan", "smoke", *scale]) == 0
        out = capsys.readouterr().out
        assert "deduplicated" in out

        assert main(["campaign", "status", "smoke"]) == 1  # never ran
        capsys.readouterr()

        assert main(["campaign", "run", "smoke", *scale]) == 0
        capsys.readouterr()

        assert main(["campaign", "status", "smoke", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["status"] == "complete"
        assert status["completed_points"] == status["total_points"]
        assert all(
            e["completed"] == e["points"] for e in status["experiments"]
        )

        report_file = tmp_path / "report.md"
        assert main([
            "campaign", "report", "smoke", "--output", str(report_file),
        ]) == 0
        rendered = report_file.read_text()
        assert "# Campaign report: smoke" in rendered
        assert "panel: capacity-pressure" in rendered
        assert "panel: row-conflict-heavy" in rendered

        # rerunning after completion submits nothing
        assert main(["campaign", "run", "smoke", *scale]) == 0
        assert "0 simulated" in capsys.readouterr().out

    def test_custom_spec_file_runs(self, tmp_path):
        spec_file = tmp_path / "custom.json"
        spec_file.write_text(json.dumps(_tiny_spec().to_dict()))
        from repro.cli import main

        assert main([
            "campaign", "run", str(spec_file), "--batch-size", "6",
        ]) == 0
        manifest = CampaignManifest.load(manifest_path("resume-test"))
        assert manifest.status == "complete"

    def test_experiment_query_reads_the_manifests(self, capsys):
        from repro.campaigns import campaign_dir
        from repro.cli import main

        spec = _tiny_spec()
        run_campaign(spec)
        torn = campaign_dir() / "torn" / "manifest.json"
        torn.parent.mkdir()
        torn.write_text('{"experiments": [')
        total = plan_campaign(spec).total_points
        assert main(["cache", "--query", "experiment=f11"]) == 0
        assert capsys.readouterr().out.startswith(f"{total} entries")
        assert main(["cache", "--query", "experiment=f11,scheme=none"]) == 0
        assert capsys.readouterr().out.startswith(f"{total // 2} entries")
        assert main(["cache", "--query", "experiment=nope"]) == 0
        assert capsys.readouterr().out.startswith("0 entries")
        # read as plain JSON: the unparsable manifest is skipped, not
        # quarantined or replaced
        assert sorted(p.name for p in torn.parent.iterdir()) == [
            "manifest.json"
        ]

    def test_experiment_query_counts_the_stored_points_after_quarantine(
        self, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.faults import FAULT_PLAN_ENV

        spec = _tiny_spec()
        plan = plan_campaign(spec)
        poison = sorted(plan.jobs)[0]
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
            "faults": [{"site": "worker.execute", "kind": "error",
                        "match": poison, "times": None}],
        }))
        result = run_campaign(spec, max_retries=0)
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert list(result.quarantined) == [poison]
        assert main(["cache", "--query", "experiment=f11"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{plan.total_points - 1} entries")


class TestExtraWorkloadsPanels:
    """The satellite: stress families as figure-driver extra panels."""

    def test_fig11_panel_rows(self):
        from repro.experiments import run_experiment

        rows = run_experiment(
            "fig11", scale=TINY, flip_thresholds=(6_250,),
            schemes=("mithril",), attack_seeds=(31,),
            extra_workloads=("capacity-pressure", "row-conflict-heavy"),
        )
        panels = [row for row in rows if "panel" in row]
        assert {row["panel"] for row in panels} == {
            "capacity-pressure", "row-conflict-heavy"
        }
        for row in panels:
            assert 0 < row["rel_perf_pct"] <= 100.5
            assert "energy_overhead_pct" in row

    def test_fig9_panel_rows(self):
        from repro.experiments import run_experiment

        rows = run_experiment(
            "fig9", scale=TINY, sweep=((6_250, 64),),
            extra_workloads=("multi-channel-imbalanced",),
        )
        panels = [row for row in rows if "panel" in row]
        assert len(panels) == 1
        assert panels[0]["panel"] == "multi-channel-imbalanced"
        assert "mithril_rel_perf_pct" in panels[0]
        assert "mithril_plus_rel_perf_pct" in panels[0]

    def test_panels_default_off_and_rows_unchanged(self):
        from repro.experiments import run_experiment

        rows = run_experiment(
            "fig11", scale=TINY, flip_thresholds=(6_250,),
            schemes=("mithril",), attack_seeds=(31,),
        )
        assert all("panel" not in row for row in rows)

    def test_driver_without_support_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main([
            "experiment", "table4",
            "--extra-workloads", "capacity-pressure",
        ]) == 1
        assert "does not support" in capsys.readouterr().out
