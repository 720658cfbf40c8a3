"""Unit tests for campaign specs and the planner (no simulation)."""

import json

import pytest

from repro.campaigns import (
    CampaignError,
    CampaignSpec,
    ExperimentSpec,
    builtin_campaigns,
    campaign_dir,
    get_campaign,
    plan_campaign,
)

TINY = dict(
    scale=0.05, flip_thresholds=[6_250], schemes=["mithril"],
    attack_seeds=[31],
)


def _spec(**params):
    merged = {**TINY, **params}
    return CampaignSpec(
        name="t",
        experiments=[ExperimentSpec(name="e1", kind="fig11",
                                    params=merged)],
    )


class TestSpec:
    def test_builtins_validate_and_cover_the_issue_set(self):
        campaigns = builtin_campaigns()
        assert {"smoke", "stress-panel", "paper-scale"} <= set(campaigns)
        for spec in campaigns.values():
            spec.validate()
        paper = campaigns["paper-scale"]
        assert {e.kind for e in paper.experiments} == {
            "fig7", "fig9", "fig10", "fig11"
        }
        assert all(
            e.params.get("scale") == 2.0 for e in paper.experiments
        )
        stress = campaigns["stress-panel"]
        for experiment in stress.experiments:
            assert len(experiment.params["extra_workloads"]) == 3

    def test_round_trips_via_dict(self):
        spec = builtin_campaigns()["stress-panel"]
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()

    def test_duplicate_experiment_names_rejected(self):
        spec = CampaignSpec(
            name="dup",
            experiments=[
                ExperimentSpec(name="same", kind="fig11"),
                ExperimentSpec(name="same", kind="fig9"),
            ],
        )
        with pytest.raises(CampaignError, match="duplicate"):
            spec.validate()

    def test_unknown_driver_rejected(self):
        spec = CampaignSpec(
            name="bad",
            experiments=[ExperimentSpec(name="x", kind="fig99")],
        )
        with pytest.raises(CampaignError, match="unknown"):
            spec.validate()

    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignError, match="no experiments"):
            CampaignSpec(name="empty").validate()

    def test_get_campaign_resolves_builtin_and_file(self, tmp_path):
        assert get_campaign("smoke").name == "smoke"
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(_spec().to_dict()))
        loaded = get_campaign(str(path))
        assert loaded.name == "t"
        assert loaded.experiments[0].kind == "fig11"

    def test_get_campaign_unknown_is_a_campaign_error(self):
        with pytest.raises(CampaignError, match="unknown campaign"):
            get_campaign("no-such-campaign")

    def test_get_campaign_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError, match="malformed"):
            get_campaign(str(path))

    def test_campaign_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        assert campaign_dir() == tmp_path
        assert campaign_dir(str(tmp_path / "x")) == tmp_path / "x"


class TestPlanner:
    def test_plan_expands_with_provenance(self):
        spec = CampaignSpec(
            name="two",
            experiments=[
                ExperimentSpec(name="a", kind="fig11", params=dict(TINY)),
                ExperimentSpec(
                    name="b", kind="fig9",
                    params={"scale": 0.05, "sweep": [[6_250, 64]]},
                ),
            ],
        )
        plan = plan_campaign(spec)
        assert plan.requested_points > plan.total_points  # shared bases
        assert plan.shared_points >= 5  # the benign-suite baselines
        for job_hash, wanted in plan.wanted_by.items():
            assert wanted  # every job attributed
            assert job_hash in plan.jobs
        by_name = {e.name: e for e in plan.experiments}
        assert by_name["a"].points == 12
        assert by_name["b"].points == 15
        summary = plan.summary()
        assert summary["total_points"] == plan.total_points
        assert json.dumps(summary)  # JSON-serializable throughout

    def test_scale_override_rewrites_every_experiment(self):
        plan = plan_campaign(get_campaign("stress-panel"), scale=0.05)
        assert all(
            e.params["scale"] == 0.05 for e in plan.experiments
        )

    def test_unplannable_driver_is_a_campaign_error(self):
        spec = CampaignSpec(
            name="analytic",
            experiments=[ExperimentSpec(name="t4", kind="table4")],
        )
        with pytest.raises(CampaignError, match="build_plan"):
            plan_campaign(spec)

    def test_bad_params_surface_the_experiment_name(self):
        spec = _spec(no_such_param=1)
        with pytest.raises(CampaignError, match="e1"):
            plan_campaign(spec)

    def test_planning_never_simulates(self, monkeypatch):
        import repro.engine.executor as executor

        def boom(*_a, **_k):
            raise AssertionError("planning must not execute jobs")

        monkeypatch.setattr(executor, "execute_job", boom)
        monkeypatch.setattr(executor, "run_jobs", boom)
        plan = plan_campaign(get_campaign("smoke"))
        assert plan.total_points > 0
