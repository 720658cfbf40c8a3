"""Declarative campaign specifications.

A **campaign** is a named set of experiments — figure drivers with
per-experiment parameter overrides (scale, seed batteries, FlipTH or
scheme grids, extra stress-family panels) — that is planned,
deduplicated, executed resumably, and reported as one unit.  The spec
layer is pure data: JSON-serializable, with no knowledge of jobs or
execution (the planner expands specs, the executor runs them).

Built-in campaigns:

``smoke``
    A minutes-long end-to-end exercise of the whole pipeline (CI's
    campaign-smoke job and the test suite use it).
``stress-panel``
    The three PR-3 stress families (capacity-pressure,
    row-conflict-heavy, multi-channel-imbalanced) run through the
    legacy-scheme figure (fig11) and the Mithril-tradeoff figure
    (fig9) as extra per-family panels.
``paper-scale``
    fig7/fig9/fig10/fig11 at ``scale=2.0`` with the full FlipTH grids
    and an extended attack-seed battery — the ROADMAP's
    "scale the sweeps" target, sized for an overnight run that the
    resumable executor can survive in pieces.

Custom campaigns load from JSON files with the same shape as
:meth:`CampaignSpec.to_dict` (see docs/CAMPAIGNS.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

#: The PR-3 stress families (registered workload kinds).
STRESS_FAMILIES = (
    "capacity-pressure",
    "row-conflict-heavy",
    "multi-channel-imbalanced",
)

#: Extended attack-seed battery for paper-scale runs (the CI default
#: is the first three; short closed-loop attack traces are
#: interleaving-phase sensitive, so more seeds tighten the average).
PAPER_SCALE_ATTACK_SEEDS = (31, 41, 51, 61, 71)


class CampaignError(ValueError):
    """A campaign spec or plan that cannot be satisfied."""


@dataclass
class ExperimentSpec:
    """One experiment of a campaign: a driver plus its overrides.

    ``kind`` names a registered experiment driver
    (:data:`repro.experiments.runner.EXPERIMENTS`) that exports
    ``build_plan``; ``params`` are keyword arguments passed verbatim to
    that ``build_plan`` (so anything the driver sweeps — scale,
    flip_thresholds, schemes, attack_seeds, sweep, extra_workloads — is
    overridable per experiment).
    """

    name: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            params=dict(data.get("params") or {}),
        )


@dataclass
class CampaignSpec:
    """A named, ordered set of experiments run as one unit."""

    name: str
    description: str = ""
    experiments: List[ExperimentSpec] = field(default_factory=list)

    def validate(self) -> None:
        from repro.experiments.runner import EXPERIMENTS

        if not self.name:
            raise CampaignError("campaign name must be non-empty")
        if not self.experiments:
            raise CampaignError(
                f"campaign {self.name!r} declares no experiments"
            )
        seen = set()
        for experiment in self.experiments:
            if experiment.name in seen:
                raise CampaignError(
                    f"campaign {self.name!r} has duplicate experiment "
                    f"name {experiment.name!r}"
                )
            seen.add(experiment.name)
            if experiment.kind not in EXPERIMENTS:
                raise CampaignError(
                    f"experiment {experiment.name!r} references unknown "
                    f"driver {experiment.kind!r}; known: "
                    f"{', '.join(EXPERIMENTS)}"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "experiments": [e.to_dict() for e in self.experiments],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        spec = cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            experiments=[
                ExperimentSpec.from_dict(entry)
                for entry in data.get("experiments") or []
            ],
        )
        spec.validate()
        return spec


def builtin_campaigns() -> Dict[str, CampaignSpec]:
    """The shipped campaigns, keyed by name."""
    stress = list(STRESS_FAMILIES)
    seeds = list(PAPER_SCALE_ATTACK_SEEDS)
    campaigns = [
        CampaignSpec(
            name="smoke",
            description=(
                "Tiny end-to-end pipeline exercise: one fig9 point and "
                "one fig11 point with a stress panel each, CI-sized"
            ),
            experiments=[
                ExperimentSpec(
                    name="fig9-smoke",
                    kind="fig9",
                    params={
                        "scale": 0.1,
                        "sweep": [[6_250, 64]],
                        "extra_workloads": ["capacity-pressure"],
                    },
                ),
                ExperimentSpec(
                    name="fig11-smoke",
                    kind="fig11",
                    params={
                        "scale": 0.1,
                        "flip_thresholds": [6_250],
                        "schemes": ["mithril"],
                        "attack_seeds": [31],
                        "extra_workloads": ["row-conflict-heavy"],
                    },
                ),
            ],
        ),
        CampaignSpec(
            name="stress-panel",
            description=(
                "The three trace-foundry stress families through the "
                "legacy-scheme figure (fig11) and the Mithril-tradeoff "
                "figure (fig9) as per-family panels"
            ),
            experiments=[
                ExperimentSpec(
                    name="fig11-stress",
                    kind="fig11",
                    params={
                        "scale": 1.0,
                        "flip_thresholds": [6_250, 3_125],
                        "attack_seeds": [31],
                        "extra_workloads": stress,
                    },
                ),
                ExperimentSpec(
                    name="fig9-stress",
                    kind="fig9",
                    params={
                        "scale": 1.0,
                        "sweep": [[6_250, 256], [6_250, 128], [6_250, 64]],
                        "extra_workloads": stress,
                    },
                ),
            ],
        ),
        CampaignSpec(
            name="paper-scale",
            description=(
                "fig7/fig9/fig10/fig11 at scale 2.0 with the full "
                "FlipTH grids and the extended attack-seed battery — "
                "the precision run the result cache and resumable "
                "executor exist for"
            ),
            experiments=[
                ExperimentSpec(
                    name="fig7-paper", kind="fig7", params={"scale": 2.0}
                ),
                ExperimentSpec(
                    name="fig9-paper", kind="fig9", params={"scale": 2.0}
                ),
                ExperimentSpec(
                    name="fig10-paper",
                    kind="fig10",
                    params={"scale": 2.0, "attack_seeds": seeds},
                ),
                ExperimentSpec(
                    name="fig11-paper",
                    kind="fig11",
                    params={"scale": 2.0, "attack_seeds": seeds},
                ),
            ],
        ),
    ]
    return {campaign.name: campaign for campaign in campaigns}


def get_campaign(name_or_path: str) -> CampaignSpec:
    """Resolve a campaign by built-in name or JSON spec file path."""
    campaigns = builtin_campaigns()
    if name_or_path in campaigns:
        return campaigns[name_or_path]
    path = Path(name_or_path)
    if path.suffix == ".json" or path.exists():
        try:
            return CampaignSpec.from_dict(json.loads(path.read_text()))
        except OSError as error:
            raise CampaignError(
                f"cannot read campaign spec {name_or_path!r}: {error}"
            ) from error
        except (ValueError, KeyError, TypeError) as error:
            if isinstance(error, CampaignError):
                raise
            raise CampaignError(
                f"malformed campaign spec {name_or_path!r}: {error}"
            ) from error
    raise CampaignError(
        f"unknown campaign {name_or_path!r}; built-ins: "
        f"{', '.join(sorted(campaigns))} (or a path to a spec .json)"
    )


def campaign_dir(override: Optional[str] = None) -> Path:
    """The root directory holding campaign manifests and reports.

    ``REPRO_CAMPAIGN_DIR`` overrides the default
    ``~/.cache/repro/campaigns`` (tests point it at a tmpdir).
    """
    import os

    if override:
        return Path(override)
    env = os.environ.get("REPRO_CAMPAIGN_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "campaigns"
