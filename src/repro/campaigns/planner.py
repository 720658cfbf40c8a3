"""Campaign planning: spec → deduplicated job list with provenance.

The planner asks each experiment's driver for its exact job list
(the jobs of the plan a simulation-bound driver's ``build_plan()``
returns), hashes the jobs, and merges them into one deduplicated
pool.  Provenance is kept both ways: each planned experiment records
the hashes it needs, and the pool records which experiments want each
hash — unprotected baselines shared between figures (fig9/fig10/fig11
all run the benign suite) plan once and simulate once.

Planning never simulates anything; ``repro campaign plan`` and
``repro campaign run --dry-run`` are pure expansions of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.campaigns.spec import CampaignError, CampaignSpec
from repro.engine.job import SimJob


@dataclass
class PlannedExperiment:
    """One experiment, expanded: its params and the job hashes it needs."""

    name: str
    kind: str
    params: Dict[str, Any]
    job_hashes: List[str]

    @property
    def points(self) -> int:
        return len(self.job_hashes)


@dataclass
class CampaignPlan:
    """A fully expanded campaign: deduplicated jobs + provenance."""

    spec: CampaignSpec
    experiments: List[PlannedExperiment]
    #: hash -> job, first registration wins (jobs hashing alike are
    #: identical by construction).
    jobs: Dict[str, SimJob] = field(default_factory=dict)
    #: hash -> experiment names needing it (the provenance map).
    wanted_by: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def total_points(self) -> int:
        """Distinct simulation points across the whole campaign."""
        return len(self.jobs)

    @property
    def requested_points(self) -> int:
        """Points summed per experiment, before deduplication."""
        return sum(exp.points for exp in self.experiments)

    @property
    def shared_points(self) -> int:
        """Points needed by more than one experiment."""
        return sum(1 for names in self.wanted_by.values()
                   if len(names) > 1)

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly plan overview (the --dry-run payload)."""
        return {
            "campaign": self.spec.name,
            "description": self.spec.description,
            "experiments": [
                {
                    "name": exp.name,
                    "kind": exp.kind,
                    "params": exp.params,
                    "points": exp.points,
                    "unique_points": len(set(exp.job_hashes)),
                }
                for exp in self.experiments
            ],
            "requested_points": self.requested_points,
            "total_points": self.total_points,
            "shared_points": self.shared_points,
        }


def plan_campaign(
    spec: CampaignSpec, scale: Optional[float] = None
) -> CampaignPlan:
    """Expand a campaign spec into a deduplicated plan.

    ``scale`` overrides every experiment's trace-length scale in one
    stroke — how CI and the tests shrink the built-in campaigns
    without forking their specs.
    """
    from repro.experiments.runner import driver

    spec.validate()
    experiments: List[PlannedExperiment] = []
    jobs: Dict[str, SimJob] = {}
    wanted_by: Dict[str, List[str]] = {}
    for experiment in spec.experiments:
        module = driver(experiment.kind)
        if not hasattr(module, "build_plan"):
            raise CampaignError(
                f"experiment {experiment.name!r}: driver "
                f"{experiment.kind!r} does not export build_plan() and "
                "cannot join a campaign (only the simulation-bound "
                "drivers can)"
            )
        params = dict(experiment.params)
        if scale is not None:
            params["scale"] = scale
        try:
            exp_jobs = module.build_plan(**params)[0].jobs
        except (TypeError, KeyError, ValueError) as error:
            raise CampaignError(
                f"experiment {experiment.name!r} ({experiment.kind}) "
                f"failed to plan with params {params}: {error}"
            ) from error
        hashes = []
        for job in exp_jobs:
            job_hash = job.job_hash()
            hashes.append(job_hash)
            jobs.setdefault(job_hash, job)
            wants = wanted_by.setdefault(job_hash, [])
            if experiment.name not in wants:
                wants.append(experiment.name)
        experiments.append(
            PlannedExperiment(
                name=experiment.name,
                kind=experiment.kind,
                params=params,
                job_hashes=hashes,
            )
        )
    return CampaignPlan(
        spec=spec, experiments=experiments, jobs=jobs, wanted_by=wanted_by
    )
