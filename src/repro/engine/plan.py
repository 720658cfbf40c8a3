"""Keyed job planning: the driver-side bookkeeping around run_jobs.

Every sweep driver follows the same shape — register jobs under
meaningful keys while walking the sweep, execute the batch once, then
assemble rows by looking results up by key.  :class:`JobPlan` is that
pattern, once, with duplicate-key detection.

    plan = JobPlan()
    for name, spec in specs.items():
        plan.add(("base", name), SimJob(workload=spec))
    ...
    results = plan.run(n_jobs=4)
    baseline = results[("base", "fft")]
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.engine.executor import run_jobs
from repro.engine.job import SimJob
from repro.sim.metrics import SimulationResult


class PlanResults:
    """Completed plan: results addressable by the registration keys."""

    def __init__(self, index: Dict[Hashable, int],
                 results: List[SimulationResult]):
        self._index = index
        self._results = results

    def __getitem__(self, key: Hashable) -> SimulationResult:
        return self._results[self._index[key]]

    def __len__(self) -> int:
        return len(self._index)


class JobPlan:
    """An ordered batch of jobs, each registered under a unique key."""

    def __init__(self) -> None:
        self._jobs: List[SimJob] = []
        self._index: Dict[Hashable, int] = {}

    def add(self, key: Hashable, job: SimJob) -> None:
        """Register ``job`` under ``key`` (duplicate keys are bugs)."""
        if key in self._index:
            raise ValueError(f"duplicate job key {key!r}")
        self._index[key] = len(self._jobs)
        self._jobs.append(job)

    def __len__(self) -> int:
        return len(self._jobs)

    @property
    def jobs(self) -> List[SimJob]:
        """The registered jobs, in registration order (a copy).

        What the campaign planner reads from a driver's
        ``build_plan()``: it reuses the driver's exact job list without
        running anything.
        """
        return list(self._jobs)

    def run(
        self,
        n_jobs: int = 1,
        use_cache: bool = True,
        cache_dir=None,
    ) -> PlanResults:
        """Execute the batch through :func:`run_jobs`."""
        results = run_jobs(
            self._jobs, n_jobs=n_jobs, use_cache=use_cache,
            cache_dir=cache_dir,
        )
        return PlanResults(dict(self._index), results)
