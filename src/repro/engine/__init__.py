"""Unified experiment engine: declarative sweep jobs + executor.

The engine separates *describing* a simulation point from *running*
it.  A :class:`~repro.engine.job.SimJob` names the workload (by
reference into the workload catalog), the protection scheme, and every
simulator knob as plain hashable data.  :func:`~repro.engine.executor.
run_jobs` deduplicates identical jobs, serves repeats from an on-disk
result cache, and fans the remainder out over worker processes.

Typical driver usage::

    from repro.engine import SimJob, normal_workload_specs, run_jobs

    specs = normal_workload_specs(scale=1.0)
    jobs = [SimJob(workload=spec) for spec in specs.values()]
    jobs += [
        SimJob(workload=spec, scheme="mithril", flip_th=6_250)
        for spec in specs.values()
    ]
    results = run_jobs(jobs, n_jobs=4)

See ``docs/ENGINE.md`` for the full job model and the caching and
parallelism knobs.
"""

from repro.engine.cache import (
    ResultCache,
    code_version,
    default_cache_dir,
    result_from_dict,
    result_to_dict,
)
from repro.engine.catalog import (
    TRACE_KIND_PREFIX,
    attack_workload_spec,
    build_config,
    build_workload,
    normal_workload_specs,
    register_workload,
    scheme_factory_for,
    smoke_workload_specs,
    traceset_spec,
    workload_kinds,
)
from repro.engine.durable import (
    CorruptEntryError,
    atomic_write_json,
    quarantine_file,
    read_json_verified,
)
from repro.engine.executor import (
    DEFAULT_MAX_RETRIES,
    JobExecutionError,
    RunStats,
    execute_job,
    run_jobs,
)
from repro.engine.job import SimJob, WorkloadSpec, freeze_params
from repro.engine.plan import JobPlan, PlanResults
from repro.engine.store import GenerationStats
from repro.engine.supervisor import JobFailure, RetryPolicy, SupervisedPool

__all__ = [
    "SimJob",
    "WorkloadSpec",
    "freeze_params",
    "JobPlan",
    "PlanResults",
    "RunStats",
    "run_jobs",
    "execute_job",
    "JobExecutionError",
    "JobFailure",
    "RetryPolicy",
    "SupervisedPool",
    "DEFAULT_MAX_RETRIES",
    "CorruptEntryError",
    "atomic_write_json",
    "quarantine_file",
    "read_json_verified",
    "ResultCache",
    "GenerationStats",
    "default_cache_dir",
    "code_version",
    "result_to_dict",
    "result_from_dict",
    "register_workload",
    "workload_kinds",
    "build_workload",
    "build_config",
    "normal_workload_specs",
    "attack_workload_spec",
    "scheme_factory_for",
    "smoke_workload_specs",
    "traceset_spec",
    "TRACE_KIND_PREFIX",
]
