"""The job executor: dedup → cache → supervised (parallel) simulate.

:func:`run_jobs` is the one entry point every experiment driver and
bench goes through.  Results come back in input order; identical jobs
(same :meth:`~repro.engine.job.SimJob.job_hash`) are simulated once
and fanned back out, warm cache entries skip simulation entirely, and
``n_jobs > 1`` distributes the remaining work over a supervised
worker pool (:mod:`repro.engine.supervisor`): per-job leases with
optional timeouts, crash detection, retry with exponential backoff,
and quarantine of poison jobs instead of opaque pool errors.
``n_jobs=1`` is a deterministic serial path with no pool involved at
all (unless a ``job_timeout`` is requested, which needs a worker
process to enforce).  A caller that runs many batches keeps one pool
across them (:func:`open_pool`, ``run_jobs(..., pool=...)``) so its
workers stay warm between batches.

Worker processes receive only the pickled :class:`SimJob`; traces are
rebuilt from their seeded generators inside the child, so parallel
runs are byte-identical to serial ones.

Each process builds a workload once per run of jobs that share it:
:func:`materialize_job` keeps the last materialized workload, and
:func:`run_jobs` executes its missing jobs in workload-grouped order
(:func:`group_by_workload`), so consecutive jobs reuse the held
traces.  Only one workload is held at a time — a miss drops it before
building the next — so memory stays that of a single workload.

Every call publishes a :class:`RunStats` on ``run_jobs.last_stats``
(``simulated == 0`` on a fully warm cache is the invariant the
determinism tests pin down).  Jobs that exhaust their retry budget
surface as structured :class:`~repro.engine.supervisor.JobFailure`
records on ``last_stats.failures`` — with job hash, scheme, workload,
per-attempt events, and the traceback — and either raise a
:class:`JobExecutionError` (``on_failure="raise"``, the default) or
leave ``None`` in their result slots (``on_failure="skip"``, what the
campaign executor uses to quarantine and keep going).
"""

from __future__ import annotations

import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from repro.engine.cache import ResultCache
from repro.engine.catalog import build_config, build_workload, scheme_factory_for
from repro.engine.job import SimJob, WorkloadSpec
from repro.engine.supervisor import (
    JobFailure,
    RetryLedger,
    RetryPolicy,
    SupervisedPool,
)
from repro.sim.metrics import SimulationResult

#: Default retry budget for failed/crashed/timed-out jobs.
DEFAULT_MAX_RETRIES = 2


class JobExecutionError(RuntimeError):
    """Jobs failed after every retry; carries the structured records.

    The message leads with the first failure's identity (hash, scheme,
    workload, reason) so a campaign log is actionable without digging
    — the full per-job diagnostics live on :attr:`failures`.
    """

    def __init__(self, failures: List[JobFailure]):
        self.failures = list(failures)
        first = self.failures[0]
        extra = (
            f" (and {len(self.failures) - 1} more)"
            if len(self.failures) > 1 else ""
        )
        super().__init__(f"job failed: {first.describe()}{extra}")


@dataclass
class RunStats:
    """Accounting for one :func:`run_jobs` call."""

    total: int = 0        #: jobs requested (including duplicates)
    unique: int = 0       #: distinct job hashes
    cache_hits: int = 0   #: unique jobs served from the on-disk cache
    cache_misses: int = 0       #: unique jobs the cache could not serve
    cache_quarantined: int = 0  #: corrupt entries quarantined on lookup
    simulated: int = 0    #: unique jobs successfully executed
    n_jobs: int = 1       #: worker processes used
    retried: int = 0      #: attempts re-queued after a failure
    failed: int = 0       #: unique jobs that exhausted their retries
    failures: List[JobFailure] = field(default_factory=list)
    #: Wall seconds by phase (``cache_lookup`` / ``execute`` /
    #: ``cache_put``); where this run's time actually went, published
    #: on the ``run_jobs.done`` telemetry event.
    timing_breakdown: Dict[str, float] = field(default_factory=dict)


T = TypeVar("T")


def group_by_workload(
    items: List[T], spec_of: Callable[[T], WorkloadSpec]
) -> List[T]:
    """``items`` reordered so jobs sharing a workload run back to back.

    A stable grouping: groups appear in order of their first member,
    and members keep their relative order.  Only execution order
    changes, never what a job computes.
    """
    groups: Dict[WorkloadSpec, List[T]] = {}
    for item in items:
        groups.setdefault(spec_of(item), []).append(item)
    return [item for group in groups.values() for item in group]


#: The last materialized workload: ``(spec, traces)`` or None.
_held_workload = None


def _workload_traces(spec: WorkloadSpec):
    """A fresh list of the spec's traces, built at most once in a row.

    The :class:`~repro.workloads.trace.CoreTrace` objects are shared
    between callers; the simulator only reads them (each core keeps
    its own cursor and entries are frozen).
    """
    global _held_workload
    if _held_workload is None or _held_workload[0] != spec:
        _held_workload = None  # never hold two workloads at once
        _held_workload = (spec, build_workload(spec))
    return list(_held_workload[1])


def materialize_job(job: SimJob):
    """(traces, scheme factory, config, rfm_th) for one job.

    The single build path shared by the executor and ``repro
    profile`` — a caller that profiles ``simulate()`` separately from
    workload construction must still build exactly what
    :func:`run_jobs` executes.  Consecutive jobs on the same workload
    share its traces (built once); callers must treat them as
    read-only.
    """
    traces = _workload_traces(job.workload)
    factory, rfm_th = scheme_factory_for(job)
    config = build_config(job.config_overrides)
    return traces, factory, config, rfm_th


def execute_job(job: SimJob) -> SimulationResult:
    """Materialize and run one job (also the worker-process entry).

    The only caller of the result-only drain: the system and schemes
    are built here from the job and dropped with the result, so the
    kernel skips writing back tracker state that no one can read.
    ``simulate()`` and ``SimulatedSystem.run()`` called directly keep
    the full write-back, since their caller may hold the schemes.
    """
    from repro.sim.system import simulate

    traces, factory, config, rfm_th = materialize_job(job)
    return simulate(
        traces,
        scheme_factory=factory,
        config=config,
        rfm_th=rfm_th,
        flip_th=job.flip_th,
        mlp=job.mlp,
        track_hammer=job.track_hammer,
        max_cycles=job.max_cycles,
        result_only=True,
    )


def _execute_serial(
    missing: List[Tuple[str, SimJob]], policy: RetryPolicy, stats: RunStats
) -> Dict[str, SimulationResult]:
    """In-process execution with the same retry/quarantine contract.

    Injected crashes (:class:`repro.faults.InjectedCrash`) raise here
    instead of killing the interpreter, so the serial path exercises
    the identical retry machinery; ``hang`` faults genuinely hang —
    lease enforcement needs a worker process (pass a ``job_timeout``).
    """
    from repro import telemetry
    from repro.faults import maybe_fail

    tel = telemetry.get()
    ledger = RetryLedger(dict(missing), policy)
    results: Dict[str, SimulationResult] = {}
    for job_hash, job in missing:
        while True:
            attempt = ledger.begin(job_hash)
            try:
                maybe_fail("worker.execute", job_hash)
                with telemetry.span("job.execute", job=job_hash,
                                    scheme=job.scheme, attempt=attempt):
                    results[job_hash] = execute_job(job)
            except Exception as error:  # noqa: BLE001 — recorded below
                message = f"{type(error).__name__}: {error}"
                if tel is not None:
                    tel.event("job.error", job=job_hash,
                              attempt=attempt, message=message)
                delay = ledger.failed(job_hash, "exception", message,
                                      traceback.format_exc())
                if delay is None:
                    break
                time.sleep(delay)
            else:
                if tel is not None:
                    tel.event("job.ok", job=job_hash, attempts=attempt)
                break
    stats.retried += ledger.retried
    stats.failures.extend(ledger.failures.values())
    return results


def open_pool(
    n_jobs: int = 1,
    job_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> Optional[SupervisedPool]:
    """The pool a caller keeps across :func:`run_jobs` calls made with
    the same ``n_jobs``/``job_timeout``/``max_retries``, or None when
    those calls run in-process (``n_jobs=1`` and no timeout).  The
    pool spawns nothing until its first batch; the caller closes it.
    """
    if max(1, int(n_jobs)) == 1 and job_timeout is None:
        return None
    return SupervisedPool(n_jobs, job_timeout=job_timeout,
                          policy=RetryPolicy(max_retries=max_retries))


def run_jobs(
    jobs: Iterable[SimJob],
    n_jobs: int = 1,
    use_cache: bool = True,
    cache_dir=None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    job_timeout: Optional[float] = None,
    on_failure: str = "raise",
    retry_policy: Optional[RetryPolicy] = None,
    pool: Optional[SupervisedPool] = None,
) -> List[Optional[SimulationResult]]:
    """Run a batch of jobs; results align with the input order.

    ``n_jobs`` — worker processes (1 = serial, in-process).
    ``use_cache`` — consult/populate the on-disk result cache.
    ``cache_dir`` — cache location override (defaults to
    ``REPRO_CACHE_DIR`` or ``~/.cache/repro/sim``).
    ``max_retries`` — retry budget per job (crash, exception, or
    timeout all count; exhausted jobs become structured failures).
    ``job_timeout`` — per-job lease in seconds; needs worker
    processes, so a timeout forces the supervised pool even when
    ``n_jobs=1``.
    ``on_failure`` — ``"raise"`` (default) raises
    :class:`JobExecutionError` once all non-failed results are
    collected and cached; ``"skip"`` returns ``None`` in the failed
    jobs' slots.  Either way ``run_jobs.last_stats.failures`` carries
    the records.
    ``retry_policy`` — full :class:`RetryPolicy` override (backoff
    shape); wins over ``max_retries``.
    ``pool`` — a caller-owned :class:`SupervisedPool` (see
    :func:`open_pool`) that supervised execution runs on instead of a
    pool of its own, so its workers stay warm across calls; its
    ``job_timeout`` and policy govern the leases.  The caller closes
    it.  Without one, a supervised call opens a pool and closes it
    before returning.
    """
    if on_failure not in ("raise", "skip"):
        raise ValueError(
            f"on_failure must be 'raise' or 'skip', got {on_failure!r}"
        )
    from repro import telemetry

    job_list = list(jobs)
    n_jobs = max(1, int(n_jobs))
    policy = retry_policy or RetryPolicy(max_retries=max_retries)
    stats = RunStats(total=len(job_list), n_jobs=n_jobs)
    tel = telemetry.get()

    order: List[str] = []
    unique: Dict[str, SimJob] = {}
    for job in job_list:
        job_hash = job.job_hash()
        order.append(job_hash)
        if job_hash not in unique:
            unique[job_hash] = job
    stats.unique = len(unique)

    results: Dict[str, SimulationResult] = {}
    cache: Optional[ResultCache] = (
        ResultCache(cache_dir) if use_cache else None
    )
    t0 = time.perf_counter()
    if cache is not None:
        with telemetry.span("run_jobs.cache_lookup", unique=stats.unique):
            for job_hash, job in unique.items():
                hit = cache.get(job)
                if hit is not None:
                    results[job_hash] = hit
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses
        stats.cache_quarantined = cache.quarantined
    stats.timing_breakdown["cache_lookup"] = time.perf_counter() - t0

    missing = group_by_workload(
        [
            (job_hash, job)
            for job_hash, job in unique.items()
            if job_hash not in results
        ],
        lambda pair: pair[1].workload,
    )
    if missing:
        workers = min(n_jobs, len(missing))
        supervised = workers > 1 or job_timeout is not None
        executed: Dict[str, SimulationResult] = {}
        t0 = time.perf_counter()
        with telemetry.span(
            "run_jobs.execute", missing=len(missing),
            workers=workers, supervised=supervised,
        ):
            if supervised:
                active = pool if pool is not None else SupervisedPool(
                    workers, job_timeout=job_timeout, policy=policy
                )
                try:
                    outcome = active.run(missing)
                except OSError as error:
                    warnings.warn(
                        f"worker pool unavailable ({error}); "
                        "falling back to serial execution",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    executed = _execute_serial(missing, policy, stats)
                else:
                    executed = outcome.results
                    stats.retried += outcome.retried
                    stats.failures.extend(
                        outcome.failures[h] for h in sorted(outcome.failures)
                    )
                    if outcome.queue_wait_s:
                        stats.timing_breakdown["queue_wait"] = round(
                            outcome.queue_wait_s, 6
                        )
                finally:
                    if active is not pool:
                        active.close()
            else:
                executed = _execute_serial(missing, policy, stats)
        stats.timing_breakdown["execute"] = time.perf_counter() - t0
        results.update(executed)
        stats.simulated = len(executed)
        stats.failed = len(stats.failures)
        t0 = time.perf_counter()
        if cache is not None:
            with telemetry.span("run_jobs.cache_put", entries=len(executed)):
                for job_hash, _job in missing:
                    if job_hash in executed:
                        cache.put(unique[job_hash], executed[job_hash])
        stats.timing_breakdown["cache_put"] = time.perf_counter() - t0
    stats.timing_breakdown = {
        k: round(v, 6) for k, v in stats.timing_breakdown.items()
    }

    run_jobs.last_stats = stats
    if tel is not None:
        tel.event(
            "run_jobs.done",
            total=stats.total, unique=stats.unique,
            cache_hits=stats.cache_hits, simulated=stats.simulated,
            retried=stats.retried, failed=stats.failed,
            timing=stats.timing_breakdown,
        )
    if stats.failures and on_failure == "raise":
        raise JobExecutionError(stats.failures)
    return [results.get(job_hash) for job_hash in order]


#: Stats of the most recent call (None before the first call).
run_jobs.last_stats = None
