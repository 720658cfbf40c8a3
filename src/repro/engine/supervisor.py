"""Supervised pull-model worker pool: leases, retries, quarantine.

``ProcessPoolExecutor.map`` — the engine's original fan-out — has
exactly the failure modes a long campaign cannot afford: a worker
killed mid-job poisons the whole pool (``BrokenProcessPool`` aborts
every in-flight result), a hung worker stalls the map forever, and a
raising job surfaces as an opaque error with no record of *which* job
died.  This module replaces it with a supervisor that treats worker
death as an expected event:

* **pull model** — each worker owns a dedicated task queue and is
  handed one job at a time, so the supervisor always knows which job a
  worker holds (the *lease*) and since when;
* **timeouts** — a lease older than ``job_timeout`` gets its worker
  killed (``SIGKILL``) and replaced; the job counts a failed attempt;
* **retry with backoff** — failed attempts (exception, crash,
  timeout) are re-queued after an exponential backoff with
  deterministic per-job jitter, up to ``max_retries`` retries;
* **quarantine** — a job that exhausts its budget becomes a
  :class:`JobFailure` with full diagnostics (per-attempt events,
  traceback or exit code, scheme/workload identity) instead of
  aborting the batch.  Poison jobs that repeatedly kill their worker
  are the canonical case.

The retry-or-quarantine decision lives in one place, the
:class:`RetryLedger`; the pool here and the executor's in-process
serial path both feed it their failed attempts.

Workers run :func:`repro.engine.executor.execute_job` behind the
``worker.execute`` fault-injection site (:mod:`repro.faults`), which
is how the tests provoke every path above deterministically.
"""

from __future__ import annotations

import heapq
import logging
import multiprocessing
import queue as queue_mod
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.job import SimJob

#: Poll ceiling of the supervisor loop (also the detection latency for
#: a worker that died without posting a result).
_POLL_S = 0.25

#: Interval between supervisor heartbeat events (telemetry on only).
_HEARTBEAT_S = 1.0

log = logging.getLogger("repro.engine.supervisor")


@dataclass
class RetryPolicy:
    """How failed attempts are retried.

    ``max_retries`` bounds *re*-tries: a job runs at most
    ``max_retries + 1`` times.  The backoff for retry ``n`` (1-based)
    is ``min(cap, base * 2**(n-1))`` scaled by a deterministic jitter
    in ``[1, 1 + jitter]`` derived from the job hash — reproducible
    schedules, but simultaneous failures do not retry in lockstep.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 5.0
    jitter: float = 0.25

    def delay(self, job_hash: str, retry: int) -> float:
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, retry - 1)),
        )
        if base <= 0.0:
            return 0.0
        seed = int(job_hash[:8] or "0", 16) * 2654435761 % (1 << 32)
        frac = ((seed >> 8) & 0xFFFF) / 0xFFFF
        return base * (1.0 + self.jitter * frac)


@dataclass
class JobFailure:
    """One job's terminal failure, with enough context to act on it."""

    job_hash: str
    scheme: str
    workload: str
    attempts: int
    reason: str                     #: last failure kind
    message: str                    #: one-line last-failure summary
    traceback: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobFailure":
        """Inverse of :meth:`as_dict`, lenient about missing fields (a
        record that crossed the wire from another host)."""
        return cls(
            job_hash=str(data.get("job_hash", "")),
            scheme=str(data.get("scheme", "?")),
            workload=str(data.get("workload", "?")),
            attempts=int(data.get("attempts", 0)),
            reason=str(data.get("reason", "unknown")),
            message=str(data.get("message", "")),
            traceback=data.get("traceback"),
            events=list(data.get("events") or []),
        )

    def describe(self) -> str:
        return (
            f"{self.job_hash[:12]} {self.scheme}/{self.workload}: "
            f"{self.reason} after {self.attempts} attempt(s) — "
            f"{self.message}"
        )


class RetryLedger:
    """Per-job attempt bookkeeping for one batch of unique jobs.

    The executor calls :meth:`begin` as each attempt starts and
    :meth:`failed` when it fails; the ledger records the attempt's
    event, then either schedules a retry (returning its backoff) or
    quarantines the job as a :class:`JobFailure` on :attr:`failures`.
    The ``job.retry`` / ``retry.backoff`` / ``job.quarantine``
    telemetry records come from here, so serial and pooled execution
    emit the same ones.
    """

    def __init__(self, jobs: Dict[str, SimJob], policy: RetryPolicy):
        from repro import telemetry

        self.jobs = jobs
        self.policy = policy
        self.attempts: Dict[str, int] = dict.fromkeys(jobs, 0)
        self.events: Dict[str, List[Dict[str, Any]]] = {h: [] for h in jobs}
        self.failures: Dict[str, JobFailure] = {}
        self.retried = 0
        self._tel = telemetry.get()

    def begin(self, job_hash: str) -> int:
        """Count a new attempt; returns its 1-based number."""
        self.attempts[job_hash] += 1
        return self.attempts[job_hash]

    def failed(self, job_hash: str, reason: str, message: str,
               trace: Optional[str] = None) -> Optional[float]:
        """Record a failed attempt: the backoff (seconds) before the
        retry, or None when the job exhausted its budget and is now
        quarantined."""
        attempt = self.attempts[job_hash]
        self.events[job_hash].append(
            {"attempt": attempt, "reason": reason, "message": message}
        )
        tel = self._tel
        if attempt > self.policy.max_retries:
            log.info("quarantine %s after %d attempt(s): %s",
                     job_hash[:12], attempt, reason)
            if tel is not None:
                tel.event("job.quarantine", job=job_hash,
                          attempts=attempt, reason=reason)
            job = self.jobs[job_hash]
            self.failures[job_hash] = JobFailure(
                job_hash=job_hash,
                scheme=job.scheme,
                workload=job.workload.kind,
                attempts=attempt,
                reason=reason,
                message=message,
                traceback=trace,
                events=self.events[job_hash],
            )
            return None
        self.retried += 1
        delay = self.policy.delay(job_hash, attempt)
        log.debug("retry %s attempt=%d reason=%s backoff=%.3fs",
                  job_hash[:12], attempt, reason, delay)
        if tel is not None:
            tel.event("job.retry", job=job_hash, attempt=attempt,
                      reason=reason, delay=round(delay, 6))
            if delay > 0.0:
                # The backoff window as a span: visible dead-time
                # between the failed attempt and the next one.
                tel.synthetic_span("retry.backoff", time.time(), delay,
                                   job=job_hash, attempt=attempt,
                                   reason=reason)
        return delay


def _worker_main(task_queue, result_queue) -> None:
    """Worker loop: one job per lease, structured error capture."""
    from repro import faults, telemetry
    from repro.engine.executor import execute_job

    faults.IN_WORKER = True
    # telemetry.get() re-checks the pid, so the forked child opens its
    # own events-<pid>.jsonl instead of appending to the parent's.
    tel = telemetry.get()
    if tel is not None:
        tel.set_role("worker")
    while True:
        item = task_queue.get()
        if item is None:
            return
        job_hash, job = item
        try:
            faults.maybe_fail("worker.execute", job_hash)
            span = (
                tel.span("job.execute", job=job_hash, scheme=job.scheme)
                if tel is not None else telemetry.NOOP_SPAN
            )
            with span:
                result = execute_job(job)
        except BaseException as error:  # noqa: BLE001 — reported, not hidden
            if tel is not None:
                tel.event(
                    "job.error", job=job_hash,
                    message=f"{type(error).__name__}: {error}",
                )
            result_queue.put((
                "err", job_hash,
                f"{type(error).__name__}: {error}",
                traceback.format_exc(),
            ))
        else:
            if tel is not None:
                tel.event("job.ok", job=job_hash)
            result_queue.put(("ok", job_hash, result, None))


class _Worker:
    """One supervised worker process and its lease state."""

    __slots__ = ("proc", "task_queue", "current", "deadline", "lease_wall")

    def __init__(self, ctx, result_queue):
        self.task_queue = ctx.SimpleQueue()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(self.task_queue, result_queue),
            daemon=True,
        )
        self.proc.start()
        self.current: Optional[str] = None
        self.deadline: Optional[float] = None
        self.lease_wall: Optional[float] = None

    def assign(self, job_hash: str, job: SimJob,
               timeout: Optional[float]) -> None:
        self.task_queue.put((job_hash, job))
        self.current = job_hash
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        self.lease_wall = time.time()

    def release(self) -> None:
        self.current = None
        self.deadline = None
        self.lease_wall = None

    def close(self, kill: bool = False) -> None:
        try:
            if kill:
                self.proc.kill()
            elif self.proc.is_alive():
                self.task_queue.put(None)
            self.proc.join(timeout=2.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=2.0)
        except (OSError, ValueError):
            pass
        try:
            self.task_queue.close()
        except (OSError, AttributeError):
            pass


@dataclass
class PoolOutcome:
    """What one :meth:`SupervisedPool.run` call produced."""

    results: Dict[str, Any]
    failures: Dict[str, JobFailure]
    retried: int = 0
    #: Summed seconds jobs spent eligible-but-unassigned (worker
    #: contention, not backoff) — the executor folds this into
    #: ``RunStats.timing_breakdown["queue_wait"]``.
    queue_wait_s: float = 0.0


class SupervisedPool:
    """Run a batch of unique jobs under supervision.

    One-shot: construct, :meth:`run`, done (workers are recycled
    between batches by construction — a campaign batch is the unit of
    checkpointing anyway).  ``n_workers`` processes execute jobs;
    ``job_timeout`` (seconds, None = unbounded) bounds each lease.
    """

    def __init__(
        self,
        n_workers: int,
        job_timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
    ):
        self.n_workers = max(1, int(n_workers))
        self.job_timeout = job_timeout
        self.policy = policy or RetryPolicy()
        self.ctx = multiprocessing.get_context()

    def run(self, items: List[Tuple[str, SimJob]]) -> PoolOutcome:
        from repro import telemetry

        jobs = dict(items)
        outcome = PoolOutcome(results={}, failures={})
        if not jobs:
            return outcome
        tel = telemetry.get()
        if tel is not None:
            tel.set_role("supervisor")
        result_queue = self.ctx.Queue()
        workers = [
            _Worker(self.ctx, result_queue)
            for _ in range(min(self.n_workers, len(jobs)))
        ]
        log.info(
            "pool: %d worker(s) over %d job(s), timeout=%s",
            len(workers), len(jobs), self.job_timeout,
        )
        if tel is not None:
            for worker in workers:
                tel.event("worker.spawn", worker=worker.proc.pid)
        ledger = RetryLedger(jobs, self.policy)
        start_mono = time.monotonic()
        # Monotonic instant each job (re-)became eligible, for the
        # queue-wait accounting (eligible-but-unassigned time).
        queued_at: Dict[str, float] = {h: start_mono for h in jobs}
        # (eligible_time, seq, hash) — seq keeps heap order stable.
        ready: List[Tuple[float, int, str]] = [
            (0.0, seq, job_hash)
            for seq, (job_hash, _job) in enumerate(items)
        ]
        heapq.heapify(ready)
        seq_counter = len(ready)
        remaining = set(jobs)
        last_heartbeat = start_mono

        def lease_closed(worker: "_Worker", result: str) -> None:
            """Stamp the supervisor-side lease span for a finished (or
            killed) lease, on the *worker's* track (tid=worker pid) so
            even a worker that died without writing a byte shows its
            lease history."""
            if tel is None or worker.lease_wall is None:
                return
            tel.synthetic_span(
                "lease", worker.lease_wall,
                time.time() - worker.lease_wall,
                tid=worker.proc.pid, job=worker.current, result=result,
            )

        def attempt_failed(job_hash: str, reason: str, message: str,
                           trace: Optional[str] = None) -> None:
            nonlocal seq_counter
            if job_hash not in remaining:
                return
            delay = ledger.failed(job_hash, reason, message, trace)
            if delay is None:
                remaining.discard(job_hash)
                return
            eligible = time.monotonic() + delay
            queued_at[job_hash] = eligible
            seq_counter += 1
            heapq.heappush(ready, (eligible, seq_counter, job_hash))

        try:
            while remaining:
                now = time.monotonic()
                # -- hand eligible jobs to idle workers ----------------
                for worker in workers:
                    if worker.current is not None:
                        continue
                    while ready and ready[0][0] <= now:
                        _, _, job_hash = heapq.heappop(ready)
                        if job_hash in remaining and not any(
                            w.current == job_hash for w in workers
                        ):
                            attempt = ledger.begin(job_hash)
                            outcome.queue_wait_s += max(
                                0.0, now - queued_at.get(job_hash, now)
                            )
                            worker.assign(
                                job_hash, jobs[job_hash], self.job_timeout
                            )
                            if tel is not None:
                                tel.event(
                                    "lease.assign", job=job_hash,
                                    tid=worker.proc.pid,
                                    attempt=attempt,
                                )
                            break
                    if worker.current is None and not ready:
                        break
                # -- wait for a result (bounded poll) ------------------
                wait = _POLL_S
                deadlines = [
                    w.deadline for w in workers if w.deadline is not None
                ]
                if deadlines:
                    wait = min(wait, max(0.01, min(deadlines) - now))
                if ready:
                    wait = min(wait, max(0.01, ready[0][0] - now))
                try:
                    tag, job_hash, payload, trace = result_queue.get(
                        timeout=wait
                    )
                except queue_mod.Empty:
                    tag = None
                if tag is not None:
                    for worker in workers:
                        if worker.current == job_hash:
                            lease_closed(worker, tag)
                            worker.release()
                            break
                    if tag == "ok":
                        if job_hash in remaining:
                            outcome.results[job_hash] = payload
                            remaining.discard(job_hash)
                    else:
                        attempt_failed(
                            job_hash, "exception", payload, trace
                        )
                # -- heartbeat (telemetry only) ------------------------
                now = time.monotonic()
                if tel is not None and now - last_heartbeat >= _HEARTBEAT_S:
                    last_heartbeat = now
                    tel.event(
                        "heartbeat",
                        remaining=len(remaining),
                        inflight=sum(
                            1 for w in workers if w.current is not None
                        ),
                        queued=len(ready),
                    )
                # -- reap dead and expired workers ---------------------
                for index, worker in enumerate(workers):
                    if worker.current is None:
                        continue
                    if not worker.proc.is_alive():
                        job_hash = worker.current
                        log.warning(
                            "worker %s died mid-job (exit %s), job %s",
                            worker.proc.pid, worker.proc.exitcode,
                            job_hash[:12],
                        )
                        lease_closed(worker, "crash")
                        worker.release()
                        worker.close(kill=True)
                        workers[index] = _Worker(self.ctx, result_queue)
                        if tel is not None:
                            tel.event(
                                "worker.crash", tid=worker.proc.pid,
                                job=job_hash,
                                exit_code=worker.proc.exitcode,
                            )
                            tel.event(
                                "worker.spawn",
                                worker=workers[index].proc.pid,
                                replaces=worker.proc.pid,
                            )
                        attempt_failed(
                            job_hash, "worker-crash",
                            "worker process died mid-job "
                            f"(exit code {worker.proc.exitcode})",
                        )
                    elif (
                        worker.deadline is not None
                        and now >= worker.deadline
                    ):
                        job_hash = worker.current
                        log.warning(
                            "lease expired after %ss: killing worker %s "
                            "(job %s)", self.job_timeout,
                            worker.proc.pid, job_hash[:12],
                        )
                        lease_closed(worker, "timeout")
                        worker.release()
                        worker.close(kill=True)
                        workers[index] = _Worker(self.ctx, result_queue)
                        if tel is not None:
                            tel.event(
                                "timeout.kill", tid=worker.proc.pid,
                                job=job_hash, timeout=self.job_timeout,
                            )
                            tel.event(
                                "worker.spawn",
                                worker=workers[index].proc.pid,
                                replaces=worker.proc.pid,
                            )
                        attempt_failed(
                            job_hash, "timeout",
                            f"lease exceeded {self.job_timeout}s; "
                            "worker killed",
                        )
        finally:
            for worker in workers:
                worker.close()
            try:
                result_queue.close()
                result_queue.join_thread()
            except (OSError, AttributeError):
                pass
        outcome.failures = ledger.failures
        outcome.retried = ledger.retried
        return outcome
