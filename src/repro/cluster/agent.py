"""The host agent: executes assigned jobs, heartbeats, reports back.

One agent process per (logical) host.  It owns no campaign state at
all: assignments arrive as canonical job JSON over the transport, the
results land in the shared sealed store through the exact same
:func:`repro.engine.executor.run_jobs` path a single-host campaign
uses (per-job leases, retries, quarantine included), on one
supervised pool the agent keeps for its lifetime so its workers stay
warm from chunk to chunk, and per-job ``result`` messages flow back
to the coordinator.  Killing an agent at any instant therefore loses
nothing durable — at worst the coordinator re-assigns its outstanding
chunk and the warm store turns the repeat into cache hits.

Liveness is a heartbeat thread: every ``heartbeat_s`` the agent sends
a ``heartbeat`` message, gated by the ``host.heartbeat`` fault site —
a ``drop`` rule there *is* a network partition (the agent keeps
executing, the coordinator sees silence), and a ``crash`` rule with
``"hard": true`` is an injected host death.

Agents are launched as real subprocesses (``repro campaign agent``,
see :mod:`repro.cli`) so the same entry point is SSH-launchable on a
remote host tomorrow; the only sharing assumption is a common
filesystem for the spool transport and the result store.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.campaigns.executor import DEFAULT_HEARTBEAT_S
from repro.cluster.transport import (
    COORDINATOR_MAILBOX,
    Message,
    SpoolTransport,
    heartbeat_gate,
    host_mailbox,
)
from repro.engine.executor import open_pool, run_jobs
from repro.engine.job import SimJob
from repro.engine.supervisor import JobFailure, SupervisedPool

#: How often an idle agent polls its inbox.
DEFAULT_POLL_S = 0.05


class HostAgent:
    """Inbox-driven job executor for one host."""

    def __init__(
        self,
        host_id: str,
        cluster_root: Path,
        n_jobs: int = 1,
        max_retries: int = 2,
        job_timeout: Optional[float] = None,
        cache_dir: Optional[Path] = None,
        poll_s: float = DEFAULT_POLL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        parent_pid: Optional[int] = None,
    ):
        self.host_id = host_id
        self.mailbox = host_mailbox(host_id)
        self.transport = SpoolTransport(Path(cluster_root),
                                        sender=self.mailbox)
        self.n_jobs = max(1, int(n_jobs))
        self.max_retries = max_retries
        self.job_timeout = job_timeout
        self.cache_dir = cache_dir
        self.poll_s = poll_s
        self.heartbeat_s = heartbeat_s
        self.parent_pid = parent_pid
        self._stop = threading.Event()
        #: Held for the agent's lifetime while :meth:`run` is active,
        #: so its workers stay warm from chunk to chunk.
        self._pool: Optional[SupervisedPool] = None

    # -- liveness ------------------------------------------------------

    def _send(self, type_: str, **payload: Any) -> None:
        self.transport.send(
            COORDINATOR_MAILBOX,
            Message(type=type_, sender=self.mailbox, payload=payload),
        )

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            if heartbeat_gate(self.host_id):
                self._send("heartbeat", host=self.host_id, pid=os.getpid())

    def _parent_gone(self) -> bool:
        if self.parent_pid is None:
            return False
        try:
            os.kill(self.parent_pid, 0)
        except OSError:
            return True
        return False

    # -- execution -----------------------------------------------------

    def _send_failure(self, failure: JobFailure) -> None:
        self._send("result", host=self.host_id, hash=failure.job_hash,
                   status="failed", failure=failure.as_dict())

    def _execute_chunk(self, payload: Dict[str, Any]) -> None:
        jobs: List[Tuple[str, SimJob]] = []
        for entry in payload.get("jobs", ()):
            job = SimJob.from_canonical(entry["job"])
            want = str(entry.get("hash", ""))
            got = job.job_hash()
            if want and want != got:
                # A job that does not hash to its label would poison
                # the store under the wrong key; refuse it loudly.
                self._send_failure(JobFailure(
                    job_hash=want, scheme=job.scheme,
                    workload=job.workload.kind, attempts=0,
                    reason="hash-mismatch",
                    message=f"assignment hash {want} != {got}",
                ))
                continue
            jobs.append((got, job))
        if not jobs:
            return
        results = run_jobs(
            [job for _, job in jobs],
            n_jobs=self.n_jobs,
            use_cache=True,
            cache_dir=self.cache_dir,
            max_retries=self.max_retries,
            job_timeout=self.job_timeout,
            on_failure="skip",
            pool=self._pool,
        )
        stats = run_jobs.last_stats
        failures = {f.job_hash: f for f in stats.failures}
        for (job_hash, job), result in zip(jobs, results):
            if result is None:
                self._send_failure(failures.get(job_hash) or JobFailure(
                    job_hash=job_hash, scheme=job.scheme,
                    workload=job.workload.kind, attempts=0,
                    reason="unknown",
                    message="no result and no failure record",
                ))
            else:
                self._send("result", host=self.host_id, hash=job_hash,
                           status="ok")
        self._send(
            "chunk", host=self.host_id,
            submitted=len(jobs), simulated=stats.simulated,
            cache_hits=stats.cache_hits, retried=stats.retried,
        )

    # -- main loop -----------------------------------------------------

    def run(self) -> int:
        tel = telemetry.get()
        if tel is not None:
            tel.set_role("agent")
            tel.event("host.start", host=self.host_id, pid=os.getpid())
        self._send("hello", host=self.host_id, pid=os.getpid())
        beat = threading.Thread(target=self._heartbeat_loop, daemon=True)
        beat.start()
        self._pool = open_pool(self.n_jobs, self.job_timeout,
                               self.max_retries)
        try:
            while True:
                if self._parent_gone():
                    break
                messages = self.transport.recv(self.mailbox)
                stop = False
                for message in messages:
                    if message.type == "assign":
                        if tel is not None:
                            tel.event(
                                "host.assign", host=self.host_id,
                                jobs=len(message.payload.get("jobs", ())),
                            )
                        self._execute_chunk(message.payload)
                    elif message.type == "shutdown":
                        stop = True
                if stop:
                    break
                if not messages:
                    time.sleep(self.poll_s)
        finally:
            self._stop.set()
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            if tel is not None:
                tel.event("host.stop", host=self.host_id, pid=os.getpid())
        self._send("bye", host=self.host_id, pid=os.getpid())
        return 0


def agent_main(
    host_id: str,
    cluster_root: Path,
    n_jobs: int = 1,
    max_retries: int = 2,
    job_timeout: Optional[float] = None,
    cache_dir: Optional[Path] = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    parent_pid: Optional[int] = None,
) -> int:
    """Entry point for the ``repro campaign agent`` subcommand.

    Redirects this process's telemetry into a per-host subdirectory
    (``<REPRO_TELEMETRY>/host-<id>/``) *before* the first event is
    written, so multi-host streams merge without pid collisions — the
    merger folds the subdirectory name into every event
    (:mod:`repro.telemetry.events`).
    """
    base = os.environ.get(telemetry.TELEMETRY_ENV)
    if base:
        os.environ[telemetry.TELEMETRY_ENV] = str(
            Path(base) / f"host-{host_id}"
        )
        telemetry.reset()
    agent = HostAgent(
        host_id,
        Path(cluster_root),
        n_jobs=n_jobs,
        max_retries=max_retries,
        job_timeout=job_timeout,
        cache_dir=cache_dir,
        heartbeat_s=heartbeat_s,
        parent_pid=parent_pid,
    )
    return agent.run()
