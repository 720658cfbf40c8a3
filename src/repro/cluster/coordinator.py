"""The campaign coordinator: shards the job pool across host agents.

:func:`repro.campaigns.executor.run_campaign` with ``hosts > 0``
replaces its in-process batch loop with a :class:`Coordinator` — same
manifest, same sealed store, same stats/result contract — a
lease-driven scheduler:

* the hash-deduplicated pending pool is dealt out in **chunks** to
  live host agents over the transport;
* each host holds a **host lease** renewed by its heartbeats; a lease
  that expires (host crashed, hung, or partitioned) marks the host
  dead and requeues its outstanding chunk — the chunk also carries
  its own deadline, so a single lost ``result`` message costs a
  reassignment, not a stuck campaign;
* result ingestion is **idempotent**: a result only marks a point
  complete after the sealed store verifies it
  (``cache.verify == "ok"``), and a result for an already-settled
  hash — the late duplicate a healed partition delivers — is counted
  and discarded, never double-ingested;
* the atomic ``manifest.json`` checkpoint remains the cluster's
  single source of truth: it is rewritten after every ingest batch,
  so killing the coordinator (or any agent) at any instant costs at
  most one batch of completion *records* and zero re-simulations —
  the store turns every repeat into a cache hit.

Agents are separate processes launched through a
:class:`LocalAgentLauncher` (same CLI entry point an SSH launcher
would exec remotely); a crashed agent process is detected by waitpid
faster than by lease expiry and respawned up to a restart budget.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro import telemetry
from repro.campaigns.executor import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TIMEOUT_S,
    CampaignManifest,
    CampaignRunStats,
    _DrainGuard,
    _utc_now,
)
from repro.cluster.transport import (
    COORDINATOR_MAILBOX,
    Message,
    SpoolTransport,
    host_mailbox,
)
from repro.engine.cache import ResultCache
from repro.engine.executor import DEFAULT_MAX_RETRIES
from repro.engine.supervisor import JobFailure

#: Deadline for one assigned chunk: if its results have not all
#: arrived by then (lost messages, silently wedged host), the
#: remainder is requeued.  Requeues are safe — the store makes
#: re-execution a cache hit — so this only needs to beat a genuinely
#: stuck chunk, not a slow one.
CHUNK_TIMEOUT_S = 300.0

#: Times a crashed agent process is relaunched before the coordinator
#: stops betting on that host.
MAX_HOST_RESTARTS = 2

#: Coordinator scheduling quantum.
POLL_S = 0.05


@dataclass
class ClusterRunStats(CampaignRunStats):
    """Single-host stats plus the distributed ledger."""

    hosts: int = 0              #: agents requested
    chunks: int = 0             #: assignment chunks dealt
    reassigned: int = 0         #: jobs requeued from dead/expired hosts
    duplicate_results: int = 0  #: late results discarded by hash
    hosts_lost: int = 0         #: lease expiries + process deaths
    hosts_restarted: int = 0    #: crashed agent processes relaunched

    def as_dict(self) -> Dict[str, Any]:
        return {**super().as_dict(), "distributed": True}


@dataclass
class HostState:
    """What the coordinator believes about one host."""

    host_id: str
    mailbox: str
    pid: Optional[int] = None
    last_seen: float = 0.0
    alive: bool = False          #: lease currently valid
    assigned: Set[str] = field(default_factory=set)
    assigned_at: float = 0.0
    handle: Optional[subprocess.Popen] = None
    restarts: int = 0


class LocalAgentLauncher:
    """Spawns host agents as local subprocesses via the CLI.

    The exec'd command line is exactly what an SSH launcher would run
    on a remote host (``python -m repro.cli campaign agent ...``);
    only the process-spawning layer is local.  Agent stdout/stderr go
    to per-host log files under the cluster directory.
    """

    def __init__(
        self,
        cluster_root: Path,
        n_jobs: int = 1,
        max_retries: int = DEFAULT_MAX_RETRIES,
        job_timeout: Optional[float] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        cache_dir: Optional[Path] = None,
    ):
        self.cluster_root = Path(cluster_root)
        self.n_jobs = n_jobs
        self.max_retries = max_retries
        self.job_timeout = job_timeout
        self.heartbeat_s = heartbeat_s
        self.cache_dir = cache_dir

    def command(self, host_id: str) -> List[str]:
        cmd = [
            sys.executable, "-m", "repro.cli", "campaign", "agent",
            "--host-id", host_id,
            "--cluster-dir", str(self.cluster_root),
            "--jobs", str(self.n_jobs),
            "--max-retries", str(self.max_retries),
            "--heartbeat", str(self.heartbeat_s),
            "--parent-pid", str(os.getpid()),
        ]
        if self.job_timeout is not None:
            cmd += ["--job-timeout", str(self.job_timeout)]
        if self.cache_dir is not None:
            cmd += ["--cache-dir", str(self.cache_dir)]
        return cmd

    def launch(self, host_id: str) -> subprocess.Popen:
        import repro

        env = os.environ.copy()
        src = str(Path(repro.__file__).resolve().parent.parent)
        parts = [src] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        log_dir = self.cluster_root / "logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        log = open(log_dir / f"{host_mailbox(host_id)}.log", "ab")
        try:
            return subprocess.Popen(
                self.command(host_id),
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        finally:
            log.close()


class Coordinator:
    """Lease-based scheduler over one campaign plan."""

    def __init__(
        self,
        plan,
        manifest: CampaignManifest,
        cache: ResultCache,
        transport: SpoolTransport,
        stats: ClusterRunStats,
        launcher: Optional[LocalAgentLauncher] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT_S,
        chunk_size: int = DEFAULT_BATCH_SIZE,
        progress=None,
    ):
        self.plan = plan
        self.manifest = manifest
        self.cache = cache
        self.transport = transport
        self.stats = stats
        self.launcher = launcher
        self.lease_timeout = lease_timeout
        self.chunk_size = max(1, int(chunk_size))
        self.chunk_timeout = CHUNK_TIMEOUT_S
        self.progress = progress
        self.hosts: Dict[str, HostState] = {}
        self.completed: Set[str] = set(manifest.completed)
        self.quarantined: Set[str] = set(manifest.quarantined)
        self.pending: List[str] = []
        self._dirty = 0
        self._stopping = False
        self._tel = telemetry.get()

    @classmethod
    def local(cls, plan, manifest, cache, stats, lease_timeout,
              chunk_size, progress=None, **agent_options) -> "Coordinator":
        """A coordinator over local agent subprocesses, spooling through
        ``<campaign dir>/<name>/cluster/``; ``agent_options`` go to the
        :class:`LocalAgentLauncher`."""
        root = manifest.path.parent / "cluster"
        return cls(
            plan, manifest, cache,
            SpoolTransport(root, sender=COORDINATOR_MAILBOX), stats,
            launcher=LocalAgentLauncher(root, **agent_options),
            lease_timeout=lease_timeout, chunk_size=chunk_size,
            progress=progress,
        )

    # -- host lifecycle ------------------------------------------------

    def add_host(self, host_id: str, spawn: bool = True) -> HostState:
        host = HostState(host_id=host_id, mailbox=host_mailbox(host_id))
        self.hosts[host_id] = host
        if spawn and self.launcher is not None:
            host.handle = self.launcher.launch(host_id)
            host.pid = host.handle.pid
            host.last_seen = time.time()
            host.alive = True
            self._event("host.spawn", host=host_id, pid=host.pid)
        return host

    def spawn(self, n_hosts: int) -> None:
        """Launch ``n_hosts`` agents, each on a freshly purged inbox so
        no old incarnation's assignments or shutdown order replay."""
        self.stats.hosts = n_hosts
        for index in range(n_hosts):
            host_id = f"{index + 1}"
            self.transport.purge(host_mailbox(host_id))
            self.add_host(host_id)

    def _lose_host(self, host: HostState, reason: str) -> None:
        if not host.alive and not host.assigned:
            return
        host.alive = False
        self.stats.hosts_lost += 1
        if host.assigned:
            self.stats.reassigned += len(host.assigned)
            self.pending.extend(sorted(host.assigned))
            host.assigned.clear()
        self._event("host.dead", host=host.host_id, reason=reason)
        if self.progress is not None:
            self.progress(
                f"[cluster] host {host.host_id} {reason}; "
                "outstanding jobs requeued"
            )

    def _check_hosts(self, now: float) -> None:
        for host in self.hosts.values():
            if host.handle is not None and host.handle.poll() is not None:
                exited = host.handle.returncode
                host.handle = None
                self._lose_host(host, f"process exited ({exited})")
                if (self.launcher is not None
                        and host.restarts < MAX_HOST_RESTARTS
                        and not self._work_done()):
                    host.restarts += 1
                    self.stats.hosts_restarted += 1
                    host.handle = self.launcher.launch(host.host_id)
                    host.pid = host.handle.pid
                    host.last_seen = now
                    host.alive = True
                    self._event("host.restart", host=host.host_id,
                                pid=host.pid, attempt=host.restarts)
                continue
            if host.alive and now - host.last_seen > self.lease_timeout:
                self._lose_host(host, "lease expired")
            if (host.assigned
                    and now - host.assigned_at > self.chunk_timeout):
                self.stats.reassigned += len(host.assigned)
                self.pending.extend(sorted(host.assigned))
                host.assigned.clear()
                self._event("chunk.expired", host=host.host_id)

    # -- ingestion -----------------------------------------------------

    def _ingest(self, message: Message) -> None:
        payload = message.payload
        host = self.hosts.get(str(payload.get("host", "")))
        if message.type == "hello":
            if host is None:
                host = self.add_host(str(payload["host"]), spawn=False)
            # Outstanding assignments stay put: the spool inbox
            # survives an agent restart, so a fresh incarnation picks
            # up any chunk its predecessor never consumed.  Chunks a
            # dead incarnation *did* consume are requeued by death
            # detection, not here.
            host.pid = payload.get("pid")
            host.last_seen = time.time()
            host.alive = True
            return
        if message.type == "heartbeat":
            if host is not None:
                rejoining = not host.alive
                host.last_seen = time.time()
                host.alive = True
                if rejoining:
                    self._event("host.rejoin", host=host.host_id)
            return
        if message.type == "chunk":
            self.stats.simulated += int(payload.get("simulated", 0))
            self.stats.cache_hits += int(payload.get("cache_hits", 0))
            self.stats.retried += int(payload.get("retried", 0))
            return
        if message.type == "bye":
            if host is not None:
                if self._stopping:
                    # An ordered exit after our shutdown message is a
                    # clean departure, not a lost host.
                    host.alive = False
                else:
                    self._lose_host(host, "departed")
            return
        if message.type != "result":
            return
        job_hash = str(payload.get("hash", ""))
        if job_hash not in self.plan.jobs:
            return
        if host is not None:
            host.assigned.discard(job_hash)
        ok = payload.get("status") == "ok"
        if job_hash in self.completed or (
            not ok and job_hash in self.quarantined
        ):
            # The late duplicate a healed partition delivers: the
            # point is already verified in the store (or already
            # quarantined, and this is one more failure), discard.
            self.stats.duplicate_results += 1
            self._event("cluster.duplicate", job=job_hash,
                        host=payload.get("host"))
            return
        if ok:
            if self.cache.verify(self.plan.jobs[job_hash]) == "ok":
                self.completed.add(job_hash)
                self.quarantined.discard(job_hash)
                self.manifest.mark_completed([job_hash])
                self._dirty += 1
            else:
                # Claimed done but the sealed store disagrees —
                # whatever happened on that host, re-simulate.
                self.pending.append(job_hash)
                self.stats.reassigned += 1
                self._event("cluster.unverified", job=job_hash)
        else:
            # the checked message hash wins over the record's own
            failure = JobFailure.from_dict(
                {**(payload.get("failure") or {}), "job_hash": job_hash}
            )
            self.quarantined.add(job_hash)
            self.stats.quarantined += 1
            self.manifest.mark_quarantined([failure])
            self._dirty += 1

    def scavenge(self) -> None:
        """Adopt results a dead coordinator incarnation left spooled.

        A killed coordinator can leave agent messages unconsumed in
        its inbox.  Results are worth ingesting — they are idempotent
        and may complete points the old incarnation never checkpointed,
        turning them into ``previously_complete`` instead of rework.
        Stale control traffic (hello/heartbeat/chunk stats/bye)
        describes a cluster that no longer exists and is dropped, so
        it cannot pollute this run's accounting.
        """
        adopted = 0
        for message in self.transport.recv(COORDINATOR_MAILBOX):
            if message.type == "result":
                self._ingest(message)
                adopted += 1
        if self._dirty:
            self._event("cluster.scavenge", results=adopted)
            self._checkpoint(force=True)

    def _checkpoint(self, force: bool = False) -> None:
        if self._dirty == 0 and not force:
            return
        if not force and self._dirty < self.chunk_size:
            return
        self.manifest.save()
        self.stats.batches += 1
        self._dirty = 0
        done = len(self.completed & set(self.plan.jobs))
        self._event("campaign.checkpoint", done=done,
                    total=self.plan.total_points)
        if self.progress is not None:
            self.progress(
                f"[{self.plan.spec.name}] {done}/{self.plan.total_points} "
                f"points ({self.stats.duplicate_results} duplicates "
                f"discarded, {self.stats.reassigned} reassigned)"
            )

    # -- scheduling ----------------------------------------------------

    def _assign(self, now: float) -> None:
        for host in self.hosts.values():
            if not host.alive or host.assigned or not self.pending:
                continue
            chunk: List[str] = []
            while self.pending and len(chunk) < self.chunk_size:
                job_hash = self.pending.pop(0)
                if job_hash in self.completed or job_hash in chunk:
                    continue
                chunk.append(job_hash)
            if not chunk:
                continue
            self.transport.send(host.mailbox, Message(
                type="assign", sender=COORDINATOR_MAILBOX,
                payload={"jobs": [
                    {"hash": h, "job": self.plan.jobs[h].canonical()}
                    for h in chunk
                ]},
            ))
            host.assigned.update(chunk)
            host.assigned_at = now
            self.stats.chunks += 1
            self.stats.submitted += len(chunk)
            self._event("cluster.assign", host=host.host_id,
                        jobs=len(chunk))

    def _work_done(self) -> bool:
        return set(self.plan.jobs) <= (self.completed | self.quarantined)

    def _cluster_lost(self) -> bool:
        """True when no host is alive and none can come back."""
        if any(h.alive for h in self.hosts.values()):
            return False
        # A partitioned-but-running process may still heartbeat later;
        # only give up when every agent process is known gone and the
        # restart budget is spent.
        for host in self.hosts.values():
            if host.handle is not None and host.handle.poll() is None:
                return False
            if (self.launcher is not None
                    and host.restarts < MAX_HOST_RESTARTS):
                return False
        return True

    def _event(self, kind: str, **fields: Any) -> None:
        if self._tel is not None:
            self._tel.event(kind, **fields)

    # -- main loop -----------------------------------------------------

    def drive(self, pending: List[str], drain: _DrainGuard) -> bool:
        """Run the scheduler until the pool drains or the run must stop.

        Deals ``pending`` in the given order (the caller groups it by
        workload, so a host builds each workload once).  True when
        every planned point is completed or quarantined.
        """
        # The manifest is the source of truth: a store audit may have
        # demoted completed points since the last drive.
        self.completed = set(self.manifest.completed)
        self.pending = list(pending)
        while not self._work_done():
            if drain.requested:
                break
            now = time.time()
            for message in self.transport.recv(COORDINATOR_MAILBOX):
                self._ingest(message)
            self._check_hosts(now)
            self._assign(now)
            self._checkpoint()
            if self._cluster_lost():
                self.manifest.data.setdefault("notes", []).append(
                    f"cluster degraded at {_utc_now()}: all hosts lost "
                    f"with {len(self.pending)} job(s) unassigned; "
                    "resume with the same command"
                )
                break
            time.sleep(POLL_S)
        self._checkpoint(force=True)
        return self._work_done()

    def shutdown(self, timeout: float = 8.0) -> None:
        """Stop the agents, ingesting stragglers while they wind down.

        The inbox keeps being pumped until every agent process exits
        (or the deadline passes): a partitioned host that finishes a
        reassigned chunk late delivers its results *here*, where the
        idempotent ingest counts and discards them by hash instead of
        losing the accounting.
        """
        self._stopping = True
        for host in self.hosts.values():
            self.transport.send(host.mailbox, Message(
                type="shutdown", sender=COORDINATOR_MAILBOX,
            ))
        deadline = time.time() + timeout
        while time.time() < deadline:
            for message in self.transport.recv(COORDINATOR_MAILBOX):
                self._ingest(message)
            running = [
                h for h in self.hosts.values()
                if h.handle is not None and h.handle.poll() is None
            ]
            if not running:
                break
            time.sleep(POLL_S)
        for message in self.transport.recv(COORDINATOR_MAILBOX):
            self._ingest(message)
        for host in self.hosts.values():
            handle = host.handle
            if handle is None or handle.poll() is not None:
                continue
            handle.kill()
            try:
                handle.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                pass
        if self._dirty:
            self._checkpoint(force=True)
