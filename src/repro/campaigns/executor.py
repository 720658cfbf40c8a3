"""Resumable, fault-tolerant campaign execution on top of
:func:`run_jobs`.

A campaign's deduplicated job pool runs in batches; after every batch
the **campaign manifest** (``<campaign dir>/<name>/manifest.json``) is
rewritten atomically with the set of completed job hashes.  A killed
campaign therefore restarts exactly where it died: completed points
are never resubmitted (the manifest skips them before
:func:`run_jobs` is even called), and points the result cache already
holds cost a cache hit, not a simulation — ``simulated == 0`` for
every already-completed point is the invariant the resumability tests
pin down.

The manifest is only trusted for the code version that wrote it.  Any
source change mints a new :func:`~repro.engine.cache.code_version`,
which both strands the old cache generation and resets the manifest's
completion set — a resumed campaign can never mix results from two
simulator versions.

On top of resumability, this layer carries the campaign through real
faults (docs/FAULTS.md):

* batches run with ``on_failure="skip"`` — jobs that exhaust the
  executor's retry budget (crashing, hanging, or raising workers) are
  **quarantined** in the manifest with their full
  :class:`~repro.engine.supervisor.JobFailure` diagnostics instead of
  aborting the campaign;
* manifest writes rotate the previous good copy to
  ``manifest.json.prev`` before the atomic replace, and
  :meth:`CampaignManifest.load` falls back to it (quarantining the
  torn file) when the primary is corrupt — a ``kill -9`` mid-
  checkpoint costs at most one batch of completion records, never the
  campaign;
* once every point is accounted for, a **store audit** re-reads every
  completed entry through the cache's verified-read path; entries
  that went missing or corrupt on disk are demoted and re-simulated
  in the same invocation (the corrupt files land in the store's
  ``quarantine/``);
* ``SIGTERM``/``SIGINT`` request a **graceful drain**: the in-flight
  batch finishes, the manifest checkpoints, and the run returns
  resumable (a second signal aborts the old-fashioned way).

Completed batches also annotate the result-cache index with
per-experiment provenance (``experiments`` field), so
``repro cache --query experiment=<name>`` works after a campaign run.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaigns.planner import CampaignPlan, plan_campaign
from repro.campaigns.spec import CampaignError, CampaignSpec, campaign_dir
from repro.engine.cache import ResultCache, code_version
from repro.engine.durable import atomic_write_json, quarantine_file
from repro.engine.executor import (
    DEFAULT_MAX_RETRIES,
    group_by_workload,
    run_jobs,
)

MANIFEST_NAME = "manifest.json"

log = logging.getLogger("repro.campaigns.executor")

#: Previous good manifest, kept one rotation deep for torn-write
#: recovery.
MANIFEST_PREV_SUFFIX = ".prev"

#: Points per checkpoint batch.  Small enough that a kill loses
#: minutes, large enough that manifest rewrites are noise.
DEFAULT_BATCH_SIZE = 16

#: Bound on demote-and-resimulate audit rounds per invocation (a
#: persistently failing disk must not loop forever).
MAX_AUDIT_ROUNDS = 3

#: Host-lease defaults of a ``hosts > 0`` run: seconds without a
#: heartbeat before a host is declared dead, and the agents' heartbeat
#: interval (the lease must be a comfortable multiple of it).
DEFAULT_LEASE_TIMEOUT_S = 5.0
DEFAULT_HEARTBEAT_S = 0.5


@dataclass
class CampaignRunStats:
    """Accounting for one :func:`run_campaign` invocation."""

    total_points: int = 0          #: distinct points in the plan
    previously_complete: int = 0   #: skipped via the manifest
    submitted: int = 0             #: points handed to run_jobs
    simulated: int = 0             #: points actually simulated
    cache_hits: int = 0            #: points served by the result cache
    batches: int = 0               #: checkpoint batches executed
    retried: int = 0               #: executor attempts re-queued
    quarantined: int = 0           #: points quarantined this run
    audited_bad: int = 0           #: completed entries demoted by audit
    drained: bool = False          #: stopped early by SIGTERM/SIGINT

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class CampaignRunResult:
    """What one :func:`run_campaign` call accomplished."""

    plan: CampaignPlan
    manifest_path: Path
    stats: CampaignRunStats
    complete: bool
    drained: bool = False
    quarantined: Dict[str, Dict[str, Any]] = field(default_factory=dict)


class CampaignManifest:
    """The on-disk checkpoint of one campaign's progress."""

    def __init__(self, path: Path, data: Dict[str, Any]):
        self.path = Path(path)
        self.data = data

    # -- construction --------------------------------------------------

    @classmethod
    def fresh(cls, path: Path, plan: CampaignPlan) -> "CampaignManifest":
        return cls(
            path,
            {
                "campaign": plan.spec.name,
                "description": plan.spec.description,
                "code_version": code_version(),
                "created": _utc_now(),
                "experiments": [
                    {
                        "name": exp.name,
                        "kind": exp.kind,
                        "params": exp.params,
                        "points": exp.points,
                        "job_hashes": exp.job_hashes,
                    }
                    for exp in plan.experiments
                ],
                "total_points": plan.total_points,
                "completed": [],
                "quarantined": {},
                "runs": [],
                "status": "planned",
            },
        )

    @classmethod
    def load(cls, path: Path) -> Optional["CampaignManifest"]:
        """Load a manifest, recovering from a torn primary.

        A corrupt ``manifest.json`` (truncated JSON, non-manifest
        payload) is quarantined next to the campaign state and the
        previous rotation (``manifest.json.prev``) is tried; only when
        neither is usable does the campaign restart from scratch —
        and even then the result cache still turns completed points
        into cache hits, not re-simulations.
        """
        path = Path(path)
        primary = cls._read(path)
        if primary is not None:
            return cls(path, primary)
        if path.exists():
            quarantine_file(path, "corrupt campaign manifest")
        prev = cls._read(Path(str(path) + MANIFEST_PREV_SUFFIX))
        if prev is not None:
            notes = prev.setdefault("notes", [])
            notes.append(
                "recovered from manifest.json.prev after a torn/corrupt "
                "primary manifest"
            )
            return cls(path, prev)
        return None

    @staticmethod
    def _read(path: Path) -> Optional[Dict[str, Any]]:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or "completed" not in data:
            return None
        return data

    @classmethod
    def for_plan(cls, path: Path, plan: CampaignPlan) -> "CampaignManifest":
        """Load-or-create, reconciled against the current plan.

        An existing manifest keeps its completion set (and quarantine
        records) only where they are still meaningful: hashes that the
        current plan still wants, written by the current code version.
        A plan change (different grids, new experiments) keeps the
        overlap; a code-version change resets completion entirely —
        the cache generation those points lived in is stranded anyway.
        """
        existing = cls.load(path)
        manifest = cls.fresh(path, plan)
        if existing is None:
            return manifest
        if existing.data.get("code_version") != code_version():
            manifest.data["runs"] = list(existing.data.get("runs") or [])
            manifest.data["notes"] = [
                "completion reset: manifest was written by code version "
                f"{existing.data.get('code_version')!r}"
            ]
            return manifest
        wanted = set(plan.jobs)
        manifest.data["runs"] = list(existing.data.get("runs") or [])
        if existing.data.get("notes"):
            manifest.data["notes"] = list(existing.data["notes"])
        manifest.data["created"] = existing.data.get(
            "created", manifest.data["created"]
        )
        manifest.data["completed"] = sorted(
            h for h in existing.data.get("completed") or [] if h in wanted
        )
        manifest.data["quarantined"] = {
            h: record
            for h, record in (existing.data.get("quarantined") or {}).items()
            if h in wanted
        }
        manifest.refresh_status()
        return manifest

    # -- state ---------------------------------------------------------

    @property
    def completed(self) -> List[str]:
        return list(self.data.get("completed") or [])

    @property
    def quarantined(self) -> Dict[str, Dict[str, Any]]:
        return dict(self.data.get("quarantined") or {})

    @property
    def status(self) -> str:
        return self.data.get("status", "planned")

    def refresh_status(self) -> None:
        done = len(self.data.get("completed") or [])
        bad = len(self.data.get("quarantined") or {})
        total = self.data.get("total_points") or 0
        if total > 0 and done >= total:
            self.data["status"] = "complete"
        elif total > 0 and bad and done + bad >= total:
            self.data["status"] = "quarantined"
        elif done > 0 or bad > 0:
            self.data["status"] = "running"
        else:
            self.data["status"] = "planned"

    def mark_completed(self, job_hashes: List[str]) -> None:
        completed = set(self.data.get("completed") or [])
        completed.update(job_hashes)
        self.data["completed"] = sorted(completed)
        quarantined = self.data.get("quarantined") or {}
        for job_hash in job_hashes:
            quarantined.pop(job_hash, None)
        self.data["quarantined"] = quarantined
        self.refresh_status()

    def unmark_completed(self, job_hashes: List[str]) -> None:
        """Demote points whose store entries failed the audit."""
        drop = set(job_hashes)
        self.data["completed"] = sorted(
            h for h in self.data.get("completed") or [] if h not in drop
        )
        self.refresh_status()

    def mark_quarantined(self, failures) -> None:
        """Record terminal job failures (keyed by hash, diagnostics
        kept verbatim from the executor's ``JobFailure`` records)."""
        quarantined = self.data.get("quarantined") or {}
        for failure in failures:
            record = failure.as_dict()
            record["quarantined_at"] = _utc_now()
            quarantined[failure.job_hash] = record
        self.data["quarantined"] = quarantined
        self.refresh_status()

    def clear_quarantine(self, job_hashes=None) -> List[str]:
        """Forget quarantine records (all, or the given hashes) so the
        next run retries them; returns the cleared hashes."""
        quarantined = self.data.get("quarantined") or {}
        cleared = (
            list(quarantined)
            if job_hashes is None
            else [h for h in job_hashes if h in quarantined]
        )
        for job_hash in cleared:
            quarantined.pop(job_hash, None)
        self.data["quarantined"] = quarantined
        self.refresh_status()
        return cleared

    def record_run(self, stats: CampaignRunStats) -> None:
        self.data.setdefault("runs", []).append(
            {"finished": _utc_now(), **stats.as_dict()}
        )

    def experiment_progress(self) -> List[Dict[str, Any]]:
        """Per-experiment completion counts (for ``campaign status``)."""
        completed = set(self.completed)
        quarantined = set(self.data.get("quarantined") or {})
        progress = []
        for experiment in self.data.get("experiments") or []:
            hashes = set(experiment.get("job_hashes") or [])
            progress.append(
                {
                    "name": experiment.get("name"),
                    "kind": experiment.get("kind"),
                    "points": len(hashes),
                    "completed": len(hashes & completed),
                    "quarantined": len(hashes & quarantined),
                }
            )
        return progress

    def save(self) -> None:
        """Checkpoint atomically, rotating the previous good copy.

        The rotation only happens when the current primary parses as a
        manifest — a torn primary (injected or real) must never
        overwrite the last good ``.prev`` with garbage.
        """
        prev = Path(str(self.path) + MANIFEST_PREV_SUFFIX)
        if self._read(self.path) is not None:
            try:
                os.replace(self.path, prev)
            except OSError:
                pass
        atomic_write_json(
            self.path, self.data, indent=2,
            fault_site="manifest.write",
            fault_key=str(self.data.get("campaign") or ""),
        )


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def manifest_path(name: str, directory=None) -> Path:
    return campaign_dir(directory) / name / MANIFEST_NAME


class _DrainGuard:
    """Turn the first SIGTERM/SIGINT into a graceful-drain request.

    The batch in flight finishes, the manifest checkpoints, and
    :func:`run_campaign` returns a resumable result.  A second signal
    falls back to an immediate ``KeyboardInterrupt`` (the manifest is
    still no worse than the last checkpoint).  Outside the main
    thread, signal handlers cannot be installed; the guard degrades to
    a no-op.
    """

    def __init__(self):
        self.requested = False
        self._signal_name: Optional[str] = None
        self._previous = []

    def __enter__(self) -> "_DrainGuard":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous = signal.signal(signum, self._handle)
                except (ValueError, OSError):
                    continue
                self._previous.append((signum, previous))
        return self

    def __exit__(self, *_exc) -> None:
        for signum, previous in self._previous:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous = []

    def _handle(self, signum, _frame) -> None:
        if self.requested:
            raise KeyboardInterrupt(
                f"second {signal.Signals(signum).name}: aborting drain"
            )
        self.requested = True
        self._signal_name = signal.Signals(signum).name


def _run_batches(plan, manifest, pending, stats, drain, batch_size,
                 progress, tel, **run_kwargs) -> None:
    """Execute ``pending`` in-process, one checkpointed
    :func:`run_jobs` batch at a time, stopping early on a drain."""
    from repro import telemetry

    name = plan.spec.name
    for start in range(0, len(pending), batch_size):
        batch = pending[start:start + batch_size]
        span = (
            tel.span("campaign.batch", campaign=name,
                     batch=stats.batches + 1, points=len(batch))
            if tel is not None else telemetry.NOOP_SPAN
        )
        with span:
            run_jobs([plan.jobs[job_hash] for job_hash in batch],
                     on_failure="skip", **run_kwargs)
        batch_stats = run_jobs.last_stats
        failed = {f.job_hash for f in batch_stats.failures}
        stats.batches += 1
        stats.submitted += len(batch)
        stats.simulated += batch_stats.simulated
        stats.cache_hits += batch_stats.cache_hits
        stats.retried += batch_stats.retried
        stats.quarantined += len(failed)
        manifest.mark_completed([h for h in batch if h not in failed])
        manifest.mark_quarantined(batch_stats.failures)
        manifest.save()
        log.debug(
            "campaign %s batch %d: %d simulated, %d cached, "
            "%d quarantined", name, stats.batches,
            batch_stats.simulated, batch_stats.cache_hits, len(failed),
        )
        if tel is not None:
            tel.event(
                "campaign.batch.done", campaign=name, batch=stats.batches,
                done=len(manifest.completed), total=plan.total_points,
                simulated=batch_stats.simulated,
                cache_hits=batch_stats.cache_hits,
                retried=batch_stats.retried, quarantined=len(failed),
            )
        if progress is not None:
            line = (
                f"[{name}] {len(manifest.completed)}/"
                f"{plan.total_points} points "
                f"({batch_stats.simulated} simulated, "
                f"{batch_stats.cache_hits} cached this batch)"
            )
            if failed:
                line += f", {len(failed)} quarantined"
            progress(line)
        if drain.requested:
            return


def run_campaign(
    spec: CampaignSpec,
    directory=None,
    scale: Optional[float] = None,
    n_jobs: int = 1,
    use_cache: bool = True,
    cache_dir=None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    progress=None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    job_timeout: Optional[float] = None,
    retry_quarantined: bool = False,
    hosts: int = 0,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT_S,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> CampaignRunResult:
    """Run (or resume) a campaign to completion.

    Interrupting mid-run is safe at any point: the manifest checkpoints
    after every batch, so the next invocation resubmits only the
    points that were not yet complete.  ``progress`` is an optional
    ``callable(str)`` for per-batch status lines (the CLI passes
    ``print``).

    ``max_retries``/``job_timeout`` go straight to the supervised
    executor; jobs that exhaust the budget are quarantined in the
    manifest (with diagnostics) rather than aborting the campaign, and
    stay skipped on resume until ``retry_quarantined=True`` clears
    them for another try.

    ``hosts > 0`` executes through a :mod:`repro.cluster` coordinator
    and that many host agent processes instead of in-process batches:
    ``batch_size`` is then the assignment chunk, ``n_jobs`` the
    per-host worker count, and ``lease_timeout``/``heartbeat_s`` the
    host-lease timing.  The store is the cluster's data plane, so
    ``hosts > 0`` needs ``use_cache=True``.  Agents spawn only once
    there is work: a resume with nothing pending starts no process and
    reports ``stats.hosts == 0``.
    """
    from repro import telemetry

    if hosts > 0 and not use_cache:
        raise CampaignError(
            "campaign run --hosts requires the result store (it is the "
            "cluster's data plane); drop --no-cache"
        )
    plan = plan_campaign(spec, scale=scale)
    manifest = CampaignManifest.for_plan(
        manifest_path(spec.name, directory), plan
    )
    cache = ResultCache(cache_dir) if use_cache else None
    batch_size = max(1, int(batch_size))
    if hosts > 0:
        from repro.cluster.coordinator import ClusterRunStats, Coordinator

        stats = ClusterRunStats(total_points=plan.total_points)
    else:
        stats = CampaignRunStats(total_points=plan.total_points)
    tel = telemetry.get()
    if tel is not None:
        tel.set_role("coordinator" if hosts > 0 else "campaign")
        tel.event(
            "campaign.start", campaign=spec.name,
            total_points=plan.total_points, n_jobs=n_jobs, hosts=hosts,
        )
    log.info(
        "campaign %s: %d point(s), n_jobs=%d, batch_size=%d, hosts=%d",
        spec.name, plan.total_points, n_jobs, batch_size, hosts,
    )

    if retry_quarantined:
        cleared = manifest.clear_quarantine()
        if cleared and progress is not None:
            progress(
                f"[{plan.spec.name}] retrying {len(cleared)} "
                "quarantined point(s)"
            )

    coordinator = None
    if hosts > 0:
        coordinator = Coordinator.local(
            plan, manifest, cache, stats, lease_timeout=lease_timeout,
            chunk_size=batch_size, progress=progress, n_jobs=n_jobs,
            max_retries=max_retries, job_timeout=job_timeout,
            heartbeat_s=heartbeat_s, cache_dir=cache_dir,
        )
        # A previous coordinator may have died with agent results
        # still spooled: adopt them before sizing the remaining work,
        # so they count as previously complete instead of re-dealt.
        coordinator.scavenge()

    completed = set(manifest.completed)
    skip = completed | set(manifest.quarantined)
    pending = [h for h in plan.jobs if h not in skip]
    stats.previously_complete = len(completed & set(plan.jobs))

    audit_rounds = 0
    try:
        with _DrainGuard() as drain:
            while True:
                # Workload-grouped, so each batch (or chunk) reuses one
                # materialized workload across its points (completion
                # order changes, results do not).
                pending = group_by_workload(
                    pending, lambda job_hash: plan.jobs[job_hash].workload,
                )
                settled = True
                if coordinator is None:
                    _run_batches(
                        plan, manifest, pending, stats, drain, batch_size,
                        progress, tel, n_jobs=n_jobs, use_cache=use_cache,
                        cache_dir=cache_dir, max_retries=max_retries,
                        job_timeout=job_timeout,
                    )
                else:
                    if pending and not coordinator.hosts:
                        coordinator.spawn(hosts)
                    settled = coordinator.drive(pending, drain)
                if drain.requested:
                    stats.drained = True
                    manifest.data.setdefault("notes", []).append(
                        f"graceful drain ({drain._signal_name}) at "
                        f"{_utc_now()}: in-flight work checkpointed, "
                        "resume with the same command"
                    )
                    break
                # -- store audit: completed points must really be on
                # disk and readable; demote + re-simulate what is not.
                if cache is None or not settled:
                    break
                bad = [
                    job_hash
                    for job_hash in manifest.completed
                    if job_hash in plan.jobs
                    and cache.verify(plan.jobs[job_hash]) != "ok"
                ]
                if not bad:
                    break
                audit_rounds += 1
                stats.audited_bad += len(bad)
                manifest.unmark_completed(bad)
                manifest.save()
                log.warning(
                    "campaign %s store audit round %d: %d bad entr(ies)",
                    spec.name, audit_rounds, len(bad),
                )
                if tel is not None:
                    tel.event(
                        "campaign.audit", campaign=spec.name,
                        round=audit_rounds, bad=len(bad),
                    )
                if progress is not None:
                    progress(
                        f"[{plan.spec.name}] store audit: {len(bad)} "
                        "completed entr(ies) missing or corrupt — "
                        "quarantined on disk, re-simulating"
                    )
                if audit_rounds >= MAX_AUDIT_ROUNDS:
                    manifest.data.setdefault("notes", []).append(
                        f"store audit gave up after {audit_rounds} "
                        f"rounds with {len(bad)} bad entr(ies)"
                    )
                    break
                pending = bad
    finally:
        if coordinator is not None:
            coordinator.shutdown()
        manifest.record_run(stats)
        manifest.refresh_status()
        manifest.save()
        log.info(
            "campaign %s: %s (%d simulated, %d cached, %d quarantined)",
            spec.name, manifest.status, stats.simulated,
            stats.cache_hits, stats.quarantined,
        )
        if tel is not None:
            tel.event("campaign.done", campaign=spec.name,
                      status=manifest.status, **stats.as_dict())

    # Annotate only when this run did work: a zero-submission resume
    # (status checks, the CI resume-noop step) must not append another
    # full copy of the annotation set to the generation's index.
    if use_cache and stats.submitted:
        _annotate_provenance(plan, cache_dir)
    return CampaignRunResult(
        plan=plan,
        manifest_path=manifest.path,
        stats=stats,
        complete=manifest.status == "complete",
        drained=stats.drained,
        quarantined=manifest.quarantined,
    )


def verify_campaign(
    spec: CampaignSpec,
    directory=None,
    scale: Optional[float] = None,
    cache_dir=None,
) -> Dict[str, Any]:
    """Exactly-once audit of a campaign's results in the store.

    Re-plans the campaign and checks, without simulating anything,
    that every planned job hash resolves to exactly one verified store
    entry (or a manifest quarantine record).  The payload backs
    ``repro campaign verify`` and the chaos CI gate:

    * ``missing`` — planned, marked complete, but no entry on disk;
    * ``corrupt`` — entry present but unreadable/seal-failed (the
      check quarantines it as a side effect);
    * ``unaccounted`` — planned but neither completed nor quarantined;
    * ``duplicates`` — hashes with entries in both store layouts;
    * ``quarantined`` — the manifest's quarantine records.

    ``ok`` is True when the store holds exactly the planned results:
    no missing/corrupt/unaccounted/duplicate entries (quarantined
    points are accounted for, but reported for the strict gate).
    """
    plan = plan_campaign(spec, scale=scale)
    manifest = CampaignManifest.load(manifest_path(spec.name, directory))
    cache = ResultCache(cache_dir)
    completed = set(manifest.completed) if manifest else set()
    quarantined = manifest.quarantined if manifest else {}
    missing: List[str] = []
    corrupt: List[str] = []
    unaccounted: List[str] = []
    verified = 0
    for job_hash, job in plan.jobs.items():
        if job_hash in completed:
            state = cache.verify(job)
            if state == "ok":
                verified += 1
            elif state == "missing":
                missing.append(job_hash)
            else:
                corrupt.append(job_hash)
        elif job_hash not in quarantined:
            unaccounted.append(job_hash)
    duplicates = [
        h for h in cache.duplicate_hashes() if h in plan.jobs
    ]
    return {
        "campaign": plan.spec.name,
        "planned": plan.total_points,
        "completed": len(completed & set(plan.jobs)),
        "verified": verified,
        "missing": sorted(missing),
        "corrupt": sorted(corrupt),
        "unaccounted": sorted(unaccounted),
        "duplicates": duplicates,
        "quarantined": quarantined,
        "store_quarantine_log": cache.quarantine_records(),
        "ok": not (missing or corrupt or unaccounted or duplicates),
    }


def _annotate_provenance(plan: CampaignPlan, cache_dir=None) -> None:
    """Tag the result-cache index with experiment attributions."""
    cache = ResultCache(cache_dir)
    for experiment in plan.experiments:
        cache.annotate(sorted(set(experiment.job_hashes)), experiment.name)
