"""On-disk result cache keyed by job hash + code-version salt.

Completed simulation points are stored as sealed JSON under::

    <cache dir>/<code version>/<hh>/<job hash>.json

where ``hh`` is the two-hex-character shard prefix of the job hash
(:mod:`repro.engine.store`).  That path is the one place a job's
result can live: a lookup is one read, and an entry that is missing
its ``sha256`` seal is corrupt (:mod:`repro.engine.durable`).  The
entry files are the store's only record: :meth:`ResultCache.stats` is
a ``stat`` scan and :meth:`ResultCache.query` parses the entries, so a
``put`` writes exactly one file.

The *code version* is a hash over every ``*.py`` and ``*.c`` file of
the ``repro`` package plus an explicit schema salt, so any change to
the simulator, the native drain kernel, the schemes, or the workload
generators silently invalidates old entries — a stale cache can never
masquerade as a fresh result.  The salt (:data:`CACHE_SCHEMA_SALT`)
exists for deliberate bumps: the hot-path overhaul bumped it to retire
every warm cache written by the pre-optimization simulator, even for
users running an identical source tree from a different install path.
The cache directory defaults to ``~/.cache/repro/sim`` and is
overridden by the ``REPRO_CACHE_DIR`` environment variable (tests
point it at a tmpdir).

Entries store both the canonical job description and the result, so a
cache directory doubles as a browsable record of completed sweeps.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import shutil
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.engine.durable import (
    CorruptEntryError,
    atomic_write_json,
    quarantine_file,
    quarantine_log,
    read_json_verified,
)
from repro.engine.job import SimJob
from repro.engine.store import (
    GenerationStats,
    count_entries,
    entry_records,
    generation_stats,
    shard_name,
)
from repro.sim.metrics import SimulationResult
from repro.types import EnergyCounts

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Deliberate cache-generation bump, folded into :func:`code_version`.
#: v2: simulator hot-path overhaul (zero-alloc event loop, incremental
#: schedulers, array-backed sketches) — results are byte-identical,
#: but pre-overhaul entries must not satisfy post-overhaul jobs.
#: v3: a second simulator backend (since replaced by the native C
#: kernel) + numpy-optional workload generation.  Results are
#: byte-identical across backends (the golden suite pins both), but the
#: salt retires caches written before the equivalence machinery
#: existed; the value stays, so existing stores stay valid.
CACHE_SCHEMA_SALT = "v3-turbo"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sim"


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """Hash of the installed ``repro`` sources (the cache salt): every
    python module and the native drain kernel's C source.

    The native/python simulation *backend* is deliberately **not**
    folded in — backends are byte-identical (golden-pinned)
    implementation details and share cache entries.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    digest.update(CACHE_SCHEMA_SALT.encode())
    digest.update(b"\0")
    sources = [*package_root.rglob("*.py"), *package_root.rglob("*.c")]
    for path in sorted(sources):
        digest.update(path.relative_to(package_root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    return dataclasses.asdict(result)


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    payload = dict(data)
    payload["energy"] = EnergyCounts(**payload["energy"])
    return SimulationResult(**payload)


class ResultCache:
    """Get/put completed :class:`SimulationResult`s by job.

    Each instance keeps running ``hits`` / ``misses`` / ``quarantined``
    counts across its :meth:`get` calls — the executor surfaces them
    on ``run_jobs.last_stats`` and the telemetry layer mirrors them as
    ``cache.hit`` / ``cache.miss`` / ``cache.quarantine`` counters.
    """

    def __init__(self, directory=None):
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self._live_version = ""
        self._live_root = ""

    def version_dir(self, version: Optional[str] = None) -> Path:
        return self.directory / (version or code_version())

    def path_for(self, job: SimJob) -> Path:
        """The sharded entry path: where ``job``'s result is read and
        written."""
        return Path(self._entry_path(job))

    def _entry_path(self, job: SimJob) -> str:
        """:meth:`path_for` as a string joined onto the live
        generation's directory, kept as a string between lookups (the
        read path opens it directly)."""
        version = code_version()
        if version != self._live_version:
            self._live_root = os.path.join(self.directory, version)
            self._live_version = version
        job_hash = job.job_hash()
        return os.path.join(
            self._live_root, shard_name(job_hash), job_hash + ".json"
        )

    def get(self, job: SimJob) -> Optional[SimulationResult]:
        """The cached result for ``job``, or None.

        A truncated, unparsable, unsealed, or seal-failing entry
        (:mod:`repro.engine.durable`) is moved into the generation's
        ``quarantine/`` directory and reported as a miss — the point
        re-simulates instead of raising (or serving garbage)
        mid-campaign.
        """
        from repro import telemetry

        path = self._entry_path(job)
        try:
            record = self._read_entry(path)
        except FileNotFoundError:
            record = None
        if record is not None:
            try:
                result = result_from_dict(record["result"])
            except (KeyError, TypeError, ValueError) as error:
                quarantine_file(
                    path, f"undecodable result payload: {error}",
                    root=self.version_dir(),
                )
                self.quarantined += 1
                telemetry.counter("cache.quarantine")
            else:
                self.hits += 1
                telemetry.counter("cache.hit")
                return result
        self.misses += 1
        telemetry.counter("cache.miss")
        return None

    def _read_entry(self, path: str) -> Optional[Dict[str, Any]]:
        """Verified entry record at ``path``; corrupt ⇒ quarantine + None.

        ``FileNotFoundError`` propagates (a missing entry is a miss,
        not corruption).
        """
        try:
            return read_json_verified(path)
        except FileNotFoundError:
            raise
        except CorruptEntryError as error:
            from repro import telemetry

            quarantine_file(path, str(error), root=self.version_dir())
            self.quarantined += 1
            telemetry.counter("cache.quarantine")
            telemetry.event(
                "cache.quarantine", path=str(path), reason=str(error)
            )
            return None

    def put(self, job: SimJob, result: SimulationResult) -> None:
        """Store a result; an unwritable cache degrades to a no-op.

        The entry is sealed (payload sha256, written last) and written
        via atomic temp-file rename, so a process killed mid-``put``
        leaves either the previous entry or no entry — never a torn
        one.
        """
        try:
            path = self.path_for(job)
            record = {
                "job": job.canonical(), "result": result_to_dict(result)
            }
            atomic_write_json(
                path, record, sealed=True,
                fault_site="cache.entry.write", fault_key=job.job_hash(),
            )
        except OSError:
            pass

    def verify(self, job: SimJob) -> str:
        """Integrity state of one job's entry: the JSON is parsed and its
        seal checked, but no :class:`SimulationResult` is built.

        Returns ``"ok"``, ``"missing"``, or ``"corrupt"`` (the corrupt
        file is quarantined as a side effect, same as :meth:`get`).
        Used by ``repro campaign verify`` and the campaign audit.
        """
        try:
            record = self._read_entry(self._entry_path(job))
        except FileNotFoundError:
            return "missing"
        if record is None or "result" not in record:
            return "corrupt"
        return "ok"

    def quarantine_records(self, version: Optional[str] = None) -> list:
        """Quarantine-log records of one generation (default live)."""
        return quarantine_log(self.version_dir(version))

    def entry_count(self, version: Optional[str] = None) -> int:
        """Number of cached results for one generation (default live)."""
        return count_entries(self.version_dir(version))

    def versions(self) -> Dict[str, int]:
        """Entry counts per code-version generation present on disk.

        Every source change mints a new generation
        (:func:`code_version`), so long-lived cache directories
        accumulate dead generations; this is the inventory behind
        ``repro cache --gc``.
        """
        if not self.directory.is_dir():
            return {}
        return {
            child.name: count_entries(child)
            for child in sorted(self.directory.iterdir())
            if child.is_dir()
        }

    # -- stats, query, garbage collection -----------------------------

    def stats(self) -> Dict[str, GenerationStats]:
        """Per-generation entry count / bytes / oldest & newest mtime,
        from a ``stat`` scan of each generation's entry files."""
        if not self.directory.is_dir():
            return {}
        return {
            child.name: generation_stats(child)
            for child in sorted(self.directory.iterdir())
            if child.is_dir()
        }

    def query(
        self,
        version: Optional[str] = None,
        scheme: Optional[str] = None,
        workload: Optional[str] = None,
        flip_th: Optional[int] = None,
        hashes: Optional[Iterable[str]] = None,
    ) -> List[Dict[str, Any]]:
        """Entry records (:func:`~repro.engine.store.record_for_entry`)
        of one generation (default live) matching every given
        criterion; ``hashes`` keeps only those job hashes."""
        wanted = {"scheme": scheme, "workload": workload, "flip_th": flip_th}
        keep = None if hashes is None else set(hashes)
        return [
            record for record in entry_records(self.version_dir(version))
            if (keep is None or record["hash"] in keep)
            and all(value is None or record[key] == value
                    for key, value in wanted.items())
        ]

    def gc(self, version: str) -> int:
        """Delete one dead generation's entries; returns the count.

        ``version`` must be a generation directory name from
        :meth:`versions` — the current :func:`code_version` is refused
        (it is live, not dead; use :meth:`clear` to drop everything).
        """
        if version == code_version():
            raise ValueError(
                f"refusing to gc the live generation {version}; "
                "use clear() to drop the whole cache"
            )
        version_dir = self.directory / version
        # Containment must hold on the *resolved* path: "..", "a/b" or
        # absolute names would otherwise escape the cache directory.
        try:
            resolved = version_dir.resolve()
            contained = resolved.parent == self.directory.resolve()
        except OSError:
            return 0
        if not contained or resolved.name != version:
            return 0
        return self._remove_generation(version_dir)

    def gc_stale(self) -> int:
        """Delete every generation except the live one."""
        live = code_version()
        return sum(
            self.gc(version) for version in self.versions()
            if version != live
        )

    def clear(self) -> int:
        """Delete every entry (all code versions); returns the count."""
        if not self.directory.is_dir():
            return 0
        return sum(
            self._remove_generation(child)
            for child in sorted(self.directory.iterdir())
            if child.is_dir()
        )

    def _remove_generation(self, version_dir: Path) -> int:
        """Delete one generation directory with everything in it
        (entries, quarantine, files of older store layouts); returns
        the number of entries removed (quarantined files are not
        entries)."""
        removed = count_entries(version_dir)
        shutil.rmtree(version_dir, ignore_errors=True)
        return removed
