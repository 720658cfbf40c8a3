"""The sharded, indexed side of the on-disk result store.

The result cache (:mod:`repro.engine.cache`) stores one JSON file per
completed simulation point.  A paper-scale campaign produces 10^4-10^5
points per code-version generation, which breaks the original flat
layout twice over: directory listings stop scaling, and answering
"how many mithril points do we have?" means opening every file.  This
module supplies the two missing structures:

* **sharding** — entries live under a two-level fan-out,
  ``<version>/<hh>/<hash>.json`` with ``hh`` the first
  :data:`SHARD_WIDTH` hex characters of the job hash, so no directory
  ever holds more than ~1/256th of a generation;
* **a per-generation index** — ``<version>/index.jsonl`` holds one
  JSON record per entry (job hash, scheme, workload kind, FlipTH,
  scale, size, mtime, plus optional campaign-experiment annotations),
  appended on every cache write and rebuilt from the entry files
  whenever it disagrees with the directory contents.  Count, size and
  query-by-scheme/workload/experiment are index reads, never file
  scans.

The sharded path is the only place live code reads an entry from.
:func:`iter_entry_paths` still yields a generation's top-level
``*.json`` files: dead generations written before sharding can sit on
disk, and ``repro cache`` must still count and garbage-collect them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.engine.durable import read_jsonl

#: Hex characters of the job hash used as the shard directory name.
SHARD_WIDTH = 2

#: Index file name inside a generation directory (``.jsonl``, so the
#: ``*.json`` entry globs never mistake it for a result).
INDEX_NAME = "index.jsonl"

_HEX = set("0123456789abcdef")


def shard_name(job_hash: str) -> str:
    """The shard directory name for a job hash."""
    return job_hash[:SHARD_WIDTH]


def is_shard_dir(path: Path) -> bool:
    name = path.name
    return (
        path.is_dir()
        and len(name) == SHARD_WIDTH
        and set(name) <= _HEX
    )


def iter_entry_paths(version_dir: Path) -> Iterator[Path]:
    """Every entry file of one generation: sharded entries, plus the
    top-level ones of dead pre-sharding generations."""
    if not version_dir.is_dir():
        return
    for child in sorted(version_dir.iterdir()):
        if child.is_file() and child.suffix == ".json":
            yield child
        elif is_shard_dir(child):
            yield from sorted(child.glob("*.json"))


def count_entries(version_dir: Path) -> int:
    return sum(1 for _ in iter_entry_paths(version_dir))


@dataclass
class GenerationStats:
    """Aggregate statistics of one cache generation."""

    entries: int = 0
    total_bytes: int = 0
    oldest_mtime: Optional[float] = None
    newest_mtime: Optional[float] = None

    def add(self, size: int, mtime: Optional[float]) -> None:
        self.entries += 1
        self.total_bytes += size
        if mtime is not None:
            if self.oldest_mtime is None or mtime < self.oldest_mtime:
                self.oldest_mtime = mtime
            if self.newest_mtime is None or mtime > self.newest_mtime:
                self.newest_mtime = mtime

    def as_dict(self) -> Dict[str, Any]:
        return {
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "oldest_mtime": self.oldest_mtime,
            "newest_mtime": self.newest_mtime,
        }


def record_for_entry(path: Path) -> Dict[str, Any]:
    """Index record for one entry file (tolerates foreign content).

    Unreadable or non-engine JSON (hand-made files, partial writes)
    still yields a countable record — the hash and file stats are
    always known from the path — with null job fields.
    """
    record: Dict[str, Any] = {"hash": path.stem}
    try:
        stat = path.stat()
        record["bytes"] = stat.st_size
        record["mtime"] = stat.st_mtime
    except OSError:
        record["bytes"] = 0
        record["mtime"] = None
    try:
        with path.open() as handle:
            job = json.load(handle).get("job") or {}
    except (OSError, ValueError, AttributeError):
        job = {}
    workload = job.get("workload") or {}
    record["scheme"] = job.get("scheme")
    record["workload"] = (
        workload.get("kind") if isinstance(workload, dict) else None
    )
    record["flip_th"] = job.get("flip_th")
    record["scale"] = job.get("scale")
    return record


def record_for_put(job, path: Path) -> Dict[str, Any]:
    """Index record for a just-written entry, straight from the job."""
    try:
        stat = path.stat()
        size, mtime = stat.st_size, stat.st_mtime
    except OSError:
        size, mtime = 0, None
    return {
        "hash": job.job_hash(),
        "scheme": job.scheme,
        "workload": job.workload.kind,
        "flip_th": job.flip_th,
        "scale": job.scale,
        "bytes": size,
        "mtime": mtime,
    }


class CacheIndex:
    """The append-only jsonl index of one cache generation.

    Records merge by job hash, last write wins field-by-field —
    ``experiments`` annotations union instead, so a point evaluated by
    several campaign experiments keeps every attribution.  The index is
    advisory: :meth:`is_fresh` compares its record count against the
    actual entry files and :meth:`rebuild` regenerates it from scratch,
    so a lost or stale index costs one directory scan, never a wrong
    answer.
    """

    def __init__(self, version_dir: Path):
        self.version_dir = Path(version_dir)
        self.path = self.version_dir / INDEX_NAME
        # Parsed-records memo: a freshness check followed by a
        # stats()/query() call must not parse the index twice.
        # Invalidated by append/rebuild on this instance; instances
        # are short-lived (one per ResultCache.index() call), so
        # cross-process staleness is bounded by instance lifetime.
        self._merged: Optional[Dict[str, Dict[str, Any]]] = None

    # -- writing -------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        self.append_many([record])

    def append_many(self, records: Iterable[Dict[str, Any]]) -> None:
        """Append records; an unwritable index degrades to a no-op.

        Appends are the one non-atomic write in the store — a torn
        append (partial last line, injectable via the ``index.append``
        fault site) is tolerated by design: :meth:`load` skips the
        broken line and :meth:`is_fresh` then disagrees with the entry
        count, triggering a rebuild.
        """
        from repro.faults import maybe_fail

        lines = [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in records
        ]
        if not lines:
            return
        self._merged = None
        blob = "\n".join(lines) + "\n"
        rule = maybe_fail("index.append", self.version_dir.name)
        if rule is not None and rule.kind in ("torn", "corrupt"):
            blob = blob[: max(1, len(blob) // 2)]
        try:
            self.version_dir.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as handle:
                handle.write(blob)
        except OSError:
            pass

    def rebuild(self) -> int:
        """Regenerate the index from the entry files; returns the count.

        The scan is the slow path (it opens every entry); queries and
        stats afterwards are index reads.  The write is atomic, so a
        crashed rebuild leaves the previous index intact.
        """
        records = [
            record_for_entry(path)
            for path in iter_entry_paths(self.version_dir)
        ]
        self._merged = {
            record["hash"]: record for record in records
        }
        try:
            self.version_dir.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
            with tmp.open("w") as handle:
                for record in records:
                    handle.write(
                        json.dumps(record, sort_keys=True,
                                   separators=(",", ":")) + "\n"
                    )
            os.replace(tmp, self.path)
        except OSError:
            pass
        return len(records)

    # -- reading -------------------------------------------------------

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Merged records by job hash (annotations unioned).

        Memoized per instance — treat the returned records as
        read-only.
        """
        if self._merged is not None:
            return self._merged
        merged: Dict[str, Dict[str, Any]] = {}
        for record in read_jsonl(self.path):
            job_hash = record.get("hash")
            if not job_hash:
                continue
            known = merged.setdefault(job_hash, {})
            experiments = set(known.get("experiments") or [])
            experiments.update(record.pop("experiments", []) or [])
            known.update(record)
            if experiments:
                known["experiments"] = sorted(experiments)
        self._merged = merged
        return merged

    def records(self) -> List[Dict[str, Any]]:
        return list(self.load().values())

    def is_fresh(self, entry_count: Optional[int] = None) -> bool:
        """Does the index agree with the directory's entry count?"""
        if entry_count is None:
            entry_count = count_entries(self.version_dir)
        if not self.path.exists():
            return entry_count == 0
        return len(self.load()) == entry_count

    def query(
        self,
        scheme: Optional[str] = None,
        workload: Optional[str] = None,
        experiment: Optional[str] = None,
        flip_th: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Records matching every given criterion (AND semantics)."""
        matches = []
        for record in self.records():
            if scheme is not None and record.get("scheme") != scheme:
                continue
            if workload is not None and record.get("workload") != workload:
                continue
            if flip_th is not None and record.get("flip_th") != flip_th:
                continue
            if experiment is not None and experiment not in (
                record.get("experiments") or []
            ):
                continue
            matches.append(record)
        return matches

    def stats(self) -> GenerationStats:
        stats = GenerationStats()
        for record in self.records():
            stats.add(int(record.get("bytes") or 0), record.get("mtime"))
        return stats
