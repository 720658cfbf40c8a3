"""The sharded layout of the on-disk result store.

The result cache (:mod:`repro.engine.cache`) stores one JSON file per
completed simulation point.  Entries live under a two-level fan-out,
``<version>/<hh>/<hash>.json`` with ``hh`` the first
:data:`SHARD_WIDTH` hex characters of the job hash, so no directory
ever holds more than ~1/256th of a generation.

The entry files are the store's only record.  Per-generation stats
(count, bytes, oldest/newest mtime) are a ``stat`` scan
(:func:`generation_stats`), and a query by scheme, workload or FlipTH
parses every entry (:func:`entry_records`).  The largest built-in
sweep, ``paper-scale``, is 810 points per code-version generation.
On a 2-core Xeon host, parsing 810 real-sized entries takes ~40 ms and
the ``stat`` scan ~20 ms; at 10^4 entries they take ~0.6 s and ~0.15 s.

The sharded path is the only place live code reads an entry from.
:func:`iter_entry_paths` still yields a generation's top-level
``*.json`` files: dead generations written before sharding can sit on
disk, and ``repro cache`` must still count and garbage-collect them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

#: Hex characters of the job hash used as the shard directory name.
SHARD_WIDTH = 2

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
    """Query record for one entry file (tolerates foreign content).

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


def entry_records(version_dir: Path) -> List[Dict[str, Any]]:
    """One :func:`record_for_entry` per entry file of a generation."""
    return [record_for_entry(path) for path in iter_entry_paths(version_dir)]


def generation_stats(version_dir: Path) -> GenerationStats:
    """Count, bytes and mtime range of one generation, from ``stat``
    alone (an entry that vanishes mid-scan still counts, as 0 bytes)."""
    stats = GenerationStats()
    for path in iter_entry_paths(version_dir):
        try:
            stat = path.stat()
        except OSError:
            stats.add(0, None)
        else:
            stats.add(stat.st_size, stat.st_mtime)
    return stats
