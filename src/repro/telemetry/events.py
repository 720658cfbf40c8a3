"""Merging per-process event streams into one run timeline.

Each process that had telemetry enabled appended newline-JSON records
to its own ``events-<pid>.jsonl`` under the telemetry directory.  The
merger reads every stream, drops lines that do not parse (a process
that died mid-``write()`` can tear at most the trailing line of its
file — same failure model the store's quarantine log tolerates),
and orders the survivors by ``(ts, host, pid, seq)``.  ``pid`` and
``seq`` break wall-clock ties deterministically, so two
merges of the same directory always agree line for line.

Distributed campaigns add one level of nesting: each host agent
redirects its telemetry into ``<dir>/<host>/`` (see
:func:`repro.cluster.agent.agent_main`), so streams from different
hosts can carry *colliding pids*.  The merger folds the subdirectory
name into every nested record as its ``host`` field — part of the
merge key and of Perfetto track routing — which keeps two pid-4711
streams from two hosts distinct end to end.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .core import EVENTS_GLOB


def event_files(directory: Path) -> List[Path]:
    """The stream files under ``directory``, including per-host
    subdirectories, sorted (top-level streams first)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    nested = [
        path
        for sub in sorted(p for p in directory.iterdir() if p.is_dir())
        for path in sorted(sub.glob(EVENTS_GLOB))
    ]
    return sorted(directory.glob(EVENTS_GLOB)) + nested


def read_events(
    path: Path, host: Optional[str] = None
) -> Iterator[Dict[str, Any]]:
    """Yield parsable records from one stream, skipping torn lines.

    Any line that fails to parse as a JSON object is dropped rather
    than raised: the only way a well-behaved writer produces one is a
    crash mid-append, and losing that final partial record is exactly
    the torn-write tolerance the format promises.  ``host`` (the
    per-host subdirectory name) is folded into each record that does
    not already carry one.
    """
    from repro.engine.durable import read_jsonl

    for record in read_jsonl(path):
        if host and "host" not in record:
            record["host"] = host
        yield record


def _merge_key(record: Dict[str, Any]) -> Tuple[float, str, int, int]:
    return (
        float(record.get("ts", 0.0)),
        str(record.get("host", "")),
        int(record.get("pid", 0)),
        int(record.get("seq", 0)),
    )


def merge_events(directory: Path) -> List[Dict[str, Any]]:
    """One deterministic run timeline from all streams in ``directory``."""
    directory = Path(directory)
    merged: List[Dict[str, Any]] = []
    for path in event_files(directory):
        host = path.parent.name if path.parent != directory else None
        merged.extend(read_events(path, host=host))
    merged.sort(key=_merge_key)
    return merged


def summarize_events(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a merged timeline: per-kind counts, span totals, pids."""
    kinds: Dict[str, int] = {}
    span_totals: Dict[str, float] = {}
    pids = set()
    hosts = set()
    for record in events:
        kind = str(record.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
        pids.add(record.get("pid"))
        if record.get("host"):
            hosts.add(str(record["host"]))
        if kind == "span":
            name = str(record.get("name", "?"))
            span_totals[name] = (
                span_totals.get(name, 0.0) + float(record.get("dur", 0.0))
            )
    return {
        "total": len(events),
        "kinds": kinds,
        "span_seconds": {k: round(v, 6) for k, v in span_totals.items()},
        "processes": sorted(p for p in pids if p is not None),
        "hosts": sorted(hosts),
    }


def slowest_spans(
    events: List[Dict[str, Any]], limit: int = 10
) -> List[Dict[str, Any]]:
    """The ``limit`` individually slowest span records, longest first.

    Ties break on the merge key so two runs over the same directory
    always list the same spans in the same order.  Each entry carries
    the span's name, duration, start offset from the earliest span
    start, owning pid, and attrs.
    """
    spans = [r for r in events if r.get("kind") == "span"]
    if not spans:
        return []
    base = min(float(r.get("start", r.get("ts", 0.0))) for r in spans)
    spans.sort(key=lambda r: (-float(r.get("dur", 0.0)), _merge_key(r)))
    out = []
    for record in spans[:limit]:
        out.append({
            "name": str(record.get("name", "?")),
            "dur": round(float(record.get("dur", 0.0)), 6),
            "start": round(
                float(record.get("start", record.get("ts", 0.0))) - base, 6
            ),
            "pid": record.get("pid"),
            "attrs": record.get("attrs", {}),
        })
    return out
