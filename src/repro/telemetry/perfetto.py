"""Chrome trace-event export of a merged telemetry timeline.

The output is the JSON object format both ``chrome://tracing`` and
Perfetto's trace viewer load directly: ``{"traceEvents": [...]}`` with

* ``M`` (metadata) events naming each process track from its
  ``process.start`` role stamp (``supervisor``, ``worker``,
  ``campaign``);
* ``X`` (complete) events for spans — microsecond ``ts``/``dur``,
  ``pid`` from the writing process, ``tid`` defaulting to the pid but
  overridable per event (the supervisor writes lease spans with
  ``tid=<worker pid>`` so a worker that crashed before writing
  anything still gets its lease history on its own track);
* ``i`` (instant) events for every non-span moment — worker crashes,
  respawns, quarantines — so the timeline shows *why* a gap exists;
* ``C`` (counter) events when a probe directory is supplied
  (``trace export --probes-dir``): each probe stream becomes its own
  synthetic-pid track whose counters (ACTs, RAA, CbS occupancy,
  blacklist backlog, hot-row estimate error) plot the per-epoch
  time-series recorded by :mod:`repro.sim.probes`.  Probe samples are
  stamped in simulation *cycles*, not wall-clock — one cycle renders
  as one microsecond on its own track.

Timestamps are wall-clock seconds rebased to the earliest event so the
trace starts near zero regardless of when the run happened.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from .events import merge_events

#: Synthetic pid base for probe counter tracks — far above real pids
#: (pid_max), so the tracks never collide with a process track.
_PROBE_PID_BASE = 9_000_000

#: Synthetic pid base for per-host process tracks in distributed
#: runs: two agents on two hosts can reuse the same OS pid, so every
#: (host, pid) pair is remapped to its own synthetic pid below the
#: probe range.
_HOST_PID_BASE = 8_000_000

_US = 1_000_000.0


def _host_pid_map(events: List[Dict[str, Any]]) -> Dict[tuple, int]:
    """Deterministic (host, pid) → synthetic pid routing table.

    Covers tids too (a lease span can reference a worker pid that
    never wrote its own stream); sorted first-by-host so the table —
    and therefore the exported trace — is stable across merges.
    """
    pairs = set()
    for record in events:
        host = record.get("host")
        if not host:
            continue
        pid = int(record.get("pid", 0))
        pairs.add((str(host), pid))
        pairs.add((str(host), int(record.get("tid", pid))))
    return {
        pair: _HOST_PID_BASE + index
        for index, pair in enumerate(sorted(pairs))
    }


def to_trace_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Convert a merged timeline to Chrome trace-event dicts."""
    if not events:
        return []
    host_pids = _host_pid_map(events)
    # Spans carry their wall-clock begin in "start" (the append "ts"
    # is the span *end*), so the rebase origin must consider both or
    # the earliest span would land at negative microseconds.
    base = min(
        float(e.get("start", e.get("ts", 0.0)))
        if e.get("kind") == "span" else float(e.get("ts", 0.0))
        for e in events
    )
    out: List[Dict[str, Any]] = []
    named: set = set()
    for record in events:
        raw_pid = int(record.get("pid", 0))
        host = str(record.get("host") or "")
        pid = host_pids.get((host, raw_pid), raw_pid) if host else raw_pid
        kind = str(record.get("kind", "?"))
        ts = float(record.get("ts", base))
        if kind == "process.start":
            role = str(record.get("role", "process"))
            label = (
                f"{role}@{host}-{raw_pid}" if host else f"{role}-{raw_pid}"
            )
            if pid not in named:
                named.add(pid)
                out.append({
                    "name": "process_name", "ph": "M", "pid": pid,
                    "args": {"name": label},
                })
            continue
        raw_tid = int(record.get("tid", raw_pid))
        tid = host_pids.get((host, raw_tid), raw_tid) if host else raw_tid
        if kind == "span":
            start = float(record.get("start", ts))
            attrs = dict(record.get("attrs") or {})
            attrs["pid"] = raw_pid
            attrs["seq"] = record.get("seq")
            if host:
                attrs["host"] = host
            out.append({
                "name": str(record.get("name", "span")),
                "ph": "X",
                "ts": round((start - base) * _US, 3),
                "dur": round(float(record.get("dur", 0.0)) * _US, 3),
                "pid": pid,
                "tid": tid,
                "cat": "span",
                "args": attrs,
            })
        else:
            args = {
                k: v for k, v in record.items()
                if k not in ("ts", "pid", "seq", "kind", "tid")
            }
            out.append({
                "name": kind,
                "ph": "i",
                "ts": round((ts - base) * _US, 3),
                "pid": pid,
                "tid": tid,
                "s": "t",
                "cat": "event",
                "args": args,
            })
    return out


def _sample_counters(record: Dict[str, Any]) -> Dict[str, int]:
    """The counter values one probe sample contributes to its track."""
    counters = {"acts": sum(record.get("acts") or [])}
    if "raa" in record:
        counters["raa"] = sum(record["raa"])
        counters["rfm_issued"] = sum(record.get("rfm_issued") or [])
    for key in ("mithril", "graphene"):
        block = record.get(key)
        if block:
            counters["cbs_entries"] = sum(block.get("entries") or [])
            maxima = block.get("max") or []
            counters["cbs_max"] = max(maxima) if maxima else 0
    blockhammer = record.get("blockhammer")
    if blockhammer:
        counters["bh_backlog"] = sum(blockhammer.get("backlog") or [])
        counters["bh_release_pending"] = sum(
            blockhammer.get("pending") or []
        )
    top = record.get("top")
    if top:
        errors = [
            est - true for row, true, est in zip(
                top.get("row", []), top.get("true", []),
                top.get("est", []),
            ) if row >= 0
        ]
        counters["top_row_error"] = max(errors) if errors else 0
    return counters


def probe_counter_events(probes_directory) -> List[Dict[str, Any]]:
    """Counter-track events from every probe stream in a directory."""
    from repro.sim.probes import probe_files, read_probe_stream

    out: List[Dict[str, Any]] = []
    for index, path in enumerate(probe_files(probes_directory)):
        records, _sealed = read_probe_stream(path)
        pid = _PROBE_PID_BASE + index
        out.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": f"probes-{path.name}"},
        })
        for record in records:
            if record.get("k") != "sample":
                continue
            ts = float(record.get("cycle", 0))
            for name, value in _sample_counters(record).items():
                out.append({
                    "name": f"probe.{name}",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "args": {"value": value},
                })
    return out


def export_perfetto(
    directory: Path, probes_dir: Optional[Path] = None
) -> Dict[str, Any]:
    """Merge ``directory`` and wrap as a loadable trace document."""
    events = merge_events(directory)
    trace_events = to_trace_events(events)
    if probes_dir is not None:
        trace_events.extend(probe_counter_events(probes_dir))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro-telemetry", "events": len(events)},
    }


def write_perfetto(
    directory: Path, output: Path, probes_dir: Optional[Path] = None
) -> int:
    """Export ``directory`` to ``output``; returns the event count."""
    payload = export_perfetto(directory, probes_dir=probes_dir)
    output = Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return len(payload["traceEvents"])


def validate_perfetto(payload: Dict[str, Any]) -> List[str]:
    """Schema-check a trace document; returns a list of problems.

    This is the check the ``telemetry-smoke`` CI lane runs against the
    exported JSON: structural validity only, no timing semantics.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "B", "E", "C"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        if not isinstance(ev.get("pid"), int):
            problems.append(f"{where}: missing integer pid")
        if ph in ("X", "i"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
            if not isinstance(ev.get("tid"), int):
                problems.append(f"{where}: missing integer tid")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    return problems
