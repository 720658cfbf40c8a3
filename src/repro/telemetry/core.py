"""The instrumentation core: spans, metrics, bounded ring buffers.

Telemetry is **off by default** and zero-cost when off: every
instrumented seam asks :func:`get` for the active sink exactly once
per coarse operation (a ``run_jobs`` call, a simulation run, a chunk
fetch — never per event-loop iteration) and pays a single ``is None``
branch when ``REPRO_TELEMETRY`` is unset.  Setting
``REPRO_TELEMETRY=<dir>`` turns the same calls into:

* **spans** — ``with tel.span("sim.drain", path="kernel"):``
  records a monotonic duration, accumulates it into the per-name
  timer registry, keeps the record in a bounded in-memory ring, and
  appends one newline-JSON event to this process's
  ``events-<pid>.jsonl`` under the telemetry directory;
* **counters / gauges** — a process-local metrics registry
  (:class:`MetricsRegistry`) with cheap integer/float cells;
* **events** — arbitrary structured moments (a worker spawn, a lease,
  a retry backoff) appended to the same per-process stream.

Every line in an event stream is written with a single ``write()``
call and flushed, so a crashed process can tear at most the trailing
line — the merger (:mod:`repro.telemetry.events`) skips it, the same
append discipline the durable store relies on.  Event timestamps are
wall-clock (``time.time()``), tagged with ``pid`` and a per-process
``seq`` so the merged run timeline has a deterministic total order
even under equal timestamps.

Telemetry never perturbs results: nothing here feeds a job hash, and
the golden-equivalence suite runs with telemetry enabled in CI.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, Optional

#: Environment variable enabling telemetry: the directory that
#: receives per-process ``events-<pid>.jsonl`` streams.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Bound of the in-memory span/event ring (per process).
RING_CAPACITY = 4096

#: Event-stream filename pattern (one file per writing process).
EVENTS_GLOB = "events-*.jsonl"


class MetricsRegistry:
    """Process-local counters, gauges, and span-duration timers."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: accumulated span seconds by span name.
        self.timers: Dict[str, float] = {}

    def counter(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {k: round(v, 6) for k, v in self.timers.items()},
        }


class _Span:
    """One timed region; records on exit (even when the body raises)."""

    __slots__ = ("_tel", "name", "attrs", "_start", "_wall")

    def __init__(self, tel: "Telemetry", name: str, attrs: Dict[str, Any]):
        self._tel = tel
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        duration = time.perf_counter() - self._start
        self._tel._record_span(self.name, self._wall, duration, self.attrs)


class _NoopSpan:
    """The disabled-path span: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Telemetry:
    """One process's telemetry sink (registry + ring + event stream).

    Construct through :func:`get`, never directly: the accessor ties
    the instance to the current ``REPRO_TELEMETRY`` value *and* the
    current pid, so a forked worker transparently gets its own
    ``events-<pid>.jsonl`` instead of interleaving with its parent.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.pid = os.getpid()
        self.registry = MetricsRegistry()
        self.ring: deque = deque(maxlen=RING_CAPACITY)
        self.role: Optional[str] = None
        self._seq = 0
        self._lock = threading.Lock()
        self._fh = None
        self._fh_failed = False

    # -- event stream --------------------------------------------------

    @property
    def events_path(self) -> Path:
        return self.directory / f"events-{self.pid}.jsonl"

    def _handle(self):
        if self._fh is None and not self._fh_failed:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._fh = self.events_path.open("a")
            except OSError:
                # An unwritable telemetry dir degrades to in-memory
                # only — observability must never take the run down.
                self._fh_failed = True
        return self._fh

    def event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one structured event to this process's stream.

        The record is also kept in the in-memory ring.  Each line is
        one ``write()`` + flush, so concurrent writers (threads) and
        crashes can tear at most the final line of the file.
        """
        with self._lock:
            self._seq += 1
            record = {
                "ts": time.time(),
                "pid": self.pid,
                "seq": self._seq,
                "kind": kind,
            }
            record.update(fields)
            self.ring.append(record)
            handle = self._handle()
            if handle is not None:
                try:
                    handle.write(
                        json.dumps(record, sort_keys=True,
                                   separators=(",", ":")) + "\n"
                    )
                    handle.flush()
                except (OSError, TypeError, ValueError):
                    pass
        return record

    def set_role(self, role: str) -> None:
        """Name this process's track (``supervisor`` / ``worker`` /
        ``campaign``); stamped once into the stream for the export."""
        if self.role == role:
            return
        self.role = role
        self.event("process.start", role=role)

    # -- spans ---------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, name, attrs)

    def _record_span(
        self, name: str, wall: float, duration: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.registry.add_time(name, duration)
        fields: Dict[str, Any] = {
            "name": name, "dur": round(duration, 6), "start": wall,
        }
        if attrs:
            fields["attrs"] = attrs
        self.event("span", **fields)

    def synthetic_span(
        self, name: str, start: float, duration: float, **attrs: Any
    ) -> None:
        """Record a span whose bounds are known rather than measured
        (e.g. a retry-backoff window, a lease reconstructed by the
        supervisor after the worker died).  A ``tid`` attribute is
        hoisted to the record's top level so the Perfetto export can
        route the span onto another process's track."""
        self.registry.add_time(name, duration)
        fields: Dict[str, Any] = {
            "name": name, "dur": round(duration, 6), "start": start,
        }
        tid = attrs.pop("tid", None)
        if tid is not None:
            fields["tid"] = tid
        if attrs:
            fields["attrs"] = attrs
        self.event("span", **fields)

    # -- metrics -------------------------------------------------------

    def counter(self, name: str, n: int = 1) -> None:
        self.registry.counter(name, n)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name, value)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None


_active: Optional[Telemetry] = None


def get() -> Optional[Telemetry]:
    """The active sink, or None when telemetry is off.

    This is the single gate every instrumented seam goes through: the
    disabled path is one environment read and one ``is None`` branch.
    The instance is rebuilt whenever ``REPRO_TELEMETRY`` changes or
    the pid does (forked workers write their own stream).
    """
    global _active
    raw = os.environ.get(TELEMETRY_ENV)
    if not raw:
        if _active is not None:
            _active.close()
            _active = None
        return None
    directory = Path(raw)
    if (
        _active is None
        or _active.directory != directory
        or _active.pid != os.getpid()
    ):
        if _active is not None and _active.pid == os.getpid():
            _active.close()
        _active = Telemetry(directory)
    return _active


def reset() -> None:
    """Drop the active sink (tests; the next :func:`get` rebuilds)."""
    global _active
    if _active is not None:
        _active.close()
    _active = None


def enabled() -> bool:
    return bool(os.environ.get(TELEMETRY_ENV))


def span(name: str, **attrs: Any):
    """Module-level convenience: a real span when on, no-op when off."""
    tel = get()
    return NOOP_SPAN if tel is None else tel.span(name, **attrs)


def counter(name: str, n: int = 1) -> None:
    tel = get()
    if tel is not None:
        tel.counter(name, n)


def event(kind: str, **fields: Any) -> None:
    tel = get()
    if tel is not None:
        tel.event(kind, **fields)
