"""Scheme-internals probe layer: per-epoch time-series, exact across backends.

Opt-in via ``REPRO_PROBES=<dir>`` (or the CLI ``--probes`` flags): each
simulation run appends deterministic newline-JSON records to its own
``probes-<pid>-<n>.jsonl`` under that directory, sampling the
mitigation scheme's internal state every ``REPRO_PROBE_INTERVAL``
cycles (default 20000):

* per-bank ACT / refresh- / ARR- / RFM-stall counters from the sim core;
* RFM issuance cadence and the RAA counter trajectory;
* Mithril / Graphene CbS occupancy, min/max counters, cumulative
  Space-Saving spillover (:attr:`CounterSummary.evictions`);
* BlockHammer blacklist occupancy, throttle-latency histogram
  (power-of-two buckets), and dual-CBF saturation;
* estimated-vs-true hot-row error: the probe layer keeps exact per-bank
  ACT counts and compares the tracker's estimate for the hottest row.

Exactness contract: the python event loop samples at one logical point
— after every event of cycles ``< c`` has been applied and before any
event of the triggering cycle ``c`` — and a probed system always takes
that loop (the native kernel runs only probe-free systems), so with
probes enabled both backends emit byte-identical record streams (gated
by tests/integration/test_probe_parity.py).  Records therefore contain
no wall-clock times, pids, or backend identifiers; the canonical
encoding is ``json.dumps(record, sort_keys=True, separators=(",", ":"))``.

Zero-cost-off: with ``REPRO_PROBES`` unset the python loop runs its
original tight loop unchanged, and the native kernel is not touched.

Each stream ends with a seal record carrying the record count and the
sha256 over all preceding lines; :func:`read_probe_stream` verifies it,
so a crashed run is detectable (unsealed) without corrupting readers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.mithril import MithrilScheme
from repro.mitigations.blockhammer import BlockHammerScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.sim.metrics import POW2_BUCKETS, pow2_bucket

PROBES_ENV = "REPRO_PROBES"
INTERVAL_ENV = "REPRO_PROBE_INTERVAL"
DEFAULT_INTERVAL = 20_000
SCHEMA_VERSION = 1
PROBE_GLOB = "probes-*.jsonl"

#: per-process stream counter: one simulation run = one stream file.
_FILE_SEQ = itertools.count()


def probes_dir() -> Optional[Path]:
    """The configured probe directory, or None when probing is off."""
    value = os.environ.get(PROBES_ENV, "").strip()
    return Path(value) if value else None


def enabled() -> bool:
    return probes_dir() is not None


def probe_interval() -> int:
    """Sampling interval in cycles (``REPRO_PROBE_INTERVAL`` override)."""
    raw = os.environ.get(INTERVAL_ENV, "").strip()
    if not raw:
        return DEFAULT_INTERVAL
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_INTERVAL


def attach(system) -> Optional["ProbeRun"]:
    """Create a probe stream for ``system``; None when probing is off.

    Called once from ``SimulatedSystem.__init__``.  I/O failures
    degrade to probing disabled rather than perturbing the simulation.
    """
    directory = probes_dir()
    if directory is None:
        return None
    interval = probe_interval()
    if interval <= 0:
        return None
    try:
        return ProbeRun(system, directory, interval)
    except OSError:
        return None


class ProbeRun:
    """One simulation run's sealed probe stream."""

    def __init__(self, system, directory: Path, interval: int):
        directory.mkdir(parents=True, exist_ok=True)
        self.path = (
            directory
            / f"probes-{os.getpid()}-{next(_FILE_SEQ):06d}.jsonl"
        )
        self.interval = interval
        #: first cycle at (or past) which the next sample fires.
        self.next_cycle = interval
        self.samples = 0
        self._records = 0
        self._sha = hashlib.sha256()
        self._finalized = False
        banks = system.banks
        #: exact per-bank row -> ACT count, fed by the serve-path wraps.
        self.act_counts: List[Dict[int, int]] = [{} for _ in banks]
        self._fh = self.path.open("w")
        for flat, controller in enumerate(banks):
            _wrap_act_counter(controller, self.act_counts[flat])
        scheme = banks[0].scheme if banks else None
        try:
            table_entries = int(scheme.table_entries()) if scheme else 0
        except Exception:
            table_entries = 0
        self._write({
            "k": "header",
            "schema": SCHEMA_VERSION,
            "interval": interval,
            "banks": len(banks),
            "cores": len(system.cores),
            "scheme": scheme.name if scheme is not None else "?",
            "table_entries": table_entries,
        })

    # ------------------------------------------------------------------
    # record plumbing
    # ------------------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
        except OSError:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
            return
        self._sha.update((line + "\n").encode("utf-8"))
        self._records += 1

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample(self, system, cycle: int) -> None:
        """Record one per-epoch snapshot and advance the schedule.

        Both backends call this at the same logical point: all events
        of cycles ``< cycle`` applied, none of ``cycle`` itself.
        """
        self._write(self._sample_record(system, cycle))
        self.samples += 1
        next_cycle = self.next_cycle
        interval = self.interval
        while next_cycle <= cycle:
            next_cycle += interval
        self.next_cycle = next_cycle

    def _sample_record(self, system, cycle: int) -> Dict[str, Any]:
        banks = system.banks
        record: Dict[str, Any] = {
            "k": "sample",
            "i": self.samples,
            "cycle": cycle,
            "acts": [c.bank.act_count for c in banks],
            "refresh_stall": [c.refresh_stall_cycles for c in banks],
            "arr_stall": [c.arr_stall_cycles for c in banks],
            "rfm_stall": [c.rfm_stall_cycles for c in banks],
        }
        if banks and banks[0].rfm_logic is not None:
            record.update(_rfm_block(banks))
        scheme = banks[0].scheme if banks else None
        if isinstance(scheme, MithrilScheme):
            record["mithril"] = _mithril_block(banks)
        elif isinstance(scheme, GrapheneScheme):
            record["graphene"] = _graphene_block(banks)
        elif isinstance(scheme, BlockHammerScheme):
            record["blockhammer"] = _blockhammer_block(banks, cycle)
        record["top"] = _truth_block(banks, self.act_counts)
        return record

    # ------------------------------------------------------------------
    # finalize + seal
    # ------------------------------------------------------------------

    def finalize(self, system, result) -> None:
        """Write the final-state record and the stream seal, then close."""
        if self._finalized:
            return
        self._finalized = True
        self._write({
            "k": "final",
            "cycle": result.total_cycles,
            "samples": self.samples,
            "acts": result.acts,
            "rfm_commands": result.rfm_commands,
            "rfm_elided": result.rfm_elided,
            "rfms_skipped": result.rfms_skipped,
            "arr_requests": result.arr_requests,
            "preventive_refresh_rows": result.preventive_refresh_rows,
            "throttle_events": result.throttle_events,
            "flips": result.flips,
        })
        if self._fh is None:
            return
        seal = {
            "k": "seal",
            "records": self._records,
            "sha256": self._sha.hexdigest(),
        }
        try:
            self._fh.write(
                json.dumps(seal, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            self._fh.close()
        except OSError:
            pass
        self._fh = None
        try:  # lazy import: telemetry is optional and independent
            from repro import telemetry

            sink = telemetry.get()
            if sink is not None:
                sink.event(
                    "probes.sealed",
                    path=self.path.name,
                    records=self._records,
                    samples=self.samples,
                )
        except Exception:
            pass


# ----------------------------------------------------------------------
# per-scheme state readers
# ----------------------------------------------------------------------


def _rfm_block(banks) -> Dict[str, List[int]]:
    raa: List[int] = []
    issued: List[int] = []
    elided: List[int] = []
    mrr: List[int] = []
    for controller in banks:
        logic = controller.rfm_logic
        if logic is None:
            raa.append(0)
            issued.append(0)
            elided.append(0)
            mrr.append(0)
            continue
        raa.append(logic.raa.value)
        issued.append(logic.rfm_issued)
        elided.append(logic.rfm_elided)
        mrr.append(logic.mrr_reads)
    return {
        "raa": raa,
        "rfm_issued": issued,
        "rfm_elided": elided,
        "mrr_reads": mrr,
    }


def _mithril_block(banks) -> Dict[str, List[int]]:
    entries: List[int] = []
    mins: List[int] = []
    maxs: List[int] = []
    spread_seen: List[int] = []
    observed: List[int] = []
    evictions: List[int] = []
    for controller in banks:
        scheme = controller.scheme
        if not isinstance(scheme, MithrilScheme):
            for out in (entries, mins, maxs, spread_seen, observed,
                        evictions):
                out.append(0)
            continue
        table = scheme.table
        summary = table._summary
        entries.append(len(summary))
        mins.append(table.min_count())
        maxs.append(table.max_count())
        spread_seen.append(table.max_spread_seen)
        observed.append(summary.total_observed)
        evictions.append(summary.evictions)
    return {
        "entries": entries,
        "min": mins,
        "max": maxs,
        "spread_seen": spread_seen,
        "observed": observed,
        "evictions": evictions,
    }


def _graphene_block(banks) -> Dict[str, List[int]]:
    entries: List[int] = []
    mins: List[int] = []
    maxs: List[int] = []
    resets: List[int] = []
    observed: List[int] = []
    evictions: List[int] = []
    for controller in banks:
        scheme = controller.scheme
        if not isinstance(scheme, GrapheneScheme):
            for out in (entries, mins, maxs, resets, observed, evictions):
                out.append(0)
            continue
        table = scheme.table
        entries.append(len(table))
        mins.append(table.min_count)
        top = table.max_entry()
        maxs.append(0 if top is None else top[1])
        resets.append(scheme.resets)
        observed.append(table.total_observed)
        evictions.append(table.evictions)
    return {
        "entries": entries,
        "min": mins,
        "max": maxs,
        "resets": resets,
        "observed": observed,
        "evictions": evictions,
    }


def _blockhammer_block(banks, cycle: int) -> Dict[str, Any]:
    pending: List[int] = []
    backlog: List[int] = []
    throttles: List[int] = []
    blacklisted: List[int] = []
    totals: List[List[int]] = []
    active: List[int] = []
    since: List[int] = []
    nonzero: List[List[int]] = []
    lat_hist = [0] * POW2_BUCKETS
    for controller in banks:
        scheme = controller.scheme
        if not isinstance(scheme, BlockHammerScheme):
            pending.append(0)
            backlog.append(0)
            throttles.append(0)
            blacklisted.append(0)
            totals.append([0, 0])
            active.append(0)
            since.append(0)
            nonzero.append([0, 0])
            continue
        release = scheme._release
        pending.append(len(release))
        waiting = 0
        for value in release.values():
            latency = value - cycle
            if latency > 0:
                waiting += 1
                lat_hist[pow2_bucket(latency)] += 1
        backlog.append(waiting)
        throttles.append(scheme.stats.throttle_events)
        blacklisted.append(scheme.blacklisted_rows_seen)
        cbf = scheme.cbf
        totals.append([f.total_observed for f in cbf._filters])
        active.append(cbf._active)
        since.append(cbf._since_swap)
        nonzero.append(cbf.nonzero_counters())
    return {
        "pending": pending,
        "backlog": backlog,
        "lat_hist": lat_hist,
        "throttle_events": throttles,
        "blacklisted_seen": blacklisted,
        "cbf_total": totals,
        "cbf_active": active,
        "cbf_since_swap": since,
        "cbf_nonzero": nonzero,
    }


def _truth_block(banks, act_counts) -> Dict[str, List[int]]:
    """Hottest true row per bank vs the tracker's estimate for it."""
    rows: List[int] = []
    trues: List[int] = []
    ests: List[int] = []
    for flat, controller in enumerate(banks):
        counts = act_counts[flat]
        if not counts:
            rows.append(-1)
            trues.append(0)
            ests.append(0)
            continue
        row = max(counts, key=lambda r: (counts[r], -r))
        rows.append(row)
        trues.append(counts[row])
        scheme = controller.scheme
        if isinstance(scheme, (MithrilScheme, GrapheneScheme)):
            ests.append(int(scheme.table.estimate(row)))
        elif isinstance(scheme, BlockHammerScheme):
            ests.append(int(scheme.cbf.estimate(row)))
        else:
            ests.append(0)
    return {"row": rows, "true": trues, "est": ests}


def _wrap_act_counter(controller, counts: Dict[int, int]) -> None:
    """Count every served ACT through the controller's serve path.

    Installed as an instance attribute (the :mod:`repro.sim.tracing`
    pattern), which on its own keeps the run in the python loop.
    """
    inner = controller._on_activated

    def _counted(row, result, _inner=inner, _counts=counts):
        _counts[row] = _counts.get(row, 0) + 1
        _inner(row, result)

    controller._on_activated = _counted


# ----------------------------------------------------------------------
# stream reading (report + parity-gate side)
# ----------------------------------------------------------------------


def probe_files(directory) -> List[Path]:
    """The probe stream files under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob(PROBE_GLOB))


def read_probe_stream(path) -> Tuple[List[Dict[str, Any]], bool]:
    """All records of one stream plus whether its seal verified.

    A torn trailing line (crash mid-append) is dropped; a missing or
    mismatching seal returns ``sealed=False`` with the records intact.
    """
    records: List[Dict[str, Any]] = []
    sealed = False
    sha = hashlib.sha256()
    try:
        text = Path(path).read_text()
    except OSError:
        return records, sealed
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            break
        if not isinstance(record, dict):
            break
        if record.get("k") == "seal":
            sealed = (
                record.get("records") == len(records)
                and record.get("sha256") == sha.hexdigest()
            )
            break
        sha.update((line + "\n").encode("utf-8"))
        records.append(record)
    return records, sealed
