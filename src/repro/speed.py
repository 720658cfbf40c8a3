"""Simulator speed benchmark: the events/sec trajectory of `simulate()`.

Wall-clock per simulated event is the binding constraint on how many
workload x scheme x threshold points the reproduction can sweep, so
this module times representative pairs and records the trajectory in
``BENCH_SIM_SPEED.json``.  Each run appends one labelled entry::

    {
      "label": "optimized",          # e.g. "baseline" / "optimized"
      "preset": "medium",
      "timestamp": "2026-07-27T12:34:56Z",
      "rows": [{"scheme", "workload", "events", "wall_s",
                "events_per_sec"}, ...],
      "total_events": ..., "total_wall_s": ...,
      "aggregate_events_per_sec": ...
    }

Timing covers :func:`repro.sim.system.simulate` only — workload
materialization and scheme-factory construction happen outside the
timed region, mirroring what the engine executor amortizes away.

Two presets:

* ``tiny`` — a seconds-long smoke run for CI (timing non-gating there;
  the determinism of the accompanying results is what CI asserts).
* ``medium`` — the regression yardstick: a sweep large enough that
  events/sec is stable run-to-run on an idle machine.

Entry points: ``python -m repro.cli bench-speed`` and the standalone
``benchmarks/bench_speed.py`` wrapper.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: (workload kind, workload params, scheme) pairs per preset.  The
#: pairs cover the distinct hot paths: the bare event loop ("none"),
#: CbS-tracker ARR (graphene), CbS + RFM (mithril/mithril+), and
#: Bloom-filter throttling (blockhammer), on both multiprogrammed and
#: multithreaded access patterns plus an attack mix.
_PAIRS: Dict[str, List[Tuple[str, Dict[str, object], str]]] = {
    "tiny": [
        ("mix-high", {"seed": 11}, "none"),
        ("mix-high", {"seed": 11}, "mithril"),
        ("fft", {"seed": 21}, "graphene"),
        ("attack", {"pattern": "multi-sided", "seed": 31}, "blockhammer"),
    ],
    "medium": [
        ("mix-high", {"seed": 11}, "none"),
        ("mix-high", {"seed": 11}, "mithril"),
        ("mix-high", {"seed": 11}, "blockhammer"),
        ("mix-blend", {"seed": 12}, "mithril+"),
        ("fft", {"seed": 21}, "none"),
        ("fft", {"seed": 21}, "graphene"),
        ("radix", {"seed": 22}, "mithril"),
        ("pagerank", {"seed": 23}, "blockhammer"),
        ("attack", {"pattern": "multi-sided", "seed": 31}, "mithril"),
        ("attack", {"pattern": "multi-sided", "seed": 31}, "blockhammer"),
    ],
}

#: Trace-length multiplier per preset (catalog ``scale``).
_PRESET_SCALE = {"tiny": 0.25, "medium": 1.0}

#: FlipTH used for every pair (mid-range paper value).
BENCH_FLIP_TH = 6_250

DEFAULT_OUTPUT = "BENCH_SIM_SPEED.json"


def preset_names() -> List[str]:
    return sorted(_PAIRS)


@dataclass
class SpeedRow:
    """One timed workload x scheme pair."""

    scheme: str
    workload: str
    events: int
    wall_s: float

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "workload": self.workload,
            "events": self.events,
            "wall_s": round(self.wall_s, 4),
            "events_per_sec": round(self.events_per_sec, 1),
        }


def _bench_jobs(preset: str):
    from repro.engine.job import SimJob, WorkloadSpec

    scale = _PRESET_SCALE[preset]
    jobs = []
    for kind, params, scheme in _PAIRS[preset]:
        spec = WorkloadSpec.make(kind, scale=scale, **params)
        jobs.append(
            SimJob(workload=spec, scheme=scheme, flip_th=BENCH_FLIP_TH,
                   scale=scale)
        )
    return jobs


def run_preset(preset: str, backend: Optional[str] = None) -> List[SpeedRow]:
    """Time every pair of ``preset``; returns one row per pair.

    ``backend`` selects the simulation backend (scalar / turbo; None
    follows ``REPRO_SIM_BACKEND``).  The timed region is the whole
    ``simulate()`` call — system construction included, so the turbo
    backend's trace decode pays its way inside the measurement.

    The simulation *results* are intentionally discarded here — the
    equivalence suite (tests/integration/test_golden_equivalence.py)
    owns correctness; this harness owns wall-clock.
    """
    if preset not in _PAIRS:
        raise ValueError(
            f"unknown preset {preset!r}; use one of {preset_names()}"
        )
    from repro import telemetry
    from repro.engine.executor import materialize_job
    from repro.sim.system import simulate

    tel = telemetry.get()
    timers_before = (
        dict(tel.registry.timers) if tel is not None else {}
    )
    rows = []
    for job in _bench_jobs(preset):
        traces, factory, config, rfm_th = materialize_job(job)
        events = sum(len(trace) for trace in traces)
        start = time.perf_counter()
        simulate(
            traces,
            scheme_factory=factory,
            config=config,
            rfm_th=rfm_th,
            flip_th=job.flip_th,
            mlp=job.mlp,
            track_hammer=job.track_hammer,
            backend=backend,
        )
        wall = time.perf_counter() - start
        rows.append(
            SpeedRow(
                scheme=job.scheme,
                workload=job.workload.kind,
                events=events,
                wall_s=wall,
            )
        )
    # Per-phase attribution (span-name -> seconds spent during this
    # preset), published like ``run_jobs.last_stats``: empty unless
    # REPRO_TELEMETRY is on, so the disabled bench path is unchanged.
    run_preset.last_timing = {
        name: round(total - timers_before.get(name, 0.0), 6)
        for name, total in (
            tel.registry.timers.items() if tel is not None else ()
        )
        if total - timers_before.get(name, 0.0) > 0.0
    }
    return rows


#: Span-second deltas of the most recent :func:`run_preset` call
#: (empty when telemetry is off).
run_preset.last_timing = {}


def make_entry(
    preset: str,
    label: str,
    rows: List[SpeedRow],
    backend: Optional[str] = None,
) -> Dict:
    total_events = sum(row.events for row in rows)
    total_wall = sum(row.wall_s for row in rows)
    entry = {
        "label": label,
        "preset": preset,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": [row.as_dict() for row in rows],
        "total_events": total_events,
        "total_wall_s": round(total_wall, 4),
        "aggregate_events_per_sec": (
            round(total_events / total_wall, 1) if total_wall > 0 else 0.0
        ),
    }
    if backend is not None:
        entry["backend"] = backend
    # Where the time went (telemetry span totals), so a speedup entry
    # records *which phase* it came from, not just the aggregate wall
    # clock.  getattr: tests monkeypatch run_preset with bare stubs.
    timing = getattr(run_preset, "last_timing", None)
    if timing:
        entry["timing_breakdown"] = dict(timing)
    return entry


class UncontrolledSpeedClaim(ValueError):
    """A ``*-controlled`` entry appended without its back-to-back pair."""


def controlled_pair_violation(record: Dict, entry: Dict) -> Optional[str]:
    """Why ``entry`` would break the ``*-controlled`` hygiene rule.

    The trajectory's honesty convention (docs/ENGINE.md): a label
    ending in ``-controlled`` claims a back-to-back measurement, so a
    non-baseline controlled entry must land immediately after a
    ``baseline-controlled`` entry of the same preset — this machine's
    CPU phase swings >2x over minutes, and anything else is a
    cross-phase comparison wearing a controlled label.  Returns a
    human-readable violation, or None when the append is clean.
    """
    label = str(entry.get("label") or "")
    if not label.endswith("-controlled") or label == "baseline-controlled":
        return None
    entries = record.get("entries") or []
    previous = entries[-1] if entries else None
    if previous is None:
        return (
            f"entry {label!r} claims a controlled measurement but the "
            "trajectory is empty — append its 'baseline-controlled' "
            "partner first, back-to-back"
        )
    if previous.get("label") != "baseline-controlled":
        return (
            f"entry {label!r} claims a controlled measurement but the "
            f"immediately preceding entry is {previous.get('label')!r}, "
            "not 'baseline-controlled' — controlled pairs must be "
            "appended back-to-back"
        )
    if previous.get("preset") != entry.get("preset"):
        return (
            f"entry {label!r} (preset {entry.get('preset')!r}) does not "
            "match the preceding 'baseline-controlled' entry's preset "
            f"({previous.get('preset')!r}) — a controlled pair must "
            "time the same preset"
        )
    return None


def append_entry(
    entry: Dict, output: Path, allow_uncontrolled: bool = False
) -> Dict:
    """Append ``entry`` to the trajectory file (created when missing).

    The write goes through a temp file + ``os.replace`` so an
    interrupted run can never truncate the accumulated trajectory;
    a file that is unreadable anyway is preserved under ``.corrupt``
    (with a warning) rather than silently discarded.

    ``*-controlled`` labels are policed: an entry claiming a
    controlled measurement that is not the back-to-back partner of a
    ``baseline-controlled`` entry raises
    :class:`UncontrolledSpeedClaim` (``allow_uncontrolled=True``
    downgrades the refusal to a warning).
    """
    import os
    import warnings

    record: Dict = {"entries": []}
    if output.exists():
        try:
            loaded = json.loads(output.read_text())
            if isinstance(loaded, dict) and isinstance(
                loaded.get("entries"), list
            ):
                record = loaded
        except ValueError:
            backup = output.with_suffix(output.suffix + ".corrupt")
            os.replace(output, backup)
            warnings.warn(
                f"speed trajectory {output} was not valid JSON; moved "
                f"to {backup} and starting a fresh trajectory",
                RuntimeWarning,
                stacklevel=2,
            )
    violation = controlled_pair_violation(record, entry)
    if violation is not None:
        if not allow_uncontrolled:
            raise UncontrolledSpeedClaim(
                violation + " (pass --allow-uncontrolled to record it "
                "anyway, clearly mislabelled)"
            )
        warnings.warn(
            f"recording an uncontrolled speed claim: {violation}",
            RuntimeWarning,
            stacklevel=2,
        )
    record["entries"].append(entry)
    tmp = output.with_suffix(f"{output.suffix}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(record, indent=2) + "\n")
    os.replace(tmp, output)
    return record


def per_workload_speedups(
    baseline_entry: Dict, candidate_entry: Dict
) -> List[Dict[str, object]]:
    """Per-(workload, scheme) speedups of candidate over baseline.

    Attributes the aggregate claim: tracker-arena wins should show on
    tracker-bound pairs (blockhammer, attack mixes) and sit near
    parity on scheduler-bound ones — an aggregate alone can't tell
    those apart.  Rows are matched by (workload, scheme); rows missing
    from the baseline are skipped.
    """
    base_rate: Dict[Tuple[object, object], float] = {}
    for row in baseline_entry.get("rows") or []:
        base_rate[(row.get("workload"), row.get("scheme"))] = (
            row.get("events_per_sec") or 0.0
        )
    breakdown: List[Dict[str, object]] = []
    for row in candidate_entry.get("rows") or []:
        key = (row.get("workload"), row.get("scheme"))
        base = base_rate.get(key)
        if not base:
            continue
        breakdown.append(
            {
                "workload": key[0],
                "scheme": key[1],
                "speedup": round(
                    (row.get("events_per_sec") or 0.0) / base, 3
                ),
            }
        )
    return breakdown


def run_controlled_pairs(
    preset: str,
    pairs: int,
    candidate_label: str,
    output: Optional[Path] = None,
    baseline_backend: str = "scalar",
    candidate_backend: str = "turbo",
    allow_uncontrolled: bool = False,
) -> Dict:
    """Run N back-to-back (baseline, candidate) pairs; record the median.

    This container's CPU phase swings more than 2x between
    measurements, so a single back-to-back pair can land anywhere in
    that swing.  Each iteration times the full preset on the baseline
    backend and then immediately on the candidate backend; the pair
    whose aggregate speedup is the *median* of the N samples is the
    one recorded (both of its entries, back-to-back, satisfying the
    ``*-controlled`` hygiene guard), annotated with every sample so
    the spread stays visible.

    Returns ``{"baseline": entry, "candidate": entry, "samples": [...],
    "median_speedup": float}``.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    if not candidate_label.endswith("-controlled"):
        raise ValueError(
            f"candidate label {candidate_label!r} must end in "
            "'-controlled' (the --pairs flow exists to make that "
            "claim honest)"
        )
    from repro.sim.backend import resolve_backend

    baseline_backend = resolve_backend(baseline_backend)
    candidate_backend = resolve_backend(candidate_backend)
    samples = []
    for i in range(pairs):
        baseline_rows = run_preset(preset, backend=baseline_backend)
        candidate_rows = run_preset(preset, backend=candidate_backend)
        baseline_entry = make_entry(
            preset, "baseline-controlled", baseline_rows,
            backend=baseline_backend,
        )
        candidate_entry = make_entry(
            preset, candidate_label, candidate_rows,
            backend=candidate_backend,
        )
        speedup = (
            candidate_entry["aggregate_events_per_sec"]
            / baseline_entry["aggregate_events_per_sec"]
        )
        candidate_entry["per_workload_speedup"] = per_workload_speedups(
            baseline_entry, candidate_entry
        )
        samples.append((speedup, baseline_entry, candidate_entry))
        print(
            f"pair {i + 1}/{pairs}: "
            f"{baseline_backend} "
            f"{baseline_entry['aggregate_events_per_sec']:.0f} ev/s, "
            f"{candidate_backend} "
            f"{candidate_entry['aggregate_events_per_sec']:.0f} ev/s "
            f"-> {speedup:.2f}x"
        )
    samples.sort(key=lambda sample: sample[0])
    median_speedup, baseline_entry, candidate_entry = (
        samples[(len(samples) - 1) // 2]
    )
    annotations = {
        "pairs_run": pairs,
        "speedup_samples": [round(s, 3) for s, _, _ in samples],
        "median_speedup": round(median_speedup, 3),
    }
    candidate_entry.update(annotations)
    baseline_entry["pairs_run"] = pairs
    print(f"\nmedian pair ({median_speedup:.2f}x):")
    print(format_entry(baseline_entry))
    print()
    print(format_entry(candidate_entry))
    if output is not None:
        append_entry(
            baseline_entry, Path(output),
            allow_uncontrolled=allow_uncontrolled,
        )
        append_entry(
            candidate_entry, Path(output),
            allow_uncontrolled=allow_uncontrolled,
        )
        print(f"\nappended median pair to {output}")
    return {
        "baseline": baseline_entry,
        "candidate": candidate_entry,
        "samples": [round(s, 3) for s, _, _ in samples],
        "median_speedup": median_speedup,
    }


def run_and_report(
    preset: str,
    label: str,
    output: Optional[Path] = None,
    allow_uncontrolled: bool = False,
    backend: Optional[str] = None,
) -> Dict:
    """Run a preset, print the table, and optionally record it.

    The single driver behind both the ``repro bench-speed`` CLI
    subcommand and ``benchmarks/bench_speed.py``.  ``output=None``
    skips recording (measure-only runs).  Controlled-pair hygiene is
    enforced by :func:`append_entry`.  No speedup is computed here: a
    prior entry comes from a different machine phase, so only
    :func:`run_controlled_pairs` (``--pairs``) reports speedups.
    """
    from repro.sim.backend import resolve_backend

    backend = resolve_backend(backend)  # annotate what actually ran
    rows = run_preset(preset, backend=backend)
    entry = make_entry(preset, label, rows, backend=backend)
    print(format_entry(entry))
    if output is not None:
        append_entry(
            entry, Path(output), allow_uncontrolled=allow_uncontrolled
        )
        print(f"\nappended entry to {output}")
    return entry


def format_entry(entry: Dict) -> str:
    speedups = {
        (row.get("workload"), row.get("scheme")): row.get("speedup")
        for row in entry.get("per_workload_speedup") or []
    }
    lines = [
        f"preset={entry['preset']} label={entry['label']} "
        f"({entry['timestamp']})",
        f"{'workload':<12} {'scheme':<12} {'events':>8} {'wall s':>8} "
        f"{'events/s':>10}"
        + (f" {'speedup':>8}" if speedups else ""),
    ]
    for row in entry["rows"]:
        line = (
            f"{row['workload']:<12} {row['scheme']:<12} "
            f"{row['events']:>8} {row['wall_s']:>8.3f} "
            f"{row['events_per_sec']:>10.0f}"
        )
        speedup = speedups.get((row["workload"], row["scheme"]))
        if speedup is not None:
            line += f" {speedup:>7.2f}x"
        lines.append(line)
    lines.append(
        f"{'TOTAL':<25} {entry['total_events']:>8} "
        f"{entry['total_wall_s']:>8.3f} "
        f"{entry['aggregate_events_per_sec']:>10.0f}"
    )
    return "\n".join(lines)
