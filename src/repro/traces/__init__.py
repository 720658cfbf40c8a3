"""Trace foundry: workload ingestion, characterization, stress families.

The subsystem that makes external and generated traces first-class
workloads (docs/WORKLOADS.md):

* :mod:`repro.traces.readers` — pluggable format registry (native
  jsonl, compact binary columnar with gzip, DRAMsim3-style CSV);
* :mod:`repro.traces.mapping` — address-to-(bank, row, column)
  decode policies for byte-addressed trace formats;
* :mod:`repro.traces.ingest` — geometry validation/normalization and
  the :class:`TraceSet` manifest (per-core traces + provenance);
* :mod:`repro.traces.characterize` — ACT-stream statistics
  (row-locality CDF, bank imbalance, hot-row skew, MPKI proxy);
* :mod:`repro.traces.families` — the capacity-pressure,
  row-conflict-heavy and multi-channel-imbalanced stress generators
  with their asserted design targets.

Everything here plugs into the experiment engine: the families
register as catalog kinds, and any saved TraceSet runs through
``run_jobs()`` as a ``trace:<path>`` job
(:func:`repro.engine.catalog.traceset_spec`).
"""

from repro.traces.characterize import (
    TraceCharacterization,
    characterize_trace,
    characterize_traceset,
    characterize_workload,
    expected_tracker_spread,
)
from repro.traces.families import (
    DESIGN_TARGETS,
    capacity_pressure,
    design_violations,
    multi_channel_imbalanced,
    row_conflict_heavy,
)
from repro.traces.ingest import (
    TraceGeometryError,
    TraceSet,
    build_trace_workload,
    ingest_files,
    load_trace_workload,
    normalize_trace,
    normalize_traces,
)
from repro.traces.mapping import (
    DEFAULT_MAPPING,
    map_address,
    mapping_names,
    register_mapping,
)
from repro.traces.readers import (
    detect_format,
    get_reader,
    read_trace,
    reader_names,
    register_reader,
    write_binary,
    write_jsonl,
)

__all__ = [
    "TraceCharacterization",
    "characterize_trace",
    "characterize_traceset",
    "characterize_workload",
    "expected_tracker_spread",
    "DESIGN_TARGETS",
    "design_violations",
    "capacity_pressure",
    "row_conflict_heavy",
    "multi_channel_imbalanced",
    "TraceGeometryError",
    "TraceSet",
    "build_trace_workload",
    "ingest_files",
    "load_trace_workload",
    "normalize_trace",
    "normalize_traces",
    "DEFAULT_MAPPING",
    "map_address",
    "mapping_names",
    "register_mapping",
    "detect_format",
    "get_reader",
    "read_trace",
    "reader_names",
    "register_reader",
    "write_binary",
    "write_jsonl",
]
