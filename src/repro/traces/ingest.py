"""Trace ingestion: geometry normalization and TraceSet manifests.

Ingestion turns external or generated traces into first-class
workloads with two guarantees:

* **geometry** — every entry fits the active
  :class:`~repro.params.DramOrganization` (bank, row and column in
  range).  ``strict`` validation raises :class:`TraceGeometryError`
  naming the first offender; ``clamp`` normalization wraps
  out-of-range coordinates modulo the geometry (the same fold the
  simulator applies to ``bank_index``, extended to rows and columns so
  characterization sees what the simulator will see).  Negative values
  are always errors — they are corrupt input, not a bigger device.

* **provenance** — a :class:`TraceSet` bundles one trace per core with
  a ``manifest.json`` recording where each came from (source file,
  reader, mapping policy, or generator and parameters), the geometry
  it was normalized to, and a sha256 per trace file.  Loading verifies
  the digests, so a manifest is also an integrity check, and the
  set-level content digest is what ``trace:<path>`` jobs fold into
  their cache key (:func:`repro.engine.catalog.traceset_spec`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.params import DEFAULT_CONFIG, DramOrganization
from repro.traces.readers import WRITERS, read_trace
from repro.workloads.trace import CoreTrace

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "repro-traceset-v1"


class TraceGeometryError(ValueError):
    """A trace entry that does not fit the device geometry."""


def _geometry(organization: DramOrganization) -> Dict[str, int]:
    return {
        "num_banks": organization.total_banks,
        "rows_per_bank": organization.rows_per_bank,
        "columns_per_row": organization.columns_per_row,
    }


def normalize_trace(
    trace: CoreTrace,
    organization: Optional[DramOrganization] = None,
    mode: str = "clamp",
) -> CoreTrace:
    """Fit one trace to the geometry; see the module docstring.

    ``mode="clamp"`` wraps out-of-range coordinates modulo the
    geometry and returns a new trace (or the original object when
    nothing changes); ``mode="strict"`` raises
    :class:`TraceGeometryError` instead.
    """
    if mode not in ("clamp", "strict"):
        raise ValueError(f"mode must be 'clamp' or 'strict', got {mode!r}")
    org = organization or DEFAULT_CONFIG.organization
    banks, rows, cols = (
        org.total_banks, org.rows_per_bank, org.columns_per_row
    )
    checked = ("bank_index", "row", "column", "gap_cycles", "instructions")
    negative = np.zeros(len(trace), dtype=bool)
    for what in checked:
        negative |= getattr(trace, what) < 0
    outside = (
        (trace.bank_index >= banks)
        | (trace.row >= rows)
        | (trace.column >= cols)
    )
    # The first offending entry decides the error, and within it a
    # negative value wins over a geometry misfit.
    bad = negative | outside if mode == "strict" else negative
    if bad.any():
        index = int(np.argmax(bad))
        if negative[index]:
            what = next(w for w in checked if getattr(trace, w)[index] < 0)
            raise TraceGeometryError(
                f"trace {trace.name!r} entry {index}: negative "
                f"{what} ({getattr(trace, what)[index]})"
            )
        raise TraceGeometryError(
            f"trace {trace.name!r} entry {index}: "
            f"(bank={trace.bank_index[index]}, row={trace.row[index]}, "
            f"column={trace.column[index]}) outside geometry "
            f"(banks={banks}, rows={rows}, columns={cols})"
        )
    if not outside.any():
        return trace
    return trace.with_columns(
        bank_index=trace.bank_index % banks,
        row=trace.row % rows,
        column=trace.column % cols,
    )


def normalize_traces(
    traces: Sequence[CoreTrace],
    organization: Optional[DramOrganization] = None,
    mode: str = "clamp",
) -> List[CoreTrace]:
    return [normalize_trace(t, organization, mode) for t in traces]


# ----------------------------------------------------------------------
# TraceSet
# ----------------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    """sha256 of a trace file's *logical* content.

    ``.gz`` files hash their decompressed stream: DEFLATE output
    differs between zlib implementations (zlib-ng vs classic), so
    hashing compressed bytes would make committed manifests
    platform-dependent.  Corrupt gzip containers still fail loudly —
    decompression raises before a digest is produced.
    """
    from repro.workloads.trace import open_trace_file

    digest = hashlib.sha256()
    with open_trace_file(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in name)


@dataclass
class TraceSet:
    """A multi-core workload: per-core traces plus provenance metadata."""

    name: str
    traces: List[CoreTrace]
    provenance: Dict[str, Any] = field(default_factory=dict)
    geometry: Dict[str, int] = field(
        default_factory=lambda: _geometry(DEFAULT_CONFIG.organization)
    )

    def digest(self) -> str:
        """Content hash over every entry of every core trace.

        Format-independent (a jsonl and a binary serialization of the
        same traces digest alike); ``trace:<path>`` jobs carry it so a
        rewritten TraceSet never satisfies a stale cache entry.
        """
        payload = hashlib.sha256()
        for trace in self.traces:
            payload.update(trace.name.encode())
            payload.update(b"\0")
            payload.update(b"\1" if trace.memory_intensive else b"\0")
            for e in trace:
                payload.update(
                    (
                        f"{e.gap_cycles},{e.bank_index},{e.row},"
                        f"{e.column},{int(e.is_write)},{e.instructions};"
                    ).encode()
                )
        return payload.hexdigest()[:16]

    def save(self, directory, format: str = "jsonl",
             compress: bool = False) -> Path:
        """Write the set as ``<directory>/manifest.json`` + trace files.

        ``format`` picks the per-core serialization (any
        :data:`~repro.traces.readers.WRITERS` key); ``compress`` adds a
        deterministic ``.gz`` layer.  Returns the manifest path.
        """
        if format not in WRITERS:
            raise KeyError(
                f"unknown trace format {format!r}; "
                f"known: {', '.join(sorted(WRITERS))}"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # Files a previous save left behind must not outlive a manifest
        # that no longer covers them (fewer cores, different format).
        manifest_path = directory / MANIFEST_NAME
        stale = set()
        if manifest_path.is_file():
            try:
                previous = json.loads(manifest_path.read_text())
                stale = {core["file"] for core in previous["cores"]}
            except (ValueError, KeyError, TypeError):
                stale = set()
        extension = {"jsonl": ".jsonl", "binary": ".bin"}[format]
        if compress:
            extension += ".gz"
        cores = []
        for index, trace in enumerate(self.traces):
            filename = f"core{index:02d}-{_safe_name(trace.name)}{extension}"
            path = directory / filename
            WRITERS[format](trace, path)
            cores.append(
                {
                    "file": filename,
                    "format": format,
                    "name": trace.name,
                    "requests": len(trace),
                    "sha256": _sha256_file(path),
                }
            )
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "name": self.name,
            "digest": self.digest(),
            "geometry": dict(self.geometry),
            "provenance": self.provenance,
            "cores": cores,
        }
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        for orphan in stale - {core["file"] for core in cores}:
            try:
                (directory / orphan).unlink()
            except OSError:
                pass
        return manifest_path

    @classmethod
    def load(cls, directory, verify: bool = True) -> "TraceSet":
        """Load a set from its directory, verifying per-file digests."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(
                f"{directory} has no {MANIFEST_NAME} (not a TraceSet)"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"{manifest_path}: unsupported schema "
                f"{manifest.get('schema')!r} (expected {MANIFEST_SCHEMA!r})"
            )
        traces = []
        for core in manifest["cores"]:
            path = directory / core["file"]
            if verify:
                actual = _sha256_file(path)
                if actual != core["sha256"]:
                    raise ValueError(
                        f"{path}: sha256 mismatch (manifest "
                        f"{core['sha256'][:12]}…, file {actual[:12]}…) — "
                        "TraceSet corrupt or edited without re-ingesting"
                    )
            traces.append(read_trace(path, format=core["format"]))
        return cls(
            name=manifest["name"],
            traces=traces,
            provenance=manifest.get("provenance", {}),
            geometry=manifest.get("geometry", {}),
        )


def ingest_files(
    inputs: Sequence,
    name: str,
    organization: Optional[DramOrganization] = None,
    format: Optional[str] = None,
    mapping: Optional[str] = None,
    mode: str = "clamp",
) -> TraceSet:
    """Read one trace per input file into a normalized TraceSet."""
    from repro.traces.mapping import DEFAULT_MAPPING

    org = organization or DEFAULT_CONFIG.organization
    mapping = mapping or DEFAULT_MAPPING
    traces = []
    sources = []
    for path in inputs:
        trace = read_trace(
            path, format=format, organization=org, mapping=mapping
        )
        traces.append(normalize_trace(trace, org, mode))
        sources.append(
            {
                "source": str(path),
                "reader": format or "auto",
                "mapping": mapping,
            }
        )
    if not traces:
        raise ValueError("ingest needs at least one input trace")
    return TraceSet(
        name=name,
        traces=traces,
        provenance={"kind": "ingested", "normalize": mode,
                    "sources": sources},
        geometry=_geometry(org),
    )


# ----------------------------------------------------------------------
# the trace:<path> workload builder
# ----------------------------------------------------------------------


def load_trace_workload(path) -> List[CoreTrace]:
    """TraceSet directory or single trace file -> per-core traces."""
    path = Path(path)
    if path.is_dir():
        return TraceSet.load(path).traces
    return [read_trace(path)]


def build_trace_workload(
    path,
    max_requests: Optional[int] = None,
    num_banks: Optional[int] = None,
    digest: Optional[str] = None,
    scale: float = 1.0,
) -> List[CoreTrace]:
    """The ``trace:<path>`` catalog builder.

    ``max_requests`` truncates each core (CI-sized runs of big traces);
    ``num_banks`` re-folds bank indices for a narrower geometry;
    ``digest`` and ``scale`` only salt the job hash — the digest pins
    the file contents into the cache key, and scale keeps the catalog's
    uniform builder signature (an ingested trace has a fixed length).
    """
    traces = load_trace_workload(path)
    if max_requests is not None:
        keep = max(1, int(max_requests))
        traces = [
            t.with_columns(
                **{name: column[:keep] for name, column in t.columns().items()}
            )
            for t in traces
        ]
    if num_banks is not None:
        traces = [
            t.with_columns(
                bank_index=np.where(
                    t.bank_index < num_banks, t.bank_index,
                    t.bank_index % num_banks,
                )
            )
            for t in traces
        ]
    return traces
