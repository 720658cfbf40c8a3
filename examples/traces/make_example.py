#!/usr/bin/env python
"""Regenerate the shipped example TraceSet (examples/traces/example-set).

The set is tiny on purpose — two cores, a few hundred requests — and
fully deterministic: fixed seeds, gzip headers pinned to mtime 0, no
timestamps in the manifest.  Running this script twice produces
byte-identical files, which is what lets the committed sha256 digests
in manifest.json double as an integrity check.

One core is stored as inspectable line-delimited JSON, the other as
the gzipped binary columnar format, so loading the set exercises both
readers (the CI smoke step and tests/integration/test_traces_engine.py
rely on that).

Run:  PYTHONPATH=src python examples/traces/make_example.py
"""

import json
from pathlib import Path

from repro.traces import TraceSet, capacity_pressure, row_conflict_heavy
from repro.traces.ingest import MANIFEST_NAME, _sha256_file
from repro.traces.readers import write_binary, write_jsonl

OUT = Path(__file__).parent / "example-set"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    cores = [
        capacity_pressure(
            num_cores=1, num_requests=160, num_banks=8, seed=71
        )[0],
        row_conflict_heavy(
            num_cores=1, num_requests=160, num_banks=8, seed=72
        )[0],
    ]
    traceset = TraceSet(
        name="example-set",
        traces=cores,
        provenance={
            "kind": "generated",
            "generator": "examples/traces/make_example.py",
            "params": {"seeds": [71, 72], "num_requests": 160,
                       "num_banks": 8},
        },
    )
    # Mixed per-core formats (TraceSet.save writes one format for the
    # whole set, so the manifest is assembled by hand here).
    files = [
        ("core00-capacity-pressure.jsonl", "jsonl", write_jsonl),
        ("core01-row-conflict.bin.gz", "binary", write_binary),
    ]
    manifest_cores = []
    for trace, (filename, format_name, writer) in zip(cores, files):
        path = OUT / filename
        writer(trace, path)
        manifest_cores.append(
            {
                "file": filename,
                "format": format_name,
                "name": trace.name,
                "requests": len(trace),
                "sha256": _sha256_file(path),
            }
        )
    manifest = {
        "schema": "repro-traceset-v1",
        "name": traceset.name,
        "digest": traceset.digest(),
        "geometry": dict(traceset.geometry),
        "provenance": traceset.provenance,
        "cores": manifest_cores,
    }
    (OUT / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {OUT} (digest {traceset.digest()})")


if __name__ == "__main__":
    main()
