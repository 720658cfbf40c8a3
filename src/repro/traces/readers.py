"""Trace readers: the pluggable ingestion formats.

Three formats ship, registered by name (:func:`register_reader`) so
external converters can add more without touching the ingestion CLI:

``jsonl``
    The native line-delimited JSON of :meth:`CoreTrace.save` — one
    header object, then one ``[gap, bank, row, column, write, instr]``
    array per request.  Human-inspectable; roughly 40 bytes/request.

``binary``
    A compact columnar format (magic ``RPTRC1``): a JSON header line
    followed by the six trace columns as contiguous little-endian
    blobs (int64, except ``is_write`` as uint8) — the on-disk image of
    :class:`~repro.workloads.trace.CoreTrace`'s columns, read back with
    one ``np.frombuffer`` per column.  ~41 bytes per request raw, but
    columns compress far better than JSON — the expected on-disk form
    is ``.bin.gz``.

``dramsim3-csv``
    A DRAMsim3-style ``addr,cycle,op`` request log (comma- or
    whitespace-separated, ``0x``-hex or decimal addresses, absolute
    cycle stamps, READ/WRITE ops).  Byte addresses are decoded through
    an address-mapping policy (:mod:`repro.traces.mapping`), cycle
    stamps become inter-request gaps, and the gap doubles as the
    instruction proxy — external logs carry no retire counts.

Every reader takes ``(path, organization=..., mapping=...)`` and
returns one :class:`~repro.workloads.trace.CoreTrace`; formats that
already carry coordinates ignore the mapping arguments.  All paths
accept a ``.gz`` suffix transparently (:func:`open_trace_file`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.params import DEFAULT_CONFIG, DramOrganization
from repro.traces.mapping import DEFAULT_MAPPING, map_address
from repro.workloads.trace import COLUMN_NAMES, CoreTrace, open_trace_file

#: Magic prefix of the binary columnar format (version 1).
BINARY_MAGIC = b"RPTRC1\n"

#: On-disk dtype of each column, in file order (the CoreTrace order).
_FILE_DTYPES = {name: np.dtype("<i8") for name in COLUMN_NAMES}
_FILE_DTYPES["is_write"] = np.dtype("u1")

Reader = Callable[..., CoreTrace]

_READERS: Dict[str, Reader] = {}


def register_reader(name: str):
    """Decorator registering a trace reader under ``name``."""

    def decorator(reader: Reader) -> Reader:
        _READERS[name] = reader
        return reader

    return decorator


def reader_names() -> List[str]:
    return sorted(_READERS)


def get_reader(name: str) -> Reader:
    try:
        return _READERS[name]
    except KeyError:
        raise KeyError(
            f"unknown trace format {name!r}; "
            f"known: {', '.join(reader_names())}"
        ) from None


def read_trace(
    path,
    format: Optional[str] = None,
    organization: Optional[DramOrganization] = None,
    mapping: str = DEFAULT_MAPPING,
) -> CoreTrace:
    """Read one trace, sniffing the format when none is given."""
    if format is None or format == "auto":
        format = detect_format(path)
    return get_reader(format)(
        path, organization=organization, mapping=mapping
    )


def detect_format(path) -> str:
    """Sniff a trace file's format from its first bytes."""
    with open_trace_file(path, "rb") as handle:
        head = handle.read(len(BINARY_MAGIC))
    if head == BINARY_MAGIC:
        return "binary"
    if head.lstrip()[:1] == b"{":
        return "jsonl"
    if head.strip():
        return "dramsim3-csv"
    raise ValueError(f"cannot detect trace format of empty file {path}")


# ----------------------------------------------------------------------
# jsonl — the native CoreTrace serialization
# ----------------------------------------------------------------------


@register_reader("jsonl")
def read_jsonl(path, organization=None, mapping=DEFAULT_MAPPING) -> CoreTrace:
    return CoreTrace.load(path)


def write_jsonl(trace: CoreTrace, path) -> None:
    trace.save(path)


# ----------------------------------------------------------------------
# binary — columnar int64 blobs behind a JSON header
# ----------------------------------------------------------------------


@register_reader("binary")
def read_binary(path, organization=None, mapping=DEFAULT_MAPPING) -> CoreTrace:
    with open_trace_file(path, "rb") as handle:
        magic = handle.read(len(BINARY_MAGIC))
        if magic != BINARY_MAGIC:
            raise ValueError(
                f"{path} is not a binary repro trace "
                f"(magic {magic!r}, expected {BINARY_MAGIC!r})"
            )
        header = json.loads(handle.readline())
        count = header["count"]
        # Checked before any read: frombuffer(count=-1) would silently
        # take the rest of the file as one column.
        if type(count) is not int or count < 0:
            raise ValueError(
                f"{path}: header count must be a non-negative integer, "
                f"got {count!r}"
            )
        columns = {}
        for name in COLUMN_NAMES:
            dtype = _FILE_DTYPES[name]
            blob = handle.read(dtype.itemsize * count)
            got = len(blob) // dtype.itemsize
            if got != count:
                raise ValueError(
                    f"{path}: column {name!r} truncated "
                    f"({got} of {count} values)"
                )
            columns[name] = np.frombuffer(blob, dtype=dtype, count=count)
    columns["is_write"] = columns["is_write"] != 0
    return CoreTrace(
        header["name"],
        **columns,
        memory_intensive=header.get("memory_intensive", True),
    )


def write_binary(trace: CoreTrace, path) -> None:
    header = {
        "name": trace.name,
        "memory_intensive": trace.memory_intensive,
        "count": len(trace),
    }
    with open_trace_file(path, "wb") as handle:
        handle.write(BINARY_MAGIC)
        handle.write((json.dumps(header) + "\n").encode())
        for name, column in trace.columns().items():
            handle.write(
                column.astype(_FILE_DTYPES[name], copy=False).tobytes()
            )


#: Writers by format name (the ingestion CLI's ``--format`` choices).
WRITERS: Dict[str, Callable[[CoreTrace, object], None]] = {
    "jsonl": write_jsonl,
    "binary": write_binary,
}


# ----------------------------------------------------------------------
# dramsim3-csv — addr,cycle,op request logs
# ----------------------------------------------------------------------


def _parse_int(token: str) -> int:
    token = token.strip()
    return int(token, 16) if token.lower().startswith("0x") else int(token)


@register_reader("dramsim3-csv")
def read_dramsim3_csv(
    path,
    organization: Optional[DramOrganization] = None,
    mapping: str = DEFAULT_MAPPING,
) -> CoreTrace:
    org = organization or DEFAULT_CONFIG.organization
    columns: Dict[str, List[int]] = {name: [] for name in COLUMN_NAMES}
    previous_cycle = None
    with open_trace_file(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = [t for t in line.replace(",", " ").split() if t]
            if tokens[0].lower() in ("addr", "address"):  # header row
                continue
            if len(tokens) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'addr,cycle,op', "
                    f"got {line!r}"
                )
            address, cycle = _parse_int(tokens[0]), _parse_int(tokens[1])
            op = tokens[2].strip().upper()
            if op not in ("READ", "WRITE", "R", "W"):
                raise ValueError(
                    f"{path}:{lineno}: unknown op {tokens[2]!r} "
                    "(expected READ/WRITE)"
                )
            gap = 0 if previous_cycle is None else max(
                0, cycle - previous_cycle
            )
            previous_cycle = cycle
            bank, row, column = map_address(mapping, address, org)
            columns["gap_cycles"].append(gap)
            columns["bank_index"].append(bank)
            columns["row"].append(row)
            columns["column"].append(column)
            columns["is_write"].append(op.startswith("W"))
            # External logs carry no retire counts; the gap is the same
            # throughput proxy the generators use.
            columns["instructions"].append(gap + 1)
    name = Path(path).name
    for suffix in (".gz", ".csv", ".trace", ".txt"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return CoreTrace(name or "dramsim3", **columns)
