"""Per-core memory trace format.

A trace is one core's stream of post-LLC memory requests, each with the
amount of core work (instructions / cycles) separating it from the
previous request.  Traces are the substitute for the paper's SPEC
CPU2017 SimPoint traces (see DESIGN.md): the mitigation overheads
depend only on the resulting ACT stream statistics, which the
generators control explicitly.

Storage is columnar: a :class:`CoreTrace` holds six read-only numpy
columns (:data:`COLUMNS`), one value per request.  That layout is this
module's decision alone — generators, readers and the native drain
kernel work on the columns, while cold callers (characterization, the
jsonl/csv writers, the python reference loop) iterate :class:`TraceEntry`
objects built lazily from them.  The binary ``RPTRC1`` format
(:mod:`repro.traces.readers`) is the columns' on-disk image.
"""

from __future__ import annotations

import gzip
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np


class _DeterministicGzip(gzip.GzipFile):
    """GzipFile whose header carries no filename and mtime 0.

    The stock header embeds both, so saving the same trace under two
    paths (or at two times) yields different bytes; pinning them keeps
    re-saves byte-identical — what TraceSet manifests' sha256 digests
    rely on.
    """

    def __init__(self, path, mode: str):
        self._raw = open(path, mode)
        super().__init__(filename="", mode=mode, fileobj=self._raw,
                         mtime=0)

    def close(self):
        try:
            super().close()
        finally:
            self._raw.close()


def open_trace_file(path, mode: str):
    """Open a trace file, transparently compressed when it ends ``.gz``."""
    path = Path(path)
    binary = "b" in mode
    if path.suffix == ".gz":
        raw = _DeterministicGzip(path, "wb" if "w" in mode else "rb")
        return raw if binary else io.TextIOWrapper(raw)
    return path.open(mode if binary else mode.rstrip("b"))


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One memory request of a core trace (a row of the columns).

    ``gap_cycles`` — memory-clock cycles of core work since the
    previous request was *issued* (the throughput model of the core).
    ``instructions`` — instructions retired in that gap, used for IPC.
    """

    gap_cycles: int
    bank_index: int
    row: int
    column: int = 0
    is_write: bool = False
    instructions: int = 0


#: The per-request columns, in :class:`TraceEntry` field order, with
#: their dtypes.
COLUMNS = (
    ("gap_cycles", np.int64),
    ("bank_index", np.int64),
    ("row", np.int64),
    ("column", np.int64),
    ("is_write", np.bool_),
    ("instructions", np.int64),
)
COLUMN_NAMES = tuple(name for name, _dtype in COLUMNS)

#: Entries converted per block by the lazy entry iterator.
_ITER_BLOCK = 1 << 16


class CoreTrace:
    """A whole core's request stream plus identification metadata.

    Each column is a read-only one-dimensional numpy array; the trace
    takes ownership of the arrays it is given: contiguous arrays of the
    right dtype are frozen in place, not copied.
    """

    __slots__ = ("name", "memory_intensive") + COLUMN_NAMES

    def __init__(
        self,
        name: str,
        gap_cycles: Sequence[int] = (),
        bank_index: Sequence[int] = (),
        row: Sequence[int] = (),
        column: Sequence[int] = (),
        is_write: Sequence[bool] = (),
        instructions: Sequence[int] = (),
        memory_intensive: bool = True,
    ):
        self.name = name
        self.memory_intensive = memory_intensive
        values = (gap_cycles, bank_index, row, column, is_write, instructions)
        length = None
        for (field, dtype), value in zip(COLUMNS, values):
            array = np.ascontiguousarray(value, dtype=dtype)
            if array.ndim != 1:
                raise ValueError(f"column {field!r} must be one-dimensional")
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise ValueError(
                    f"column {field!r} has {len(array)} values, "
                    f"expected {length}"
                )
            array.setflags(write=False)
            setattr(self, field, array)

    @classmethod
    def from_entries(
        cls,
        name: str,
        entries: Iterable[TraceEntry],
        memory_intensive: bool = True,
    ) -> "CoreTrace":
        """Build the columns from entry objects (tests, small traces)."""
        entries = list(entries)
        return cls(
            name,
            *(
                [getattr(entry, field) for entry in entries]
                for field in COLUMN_NAMES
            ),
            memory_intensive=memory_intensive,
        )

    def columns(self) -> Dict[str, np.ndarray]:
        """The six columns by name, in :data:`COLUMNS` order."""
        return {field: getattr(self, field) for field in COLUMN_NAMES}

    def with_columns(self, **changes: Sequence) -> "CoreTrace":
        """A new trace with some columns replaced (same name/intensity).

        Passing every column sliced alike truncates the trace.
        """
        columns = self.columns()
        columns.update(changes)
        return CoreTrace(
            self.name, **columns, memory_intensive=self.memory_intensive
        )

    def __len__(self) -> int:
        return len(self.row)

    def __iter__(self) -> Iterator[TraceEntry]:
        """Lazy :class:`TraceEntry` view, converted block by block."""
        columns = [getattr(self, field) for field in COLUMN_NAMES]
        for start in range(0, len(self), _ITER_BLOCK):
            block = slice(start, start + _ITER_BLOCK)
            yield from map(
                TraceEntry, *(column[block].tolist() for column in columns)
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoreTrace):
            return NotImplemented
        return (
            self.name == other.name
            and self.memory_intensive == other.memory_intensive
            and all(
                np.array_equal(getattr(self, field), getattr(other, field))
                for field in COLUMN_NAMES
            )
        )

    def __repr__(self) -> str:
        return (
            f"CoreTrace(name={self.name!r}, requests={len(self)}, "
            f"memory_intensive={self.memory_intensive})"
        )

    @property
    def total_instructions(self) -> int:
        return int(self.instructions.sum())

    def banks_touched(self) -> List[int]:
        return sorted(set(self.bank_index.tolist()))

    # ------------------------------------------------------------------
    # (de)serialization — line-delimited JSON for easy inspection
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        with open_trace_file(path, "w") as handle:
            header = {
                "name": self.name,
                "memory_intensive": self.memory_intensive,
            }
            handle.write(json.dumps(header) + "\n")
            for entry in self:
                record = [
                    entry.gap_cycles,
                    entry.bank_index,
                    entry.row,
                    entry.column,
                    int(entry.is_write),
                    entry.instructions,
                ]
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path) -> "CoreTrace":
        with open_trace_file(path, "r") as handle:
            header = json.loads(handle.readline())
            records = [json.loads(line) for line in handle]
        table = np.array(records, dtype=np.int64).reshape(-1, len(COLUMNS))
        columns = list(table.T)
        columns[4] = columns[4] != 0
        return cls(
            header["name"],
            *columns,
            memory_intensive=header.get("memory_intensive", True),
        )


def interleave_round_robin(traces: Iterable[CoreTrace]) -> List[TraceEntry]:
    """Merge per-core streams round-robin, one entry per core per turn.

    The arrival-interleaving approximation the characterization
    layer (:mod:`repro.traces.characterize`) analyzes: close to what
    the memory controller sees without simulating timing.
    """
    iterators = [iter(t) for t in traces]
    merged: List[TraceEntry] = []
    while iterators:
        alive = []
        for iterator in iterators:
            entry = next(iterator, None)
            if entry is not None:
                merged.append(entry)
                alive.append(iterator)
        iterators = alive
    return merged
