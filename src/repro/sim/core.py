"""Trace-driven core model.

Each core replays its trace with a throughput model: the next request
issues ``gap_cycles`` after the previous one, except when the core has
``mlp`` reads outstanding — then it stalls until a read returns.
Writes are posted (they never block the core).  This reproduces the
property the evaluation relies on: extra bank-blocking commands delay
read completions, which stalls cores and lowers aggregate IPC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.workloads.trace import CoreTrace, TraceEntry


@dataclass(slots=True)
class TraceCore:
    """Replay state for one core."""

    core_id: int
    trace: CoreTrace
    mlp: int = 4

    index: int = 0
    outstanding_reads: int = 0
    next_issue_cycle: int = 0
    stalled_on_mlp: bool = False
    reads_issued: int = 0
    writes_issued: int = 0
    #: the trace as entry objects, built on first use: the python
    #: loop's view (the native kernel reads the columns).
    entries: Optional[List[TraceEntry]] = field(default=None, repr=False)

    def entry_list(self) -> List[TraceEntry]:
        if self.entries is None:
            self.entries = list(self.trace)
        return self.entries

    def done_issuing(self) -> bool:
        return self.index >= len(self.trace)

    def issue(self, cycle: int) -> TraceEntry:
        """Consume the next trace entry at ``cycle``."""
        entries = self.entries
        if entries is None:
            entries = self.entry_list()
        index = self.index
        entry = entries[index]
        index += 1
        self.index = index
        if entry.is_write:
            self.writes_issued += 1
        else:
            self.reads_issued += 1
            self.outstanding_reads += 1
        gap = entries[index].gap_cycles if index < len(entries) else 0
        self.next_issue_cycle = cycle + (gap if gap > 1 else 1)
        return entry

    def on_read_complete(self, cycle: int) -> None:
        self.outstanding_reads -= 1
        if self.outstanding_reads < 0:
            raise RuntimeError(
                f"core {self.core_id}: read completion without outstanding read"
            )

    @property
    def total_instructions(self) -> int:
        return self.trace.total_instructions
