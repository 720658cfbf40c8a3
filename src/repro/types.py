"""Shared small types used across the simulator and the mitigation schemes."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class CommandKind(enum.Enum):
    """DRAM command types visible on the MC-DRAM interface."""

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"              #: periodic auto-refresh
    RFM = "RFM"              #: refresh management (row-agnostic time margin)
    ARR = "ARR"              #: legacy adjacent-row refresh (row-targeted)


@dataclass(frozen=True, order=True, slots=True)
class BankAddress:
    """Globally unique bank coordinate."""

    channel: int
    rank: int
    bank: int

    def flat_index(self, ranks_per_channel: int, banks_per_rank: int) -> int:
        return (self.channel * ranks_per_channel + self.rank) * banks_per_rank + self.bank


@dataclass(frozen=True, order=True, slots=True)
class RowAddress:
    """A DRAM row, identified by its bank and row index."""

    bank: BankAddress
    row: int

    def neighbor(self, offset: int, rows_per_bank: int) -> Optional["RowAddress"]:
        """The physically adjacent row at ``offset`` (None past array edge)."""
        target = self.row + offset
        if target < 0 or target >= rows_per_bank:
            return None
        return RowAddress(self.bank, target)


@dataclass(slots=True)
class MemoryRequest:
    """A post-LLC memory request as seen by the memory controller.

    One instance is allocated per issued trace entry, so the class is
    slotted: the event loop's allocation rate is dominated by these.
    """

    core: int
    arrival_cycle: int
    address: RowAddress
    column: int = 0
    is_write: bool = False
    #: filled in by the simulator: cycle at which the data transfer finished
    completion_cycle: Optional[int] = None

    @property
    def is_read(self) -> bool:
        return not self.is_write


class SchemeLocation(enum.Enum):
    """Where a protection scheme is implemented (Table I)."""

    MC = "memory-controller"
    DRAM = "dram"
    BUFFER_CHIP = "buffer-chip"


@dataclass(slots=True)
class EnergyCounts:
    """Event counts from which dynamic energy is derived."""

    acts: int = 0
    pres: int = 0
    reads: int = 0
    writes: int = 0
    auto_refreshes: int = 0
    rfm_commands: int = 0
    preventive_refresh_rows: int = 0
    mrr_commands: int = 0

    def merged(self, other: "EnergyCounts") -> "EnergyCounts":
        return EnergyCounts(
            acts=self.acts + other.acts,
            pres=self.pres + other.pres,
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            auto_refreshes=self.auto_refreshes + other.auto_refreshes,
            rfm_commands=self.rfm_commands + other.rfm_commands,
            preventive_refresh_rows=self.preventive_refresh_rows
            + other.preventive_refresh_rows,
            mrr_commands=self.mrr_commands + other.mrr_commands,
        )
