"""TWiCe (Lee et al., ISCA 2019): time-window counters on a buffer chip.

TWiCe keeps a (row, act_count, life) table interpreted through the
Lossy-Counting lens (Table I of the Mithril paper): every tREFI
checkpoint increments each entry's ``life`` and prunes entries whose
activation rate can no longer reach the RowHammer threshold within the
remaining window — the frequency guarantee of Lossy Counting with
epsilon = threshold / window.

When an entry's count reaches ``flip_th / 4`` the victims get an
(feedback-augmented) ARR.  The /4 covers double-sided attacks plus the
count already possible while the entry was below the pruning line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.params import DramTimings
from repro.protection import ProtectionScheme, arr_trigger
from repro.types import SchemeLocation


@dataclass
class _TwiceEntry:
    act_count: int = 0
    life: int = 0


class TwiceScheme(ProtectionScheme):
    """Buffer-chip deterministic ARR scheme with per-tREFI pruning."""

    location = SchemeLocation.BUFFER_CHIP
    uses_rfm = False

    def __init__(
        self,
        flip_th: int = 10_000,
        rows_per_bank: int = 65536,
        timings: Optional[DramTimings] = None,
    ):
        super().__init__()
        timings = timings or DramTimings()
        self.flip_th = flip_th
        self.arr_threshold = arr_trigger(flip_th)
        self.rows_per_bank = rows_per_bank
        self._trefi_cycles = timings.trefi_cycles
        self._intervals_per_window = max(
            1, int(timings.trefw / timings.trefi)
        )
        #: minimum ACTs per interval of life for an entry to stay tracked
        self.prune_rate = self.arr_threshold / self._intervals_per_window
        self._entries: Dict[int, _TwiceEntry] = {}
        self._next_checkpoint = self._trefi_cycles
        self.max_entries_seen = 0
        self.pruned = 0

    def _checkpoint(self, cycle: int) -> None:
        while cycle >= self._next_checkpoint:
            self._next_checkpoint += self._trefi_cycles
            doomed = []
            for row, entry in self._entries.items():
                entry.life += 1
                if entry.act_count < self.prune_rate * entry.life:
                    doomed.append(row)
            for row in doomed:
                del self._entries[row]
            self.pruned += len(doomed)

    def on_activate(self, row: int, cycle: int) -> List[int]:
        self.stats.acts_observed += 1
        self._checkpoint(cycle)
        entry = self._entries.get(row)
        if entry is None:
            entry = _TwiceEntry()
            self._entries[row] = entry
            if len(self._entries) > self.max_entries_seen:
                self.max_entries_seen = len(self._entries)
        entry.act_count += 1
        if entry.act_count < self.arr_threshold:
            return []
        # ARR: refresh victims and retire the entry (count restarts).
        del self._entries[row]
        victims = [
            v for v in (row - 1, row + 1) if 0 <= v < self.rows_per_bank
        ]
        self.stats.preventive_refresh_rows += len(victims)
        return victims

    def table_entries(self) -> int:
        return self.max_entries_seen
