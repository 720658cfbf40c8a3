"""Graphene (Park et al., MICRO 2020): CbS tracker + threshold ARR.

The MC-side Counter-based-Summary table triggers an adjacent-row
refresh whenever a row's estimated count crosses a multiple of the
predefined threshold.  The table resets periodically, which is why the
threshold must be FlipTH/4 rather than FlipTH/2 (an aggressor's ACTs
may straddle the reset) — the two-fold degradation Mithril's wrapping
counters avoid (Section IV-E).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.params import DramTimings
from repro.protection import ProtectionScheme, arr_trigger
from repro.streaming.cbs import CounterSummary
from repro.types import SchemeLocation


def graphene_entries(
    flip_th: int, timings: Optional[DramTimings] = None
) -> int:
    """Table size: enough entries that no row can reach the threshold
    untracked within one reset window (tREFW/2)."""
    timings = timings or DramTimings()
    acts_per_window = timings.acts_per_trefw() // 2
    return max(1, math.ceil(acts_per_window / arr_trigger(flip_th)))


class GrapheneScheme(ProtectionScheme):
    """MC-side deterministic ARR scheme with periodic table reset."""

    location = SchemeLocation.MC
    uses_rfm = False

    def __init__(
        self,
        flip_th: int = 10_000,
        rows_per_bank: int = 65536,
        timings: Optional[DramTimings] = None,
        n_entries: Optional[int] = None,
        reset_interval_cycles: Optional[int] = None,
    ):
        super().__init__()
        timings = timings or DramTimings()
        self.flip_th = flip_th
        self.threshold = arr_trigger(flip_th)
        self.n_entries = n_entries or graphene_entries(flip_th, timings)
        self.rows_per_bank = rows_per_bank
        self.reset_interval_cycles = (
            reset_interval_cycles
            if reset_interval_cycles is not None
            else timings.trefw_cycles // 2
        )
        self.table = CounterSummary(capacity=self.n_entries)
        self._next_trigger: Dict[int, int] = {}
        self._next_reset = self.reset_interval_cycles
        self.resets = 0

    def _maybe_reset(self, cycle: int) -> None:
        if cycle < self._next_reset:
            return
        self.table.reset()
        self._next_trigger.clear()
        self.resets += 1
        while self._next_reset <= cycle:
            self._next_reset += self.reset_interval_cycles

    def on_activate(self, row: int, cycle: int) -> List[int]:
        self.stats.acts_observed += 1
        self._maybe_reset(cycle)
        self.table.observe(row)
        estimate = self.table.estimate(row)
        trigger = self._next_trigger.get(row, self.threshold)
        if estimate < trigger:
            return []
        self._next_trigger[row] = trigger + self.threshold
        victims = [
            v for v in (row - 1, row + 1) if 0 <= v < self.rows_per_bank
        ]
        self.stats.preventive_refresh_rows += len(victims)
        return victims

    def table_entries(self) -> int:
        return self.n_entries
