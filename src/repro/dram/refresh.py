"""Auto-refresh engine.

Every tREFI, one refresh group (rows_per_bank / refresh_groups rows) of
each bank is restored and the bank is blocked for tRFC.  Over one
tREFW, every row is refreshed exactly once — the property the RowHammer
guarantee leans on (a victim's disturbance counter restarts at most
tREFW apart even with no protection scheme at all).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.params import DramOrganization, DramTimings


class AutoRefreshEngine:
    """Schedules per-bank auto-refresh ticks on a cycle timeline."""

    def __init__(
        self,
        timings: Optional[DramTimings] = None,
        organization: Optional[DramOrganization] = None,
        start_cycle: int = 0,
    ):
        self.timings = timings or DramTimings()
        self.organization = organization or DramOrganization()
        self.trefi_cycles = self.timings.trefi_cycles
        self.trfc_cycles = self.timings.trfc_cycles
        self.rows_per_group = self.organization.rows_per_refresh_group
        self.num_groups = self.organization.refresh_groups
        self._next_tick = start_cycle + self.trefi_cycles
        self._group_cursor = 0
        self.ticks_processed = 0

    def due(self, cycle: int) -> bool:
        return cycle >= self._next_tick

    def pending_ticks(self, cycle: int) -> int:
        """How many refresh ticks are due at or before ``cycle``."""
        if cycle < self._next_tick:
            return 0
        return 1 + (cycle - self._next_tick) // self.trefi_cycles

    def pop_tick(self, cycle: int) -> Optional[Tuple[int, int, int]]:
        """Consume one due tick; returns (tick_cycle, first_row, last_row).

        Returns None when no tick is due yet.  The caller blocks the
        bank for tRFC at ``tick_cycle`` and clears the rows' hammer
        disturbance.
        """
        if cycle < self._next_tick:
            return None
        tick_cycle = self._next_tick
        first_row = self._group_cursor * self.rows_per_group
        last_row = first_row + self.rows_per_group - 1
        self._group_cursor = (self._group_cursor + 1) % self.num_groups
        self._next_tick += self.trefi_cycles
        self.ticks_processed += 1
        return tick_cycle, first_row, last_row

    def drain_due(self, cycle: int) -> List[Tuple[int, int, int]]:
        """Consume every tick due at or before ``cycle``."""
        ticks = []
        while True:
            tick = self.pop_tick(cycle)
            if tick is None:
                return ticks
            ticks.append(tick)

    @property
    def next_tick_cycle(self) -> int:
        return self._next_tick
