"""Per-bank DRAM timing state machine.

Models the command-level timing that determines how much an RFM/ARR/REF
stall actually costs: row hits pay only the column access, row misses
pay PRE + ACT + column, refreshes block the bank for tRFC / tRFM, and
tFAW limits the activation rate across a rank.

All times are integer memory-clock cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.params import DramTimings


@dataclass(slots=True)
class BankServiceResult:
    """Outcome of serving one column access on a bank."""

    start_cycle: int        #: when the bank began working on the request
    data_cycle: int         #: when the data burst finished on the channel
    ready_cycle: int        #: when the bank can take the next command
    row_hit: bool
    activated: bool         #: an ACT was performed (row miss or closed row)
    precharged: bool        #: a PRE was performed before the ACT


class FawTracker:
    """Rolling four-activation-window limiter (per rank)."""

    def __init__(self, tfaw_cycles: int, window: int = 4):
        self.tfaw_cycles = tfaw_cycles
        self.window = window
        self._recent: Deque[int] = deque(maxlen=window)

    def earliest_act(self, cycle: int) -> int:
        if len(self._recent) < self.window:
            return cycle
        return max(cycle, self._recent[0] + self.tfaw_cycles)

    def record_act(self, cycle: int) -> None:
        self._recent.append(cycle)


class BankTimingModel:
    """Tracks one bank's open row and earliest-next-command time."""

    def __init__(self, timings: Optional[DramTimings] = None,
                 faw: Optional[FawTracker] = None):
        self.timings = timings or DramTimings()
        t = self.timings
        self._trp = t.trp_cycles
        self._trcd = t.trcd_cycles
        self._tcl = t.tcl_cycles
        self._tbl = t.tbl_cycles
        self._trc = t.trc_cycles
        self._tras = t.tras_cycles
        self.open_row: Optional[int] = None
        self.ready_cycle = 0          #: bank-free time
        self._last_act_cycle = -1 << 30
        self.faw = faw
        # statistics
        self.act_count = 0
        self.pre_count = 0
        self.access_count = 0
        self.refresh_blocks = 0

    # ------------------------------------------------------------------

    def serve_access(
        self,
        row: int,
        cycle: int,
        bus_free_cycle: int = 0,
        close_after: bool = False,
        act_not_before: int = 0,
    ) -> BankServiceResult:
        """Serve one RD/WR to ``row`` arriving at ``cycle``.

        ``bus_free_cycle`` is the earliest the channel data bus is free;
        ``act_not_before`` lets a throttling scheme delay the ACT.
        Returns the timing outcome; the caller updates bus bookkeeping
        with ``data_cycle``.
        """
        # if/else instead of max(): this runs once per served request
        # and the branches beat builtin calls by a measurable margin.
        ready = self.ready_cycle
        start = cycle if cycle > ready else ready
        activated = False
        precharged = False
        if self.open_row == row:
            row_hit = True
            column_issue = start
        else:
            row_hit = False
            if self.open_row is not None:
                # close the open row first
                earliest_pre = self._last_act_cycle + self._tras
                if earliest_pre > start:
                    start = earliest_pre
                start += self._trp
                precharged = True
                self.pre_count += 1
            act_cycle = start if start > act_not_before else act_not_before
            earliest_act = self._last_act_cycle + self._trc
            if earliest_act > act_cycle:
                act_cycle = earliest_act
            if self.faw is not None:
                act_cycle = self.faw.earliest_act(act_cycle)
                self.faw.record_act(act_cycle)
            self._last_act_cycle = act_cycle
            self.act_count += 1
            activated = True
            self.open_row = row
            column_issue = act_cycle + self._trcd
        data_start = column_issue + self._tcl
        if bus_free_cycle > data_start:
            data_start = bus_free_cycle
        data_cycle = data_start + self._tbl
        self.access_count += 1
        if close_after:
            pre_at = self._last_act_cycle + self._tras
            if column_issue > pre_at:
                pre_at = column_issue
            self.ready_cycle = pre_at + self._trp
            self.open_row = None
            self.pre_count += 1
            precharged = True
        else:
            self.ready_cycle = column_issue + self._tbl
        return BankServiceResult(
            start_cycle=start,
            data_cycle=data_cycle,
            ready_cycle=self.ready_cycle,
            row_hit=row_hit,
            activated=activated,
            precharged=precharged,
        )

    def block_for(self, cycle: int, duration_cycles: int) -> int:
        """Block the bank (REF/RFM/ARR); returns when it frees up.

        Any open row is precharged first (refresh requires a precharged
        bank), which is why frequent RFMs also cost row-buffer locality.
        """
        start = max(cycle, self.ready_cycle)
        if self.open_row is not None:
            start = max(start, self._last_act_cycle + self._tras) + self._trp
            self.open_row = None
            self.pre_count += 1
        self.ready_cycle = start + duration_cycles
        self.refresh_blocks += 1
        return self.ready_cycle

    def activate_only(self, row: int, cycle: int) -> int:
        """Perform a bare ACT (used by refresh-like internal operations)."""
        start = max(cycle, self.ready_cycle)
        if self.open_row is not None:
            start = max(start, self._last_act_cycle + self._tras) + self._trp
            self.pre_count += 1
        act_cycle = max(start, self._last_act_cycle + self._trc)
        self._last_act_cycle = act_cycle
        self.open_row = row
        self.act_count += 1
        self.ready_cycle = act_cycle + self._trcd
        return act_cycle
