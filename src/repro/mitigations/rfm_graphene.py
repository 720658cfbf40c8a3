"""RFM-Graphene: the naive threshold-buffered RFM adaptation (Fig. 2).

Section III-A's strawman: keep Graphene's CbS tracker, but instead of
issuing an ARR at the threshold (impossible on the RFM interface),
*buffer* the row and execute its preventive refresh at the next RFM
command — one buffered row per RFM.

This is vulnerable to victim concentration: up to
``acts_per_tREFW / threshold`` rows can cross the threshold almost
simultaneously, and the last one waits through ``queue_len * RFM_TH``
further ACTs before its victims get refreshed.  The safe FlipTH
therefore floors out regardless of how low the threshold is set:

    safe_FlipTH(T) = 2 * (T + floor(A / T) * RFM_TH),   A = ACTs/tREFW

minimized at ``T = sqrt(A * RFM_TH)`` — the saturation the paper's
Figure 2 shows, versus ARR-Graphene's ``safe_FlipTH = 4 * T`` line.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.params import DramTimings
from repro.protection import ARR_TRIGGER_DIVISOR, ProtectionScheme
from repro.streaming.cbs import CounterSummary
from repro.types import SchemeLocation


def arr_graphene_safe_flip_th(threshold: int) -> int:
    """Safe FlipTH of the original ARR-Graphene (linear in threshold).

    The ARR fires immediately at the threshold, so this inverts
    :func:`repro.protection.arr_trigger`: FlipTH = 4 * T is protected.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return ARR_TRIGGER_DIVISOR * threshold


def rfm_graphene_safe_flip_th(
    threshold: int,
    rfm_th: int,
    timings: Optional[DramTimings] = None,
) -> int:
    """Safe FlipTH of the buffered RFM adaptation (floors out)."""
    if threshold <= 0 or rfm_th <= 0:
        raise ValueError("threshold and rfm_th must be positive")
    timings = timings or DramTimings()
    acts = timings.acts_per_trefw()
    queue_len = acts // threshold
    return 2 * (threshold + queue_len * rfm_th)


def rfm_graphene_best_safe_flip_th(
    rfm_th: int, timings: Optional[DramTimings] = None
) -> int:
    """The floor: the best safe FlipTH over every possible threshold."""
    timings = timings or DramTimings()
    acts = timings.acts_per_trefw()
    best = None
    # The minimum sits near sqrt(acts * rfm_th); scan a window around it.
    center = max(1, int(math.sqrt(acts * rfm_th)))
    for threshold in range(max(1, center // 4), center * 4):
        value = rfm_graphene_safe_flip_th(threshold, rfm_th, timings)
        if best is None or value < best:
            best = value
    return best


class RfmGrapheneScheme(ProtectionScheme):
    """The strawman itself, for empirical demonstration of the weakness."""

    location = SchemeLocation.DRAM
    uses_rfm = True

    def __init__(
        self,
        threshold: int = 2000,
        n_entries: Optional[int] = None,
        rows_per_bank: int = 65536,
        timings: Optional[DramTimings] = None,
    ):
        super().__init__()
        timings = timings or DramTimings()
        self.threshold = threshold
        self.n_entries = n_entries or max(
            1, math.ceil(timings.acts_per_trefw() / threshold)
        )
        self.rows_per_bank = rows_per_bank
        self.table = CounterSummary(capacity=self.n_entries)
        self._pending: Deque[int] = deque()
        self._queued: Dict[int, bool] = {}
        self._next_trigger: Dict[int, int] = {}
        self.max_queue_depth = 0

    def on_activate(self, row: int, cycle: int) -> List[int]:
        self.stats.acts_observed += 1
        self.table.observe(row)
        estimate = self.table.estimate(row)
        trigger = self._next_trigger.get(row, self.threshold)
        if estimate >= trigger and not self._queued.get(row):
            self._pending.append(row)
            self._queued[row] = True
            self._next_trigger[row] = trigger + self.threshold
            if len(self._pending) > self.max_queue_depth:
                self.max_queue_depth = len(self._pending)
        return []

    def on_rfm(self, cycle: int) -> List[int]:
        self.stats.rfms_received += 1
        if not self._pending:
            return []
        row = self._pending.popleft()
        self._queued.pop(row, None)
        if row in self.table:
            self.table.demote_to_min(row)
            # Re-arm relative to the demoted counter, not the monotone
            # multiple — the victims were just refreshed, so the next
            # hazard is a further `threshold` ACTs away.
            self._next_trigger[row] = (
                self.table.estimate(row) + self.threshold
            )
        victims = [
            v for v in (row - 1, row + 1) if 0 <= v < self.rows_per_bank
        ]
        self.stats.preventive_refresh_rows += len(victims)
        return victims

    def table_entries(self) -> int:
        return self.n_entries
