"""Direct empirical validation of Theorem 1 / Theorem 2.

The theorems bound the *estimated-count growth* of any single row
within a tREFW window.  This harness replays an ACT stream against a
Mithril scheme with the real RFM cadence, samples every tracked row's
estimate, and reports the maximum growth observed inside any window of
``W * RFM_TH`` ACTs — directly comparable against
:func:`repro.core.bounds.estimated_growth_bound`.

This is a stronger check than the disturbance-based safety replay: it
validates the exact quantity the proof bounds, not just its corollary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.mithril import MithrilScheme
from repro.mc.rfm import RfmIssueLogic
from repro.params import DramTimings


@dataclass
class GrowthReport:
    """Outcome of one estimate-growth measurement."""

    n_entries: int
    rfm_th: int
    adaptive_th: int
    window_acts: int
    acts_replayed: int
    max_growth: float
    max_growth_row: Optional[int]
    theorem_bound: float

    @property
    def within_bound(self) -> bool:
        return self.max_growth <= self.theorem_bound

    @property
    def tightness(self) -> float:
        """Measured growth as a fraction of the bound (1.0 = tight)."""
        if self.theorem_bound == 0:
            return 0.0
        return self.max_growth / self.theorem_bound


def measure_estimate_growth(
    scheme: MithrilScheme,
    act_stream: Iterable[int],
    window_acts: Optional[int] = None,
    timings: Optional[DramTimings] = None,
    max_acts: int = 500_000,
) -> GrowthReport:
    """Replay ``act_stream``, tracking per-row estimate growth.

    ``window_acts`` defaults to the number of ACTs in one tREFW at the
    maximum rate — the window Theorem 1 speaks about.  For shorter
    replays the effective window is the replay length, and the bound is
    recomputed for the matching number of RFM intervals.
    """
    timings = timings or DramTimings()
    rfm_th = scheme.rfm_th
    if window_acts is None:
        window_acts = min(max_acts, timings.acts_per_trefw())
    rfm_logic = RfmIssueLogic(rfm_th)
    # Sliding minimum of each row's estimate over the window: track the
    # estimate at window start via a deque of (act_index, row, estimate)
    # snapshots.  Since estimates only move at ACT/RFM events touching
    # few rows, we keep per-row history lazily.
    history: Dict[int, deque] = {}
    max_growth = 0.0
    max_growth_row: Optional[int] = None
    acts = 0
    for row in act_stream:
        if acts >= max_acts:
            break
        acts += 1
        scheme.on_activate(row, cycle=acts)
        estimate = scheme.table.estimate(row)
        entry = history.setdefault(row, deque())
        entry.append((acts, estimate))
        while entry and entry[0][0] < acts - window_acts:
            entry.popleft()
        growth = estimate - entry[0][1]
        if growth > max_growth:
            max_growth = growth
            max_growth_row = row
        if rfm_logic.on_activate(flag_reader=scheme.rfm_needed_flag):
            refreshed = scheme.table.greedy_select()
            scheme.on_rfm(cycle=acts)
            if refreshed is not None:
                # Record the post-demotion estimate as a new baseline.
                refreshed_row = refreshed[0]
                hist = history.setdefault(refreshed_row, deque())
                hist.append(
                    (acts, scheme.table.estimate(refreshed_row))
                )
    intervals = max(1, min(acts, window_acts) // max(1, rfm_th))
    bound = _bound_for_intervals(
        scheme.table.n_entries, rfm_th, scheme.adaptive_th, intervals
    )
    return GrowthReport(
        n_entries=scheme.table.n_entries,
        rfm_th=rfm_th,
        adaptive_th=scheme.adaptive_th,
        window_acts=window_acts,
        acts_replayed=acts,
        max_growth=max_growth,
        max_growth_row=max_growth_row,
        theorem_bound=bound,
    )


def _bound_for_intervals(
    n_entries: int, rfm_th: int, adaptive_th: int, intervals: int
) -> float:
    """Theorem 1/2 with W replaced by the replay's interval count."""
    from repro.core.bounds import harmonic

    n = n_entries
    w = intervals
    if adaptive_th:
        import math

        n_star = max(
            1, min(n, math.ceil(n * rfm_th / (rfm_th + adaptive_th)))
        )
        bound = rfm_th * harmonic(min(n_star, w))
        bound += (
            (max(w - n_star, 0) + max(n - 2, 0)) * rfm_th
            + (n - n_star) * adaptive_th
        ) / n
        return bound
    bound = rfm_th * harmonic(min(n, w))
    bound += rfm_th * max(w - n, 0) / n
    bound += rfm_th * max(n - 2, 0) / n
    return bound
