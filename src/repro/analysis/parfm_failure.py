"""PARFM failure probability (Appendix C of the paper).

The worst-case attacker activates RFM_TH distinct rows once per RFM
interval (the cost-effectiveness argument of Equation (5)).  A single
row fails when it accumulates FlipTH/2 ACTs (= FlipTH/2 intervals at
one ACT per interval) without ever being the sampled row.

The paper's recurrence for the single-row failure probability at the
i-th RFM command (R = RFM_TH, F = FlipTH):

    P[i] = P[i-1] + (1/R) * (1 - 1/R)^(F/2) * (1 - P[i - F/2 - 1])
    P[i] = 0                          for 0 <= i <= F/2 - 1
    P[F/2] = (1 - 1/R)^(F/2)

Bank failure is upper-bounded by R * Fail(1); the system failure with
``n_banks`` simultaneously attackable banks is 1 - (1 - bank)^n_banks.
:func:`parfm_rfm_th_for` finds the largest RFM_TH meeting a target.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from repro.params import DramTimings


def _single_row_failure(rfm_th: int, flip_th: int, intervals: int) -> float:
    """Fail(1): recurrence over ``intervals`` RFM commands.

    The paper's recurrence assumes the attacker's most cost-effective
    pattern of one ACT per RFM interval (Equation (5)), which needs
    FlipTH/2 intervals.  When fewer intervals fit in tREFW the attacker
    must spend ``j = ceil((FlipTH/2) / W)`` ACTs per interval, raising
    its per-interval selection probability to ``j / RFM_TH`` — the
    generalized recurrence below covers both regimes.
    """
    half = flip_th // 2
    acts_per_interval = max(1, math.ceil(half / max(1, intervals)))
    if acts_per_interval >= rfm_th:
        return 0.0  # the row is certain to be sampled every interval
    streak = math.ceil(half / acts_per_interval)
    if intervals < streak:
        return 0.0
    select_p = acts_per_interval / rfm_th
    survive = (1.0 - select_p) ** streak
    p = [0.0] * (intervals + 1)
    p[streak] = survive
    step = select_p * survive
    for i in range(streak + 1, intervals + 1):
        p[i] = p[i - 1] + step * (1.0 - p[i - streak - 1])
    return min(1.0, p[intervals])


def parfm_bank_failure_probability(
    rfm_th: int,
    flip_th: int,
    timings: Optional[DramTimings] = None,
) -> float:
    """Upper bound on one bank's failure probability within tREFW."""
    if rfm_th <= 1:
        raise ValueError(f"rfm_th must be > 1, got {rfm_th}")
    if flip_th <= 2:
        raise ValueError(f"flip_th must be > 2, got {flip_th}")
    timings = timings or DramTimings()
    intervals = timings.rfm_intervals_per_trefw(rfm_th)
    fail_one = _single_row_failure(rfm_th, flip_th, intervals)
    # First (dominant) inclusion-exclusion term: RFM_TH choose 1 rows.
    return min(1.0, rfm_th * fail_one)


def parfm_system_failure_probability(
    rfm_th: int,
    flip_th: int,
    n_banks: int = 22,
    timings: Optional[DramTimings] = None,
) -> float:
    """System failure with ``n_banks`` simultaneously attackable banks.

    22 is the paper's count of banks activatable under tFAW in its
    2-rank, 64-bank system.
    """
    bank = parfm_bank_failure_probability(rfm_th, flip_th, timings)
    if bank >= 1.0:
        return 1.0
    if bank < 1e-8:
        # Union bound, exact to first order and conservative; avoids
        # the catastrophic cancellation of 1 - (1 - p)^n for tiny p.
        return n_banks * bank
    return 1.0 - (1.0 - bank) ** n_banks


@functools.lru_cache(maxsize=256)
def parfm_rfm_th_for(
    flip_th: int,
    target: float = 1e-15,
    n_banks: int = 22,
    timings: Optional[DramTimings] = None,
    max_rfm_th: int = 1024,
) -> Optional[int]:
    """Largest RFM_TH whose system failure probability stays below target.

    Returns None when even RFM_TH = 2 cannot meet the target.  A pure
    function of its arguments, memoized: every point of a FlipTH sweep
    asks for the same few values.
    """
    best = None
    lo, hi = 2, max_rfm_th
    while lo <= hi:
        mid = (lo + hi) // 2
        failure = parfm_system_failure_probability(
            mid, flip_th, n_banks, timings
        )
        if failure < target:
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best
