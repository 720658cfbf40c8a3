"""Configuration search for Mithril: (Nentry, RFM_TH) pairs (Figure 6).

For a target FlipTH, each RFM_TH admits a minimum table size Nentry
such that ``M(Nentry, RFM_TH) < FlipTH / 2``.  Because M decreases in
Nentry while Nentry < W - 2 and increases afterwards, the search first
checks feasibility at the minimizing table size and then binary-searches
the decreasing region for the smallest safe table.

The module also derives the equivalent curve for a Lossy-Counting-based
tracker (the dotted lines of Figure 6): replacing CbS with Lossy
Counting adds the pruning slack ``epsilon * n`` to every estimate, and
the matching bound needs proportionally more entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.bounds import (
    adaptive_bound,
    estimated_growth_bound,
    rfm_intervals_per_window,
    wrapping_counter_bits,
)
from repro.params import DramTimings, DramOrganization


@dataclass(frozen=True)
class MithrilConfig:
    """A concrete, provably safe Mithril configuration."""

    flip_th: int
    rfm_th: int
    n_entries: int
    adaptive_th: int = 0
    bound: float = 0.0

    def table_bits(self, organization: Optional[DramOrganization] = None) -> int:
        """Total tracker bits per bank (address CAM + wrapping counter CAM)."""
        organization = organization or DramOrganization()
        addr_bits = max(1, math.ceil(math.log2(organization.rows_per_bank)))
        counter_bits = wrapping_counter_bits(self.rfm_th, self.n_entries)
        if self.adaptive_th:
            counter_bits = max(
                counter_bits,
                math.ceil(math.log2(self.adaptive_th + 2 * self.rfm_th + 1)) + 1,
            )
        return self.n_entries * (addr_bits + counter_bits)

    def table_kilobytes(
        self, organization: Optional[DramOrganization] = None
    ) -> float:
        return self.table_bits(organization) / 8.0 / 1024.0


def min_entries_for(
    flip_th: int,
    rfm_th: int,
    adaptive_th: int = 0,
    blast_multiplier: float = 2.0,
    timings: Optional[DramTimings] = None,
    max_entries: int = 1 << 20,
) -> Optional[int]:
    """Smallest Nentry with M < flip_th / blast_multiplier, or None.

    Returns ``None`` when no table size can protect the target FlipTH at
    this RFM_TH (the concentration effect of Figure 2: more entries only
    help until N approaches W).
    """
    if flip_th <= 0:
        raise ValueError(f"flip_th must be positive, got {flip_th}")
    target = flip_th / blast_multiplier

    def bound(n: int) -> float:
        return adaptive_bound(n, rfm_th, adaptive_th, timings)

    w = rfm_intervals_per_window(rfm_th, timings)
    # M is decreasing in n until roughly n = W; check the best achievable.
    n_best = min(max(w - 2, 1), max_entries)
    if bound(n_best) >= target:
        return None
    lo, hi = 1, n_best
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) < target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def configuration_curve(
    flip_th: int,
    rfm_th_values: Sequence[int] = (16, 32, 64, 128, 256, 512),
    adaptive_th: int = 0,
    timings: Optional[DramTimings] = None,
) -> List[MithrilConfig]:
    """The Figure-6 curve: one safe configuration per feasible RFM_TH."""
    configs = []
    for rfm_th in rfm_th_values:
        n = min_entries_for(flip_th, rfm_th, adaptive_th, timings=timings)
        if n is None:
            continue
        configs.append(
            MithrilConfig(
                flip_th=flip_th,
                rfm_th=rfm_th,
                n_entries=n,
                adaptive_th=adaptive_th,
                bound=adaptive_bound(n, rfm_th, adaptive_th, timings),
            )
        )
    return configs


# ----------------------------------------------------------------------
# Lossy-Counting comparison (dotted lines of Figure 6)
# ----------------------------------------------------------------------


def lossy_counting_bound(
    n_entries: int, rfm_th: int, timings: Optional[DramTimings] = None
) -> float:
    """Growth bound for an RFM scheme tracking with Lossy Counting.

    Lossy Counting with ``N`` entries over a stream of ``A`` items keeps
    every element whose count exceeds ``A / N`` (epsilon = 1/N), but its
    estimates carry up to ``A / N`` slack (the frozen delta).  Relative
    to CbS — whose slack is the table minimum, at most ``A / N`` too but
    *shared* across entries and reduced by every preventive refresh —
    the lossy tracker cannot discount refreshed rows below their delta,
    so the effective bound gains an extra additive ``A / N`` term where
    ``A = W * RFM_TH`` is the per-window ACT budget.
    """
    timings = timings or DramTimings()
    w = rfm_intervals_per_window(rfm_th, timings)
    base = estimated_growth_bound(n_entries, rfm_th, timings)
    return base + (w * rfm_th) / n_entries


def lossy_counting_entries(
    flip_th: int,
    rfm_th: int,
    timings: Optional[DramTimings] = None,
    blast_multiplier: float = 2.0,
    max_entries: int = 1 << 22,
) -> Optional[int]:
    """Smallest Lossy-Counting table protecting ``flip_th`` at ``rfm_th``."""
    target = flip_th / blast_multiplier

    def bound(n: int) -> float:
        return lossy_counting_bound(n, rfm_th, timings)

    lo, hi = 1, max_entries
    if bound(hi) >= target:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) < target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def paper_rfm_th(
    flip_th: int,
    adaptive_th: int = 0,
    timings: Optional[DramTimings] = None,
) -> Optional[int]:
    """Mithril's RFM_TH for a FlipTH: the paper's choice (Figure 9) at
    the evaluated FlipTH values, else the largest feasible power of two
    from 256 down to 8; None when none is feasible."""
    from repro.params import MITHRIL_DEFAULT_RFM_TH

    if flip_th in MITHRIL_DEFAULT_RFM_TH:
        return MITHRIL_DEFAULT_RFM_TH[flip_th]
    for candidate in (256, 128, 64, 32, 16, 8):
        if min_entries_for(flip_th, candidate, adaptive_th, timings=timings):
            return candidate
    return None


@functools.lru_cache(maxsize=256)
def paper_default_config(
    flip_th: int,
    adaptive_th: int = 0,
    timings: Optional[DramTimings] = None,
) -> MithrilConfig:
    """The paper's headline configuration for a FlipTH (Section VI-A).

    Memoized: the table-sizing search is a pure function of the
    arguments, and a sweep asks for each FlipTH once per point.
    """
    rfm_th = paper_rfm_th(flip_th, adaptive_th, timings)
    n = rfm_th and min_entries_for(
        flip_th, rfm_th, adaptive_th, timings=timings
    )
    if not n:
        raise ValueError(
            f"no feasible configuration for FlipTH={flip_th} (RFM_TH={rfm_th})"
        )
    return MithrilConfig(
        flip_th=flip_th,
        rfm_th=rfm_th,
        n_entries=n,
        adaptive_th=adaptive_th,
        bound=adaptive_bound(n, rfm_th, adaptive_th, timings),
    )
