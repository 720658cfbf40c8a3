"""Simulation results, derived metrics, and histogram utilities.

The histogram/percentile helpers at the bottom back the probe layer
(:mod:`repro.sim.probes`) and its report renderer: they are exact,
deterministic, and pure python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.types import EnergyCounts


@dataclass
class SimulationResult:
    """Everything a run produces; the benches derive their rows from this."""

    scheme_name: str
    total_cycles: int
    per_core_instructions: List[int]
    per_core_finish_cycles: List[int]
    energy: EnergyCounts
    flips: int = 0
    max_disturbance: float = 0.0
    acts: int = 0
    row_hits: int = 0
    row_misses: int = 0
    rfm_commands: int = 0
    rfm_elided: int = 0
    rfms_skipped: int = 0
    arr_requests: int = 0
    preventive_refresh_rows: int = 0
    arr_stall_cycles: int = 0
    rfm_stall_cycles: int = 0
    refresh_stall_cycles: int = 0
    throttle_events: int = 0

    @property
    def aggregate_ipc(self) -> float:
        """Sum of per-core IPCs (the paper's performance metric)."""
        total = 0.0
        for instructions, finish in zip(
            self.per_core_instructions, self.per_core_finish_cycles
        ):
            if finish > 0:
                total += instructions / finish
        return total

    @property
    def row_hit_rate(self) -> float:
        accesses = self.row_hits + self.row_misses
        return self.row_hits / accesses if accesses else 0.0

    def relative_performance(self, baseline: "SimulationResult") -> float:
        """Aggregate IPC normalized to an unprotected baseline (in %)."""
        base = baseline.aggregate_ipc
        if base == 0:
            return 0.0
        return 100.0 * self.aggregate_ipc / base

    def summary(self) -> Dict[str, float]:
        return {
            "scheme": self.scheme_name,
            "cycles": self.total_cycles,
            "aggregate_ipc": round(self.aggregate_ipc, 4),
            "acts": self.acts,
            "row_hit_rate": round(self.row_hit_rate, 4),
            "rfm_commands": self.rfm_commands,
            "rfm_elided": self.rfm_elided,
            "rfms_skipped": self.rfms_skipped,
            "arr_requests": self.arr_requests,
            "preventive_refresh_rows": self.preventive_refresh_rows,
            "flips": self.flips,
            "max_disturbance": self.max_disturbance,
        }


# ----------------------------------------------------------------------
# histogram / percentile utilities (probe layer + reports)
# ----------------------------------------------------------------------

#: default bucket count for the power-of-two histograms below; bucket 0
#: holds value 0, bucket i holds [2**(i-1), 2**i), the last bucket is
#: open-ended.
POW2_BUCKETS = 20


def pow2_bucket(value: int, buckets: int = POW2_BUCKETS) -> int:
    """Bucket index of ``value`` in a power-of-two histogram."""
    if value <= 0:
        return 0
    index = int(value).bit_length()
    return index if index < buckets else buckets - 1


def pow2_bucket_bounds(index: int, buckets: int = POW2_BUCKETS) -> Tuple[int, Optional[int]]:
    """``[lower, upper)`` of a bucket; the last bucket has ``upper=None``."""
    if index <= 0:
        return (0, 1)
    if index >= buckets - 1:
        return (1 << (buckets - 2), None)
    return (1 << (index - 1), 1 << index)


def merge_counts(histograms: Sequence[Sequence[int]]) -> List[int]:
    """Element-wise sum of equal-length bucket-count vectors."""
    histograms = [h for h in histograms if h]
    if not histograms:
        return []
    merged = [0] * max(len(h) for h in histograms)
    for counts in histograms:
        for index, count in enumerate(counts):
            merged[index] += count
    return merged


def exact_percentile(values: Sequence[float], q: float):
    """Nearest-rank percentile: the smallest value with at least
    ``ceil(q/100 * n)`` values at or below it.  ``q`` in (0, 100]."""
    if not values:
        return None
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def percentile_from_counts(counts: Sequence[int], q: float) -> Optional[int]:
    """Nearest-rank percentile over bucketed data: the index of the
    bucket containing the rank-th sample.  ``None`` for empty data."""
    total = sum(counts)
    if total == 0:
        return None
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * total)
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank:
            return index
    return len(counts) - 1


def percentile_summary(values: Sequence[float]) -> Dict[str, float]:
    """count/min/max/mean plus the p50/p95/p99 panel the reports use."""
    values = list(values)
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
        "p50": exact_percentile(values, 50),
        "p95": exact_percentile(values, 95),
        "p99": exact_percentile(values, 99),
    }
