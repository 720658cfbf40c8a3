"""Figure 2: ineffectiveness of RFM-Graphene vs the original ARR-Graphene.

For predefined thresholds from 8K down to 0.25K (the paper's x-axis is
the inverse threshold), compute the safe FlipTH of:

* ARR-Graphene — linear in the threshold;
* RFM-Graphene (RFM_TH = 64) — floors out due to victim concentration.

An optional empirical column replays the feinting adversary against the
actual RfmGrapheneScheme to confirm that victims accumulate far more
disturbance than under ARR semantics.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mitigations.rfm_graphene import (
    RfmGrapheneScheme,
    arr_graphene_safe_flip_th,
    rfm_graphene_safe_flip_th,
)
from repro.verify.adversary import feinting_stream
from repro.verify.safety import run_safety_trace

DEFAULT_THRESHOLDS = (8_000, 4_000, 2_000, 1_000, 500, 250)


def run(
    thresholds=DEFAULT_THRESHOLDS,
    rfm_th: int = 64,
    empirical: bool = False,
    scale: float = 1.0,
) -> List[Dict]:
    """One row per predefined threshold."""
    rows = []
    for threshold in thresholds:
        row = {
            "predefined_threshold": threshold,
            "arr_graphene_safe_flip_th": arr_graphene_safe_flip_th(threshold),
            "rfm_graphene_safe_flip_th": rfm_graphene_safe_flip_th(
                threshold, rfm_th
            ),
        }
        if empirical:
            row["empirical_max_disturbance"] = _empirical_disturbance(
                threshold, rfm_th, scale
            )
        rows.append(row)
    return rows


def _empirical_disturbance(
    threshold: int, rfm_th: int, scale: float
) -> float:
    """Replay the concentration adversary against the real scheme."""
    scheme = RfmGrapheneScheme(threshold=threshold, n_entries=4096)
    num_rows = min(200, max(16, 120_000 // threshold))
    stream = feinting_stream(
        num_rows, max(1, threshold // 4), rounds=int(20 * scale) + 4
    )
    report = run_safety_trace(
        scheme,
        stream,
        flip_th=1 << 30,  # just measure; don't clip at flips
        rfm_th=rfm_th,
        max_acts=int(400_000 * scale),
    )
    return report.max_disturbance


def print_rows(rows: List[Dict]) -> None:
    header = f"{'threshold':>10} {'ARR-Graphene':>14} {'RFM-Graphene':>14}"
    print(header)
    for row in rows:
        print(
            f"{row['predefined_threshold']:>10} "
            f"{row['arr_graphene_safe_flip_th']:>14} "
            f"{row['rfm_graphene_safe_flip_th']:>14}"
        )
