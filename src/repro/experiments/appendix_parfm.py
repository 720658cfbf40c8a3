"""Appendix C: PARFM failure probability and RFM_TH selection.

For each FlipTH, report the largest RFM_TH meeting the 1e-15 system
failure target (22 simultaneously attackable banks), the resulting
failure probability, and Mithril's RFM_TH at the same FlipTH for
comparison — the gap is the source of PARFM's extra energy (Fig 10(d)).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.parfm_failure import (
    parfm_rfm_th_for,
    parfm_system_failure_probability,
)
from repro.params import MITHRIL_DEFAULT_RFM_TH, PAPER_FLIP_THRESHOLDS


def run(
    flip_thresholds: Sequence[int] = PAPER_FLIP_THRESHOLDS,
    target: float = 1e-15,
    n_banks: int = 22,
) -> List[Dict]:
    rows = []
    for flip_th in flip_thresholds:
        rfm_th = parfm_rfm_th_for(flip_th, target=target, n_banks=n_banks)
        failure = (
            parfm_system_failure_probability(rfm_th, flip_th, n_banks)
            if rfm_th is not None
            else None
        )
        rows.append(
            {
                "flip_th": flip_th,
                "parfm_rfm_th": rfm_th,
                "system_failure_probability": failure,
                "mithril_rfm_th": MITHRIL_DEFAULT_RFM_TH.get(flip_th),
            }
        )
    return rows


def print_rows(rows: List[Dict]) -> None:
    print(f"{'FlipTH':>8} {'PARFM RFM_TH':>13} {'failure':>12} "
          f"{'Mithril RFM_TH':>15}")
    for row in rows:
        failure = row["system_failure_probability"]
        print(
            f"{row['flip_th']:>8} {row['parfm_rfm_th']:>13} "
            f"{failure:>12.2e} {row['mithril_rfm_th']:>15}"
        )
