"""Figure 6: (Nentry, RFM_TH) configuration space per FlipTH.

For each FlipTH (1.5K..50K), sweep RFM_TH and report the minimum table
size (in KB, as the paper plots) satisfying Theorem 1, plus the
Lossy-Counting equivalents for 25K and 50K (the dotted lines).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import (
    MithrilConfig,
    lossy_counting_entries,
    min_entries_for,
)
from repro.params import PAPER_FLIP_THRESHOLDS

DEFAULT_RFM_THS = (16, 32, 64, 128, 256, 512)


def run(
    flip_thresholds=PAPER_FLIP_THRESHOLDS,
    rfm_th_values=DEFAULT_RFM_THS,
) -> List[Dict]:
    rows = []
    for flip_th in flip_thresholds:
        for rfm_th in rfm_th_values:
            n = min_entries_for(flip_th, rfm_th)
            entry = {
                "flip_th": flip_th,
                "rfm_th": rfm_th,
                "algorithm": "cbs",
                "n_entries": n,
                "table_kb": None,
            }
            if n is not None:
                config = MithrilConfig(
                    flip_th=flip_th, rfm_th=rfm_th, n_entries=n
                )
                entry["table_kb"] = round(config.table_kilobytes(), 4)
            rows.append(entry)
    # Lossy-Counting comparison at the two highest FlipTH values.
    for flip_th in (50_000, 25_000):
        for rfm_th in rfm_th_values:
            n = lossy_counting_entries(flip_th, rfm_th)
            entry = {
                "flip_th": flip_th,
                "rfm_th": rfm_th,
                "algorithm": "lossy-counting",
                "n_entries": n,
                "table_kb": None,
            }
            if n is not None:
                # same per-entry cost model as the CbS table
                config = MithrilConfig(
                    flip_th=flip_th, rfm_th=rfm_th, n_entries=n
                )
                entry["table_kb"] = round(config.table_kilobytes(), 4)
            rows.append(entry)
    return rows


def print_rows(rows: List[Dict]) -> None:
    print(f"{'FlipTH':>8} {'RFM_TH':>7} {'algo':>15} {'Nentry':>8} {'KB':>9}")
    for row in rows:
        n = row["n_entries"] if row["n_entries"] is not None else "-"
        kb = row["table_kb"] if row["table_kb"] is not None else "-"
        print(
            f"{row['flip_th']:>8} {row['rfm_th']:>7} {row['algorithm']:>15} "
            f"{n:>8} {kb:>9}"
        )
