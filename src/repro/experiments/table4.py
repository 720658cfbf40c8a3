"""Table IV: per-bank tracker table sizes in KB for every scheme."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.area import table_size_comparison
from repro.params import PAPER_FLIP_THRESHOLDS


def run(
    flip_thresholds: Sequence[int] = PAPER_FLIP_THRESHOLDS,
) -> Dict[str, Dict[int, float]]:
    return table_size_comparison(flip_thresholds)


def print_rows(table: Dict[str, Dict[int, float]]) -> None:
    thresholds = sorted(next(iter(table.values())), reverse=True)
    header = f"{'Scheme':<24}" + "".join(f"{t:>9}" for t in thresholds)
    print(header)
    for scheme, row in table.items():
        cells = "".join(
            f"{(row[t] if row[t] is not None else '-'):>9}"
            for t in thresholds
        )
        print(f"{scheme:<24}{cells}")
