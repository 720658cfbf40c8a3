"""Section V-C: non-adjacent RowHammer (blast range > 1).

Within a blast range of 3 the aggregated RH effect is 3.5 (per
BlockHammer's characterization), so Mithril must keep
``M < FlipTH / 3.5`` and refresh six victim rows per preventive
refresh.  This experiment reports, per FlipTH:

* the table growth the tighter bound demands;
* a safety replay of double-sided and Half-Double-style attacks against
  the wider fault model (distance-2 disturbance with weight 0.25),
  with and without the range-aware configuration.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import min_entries_for
from repro.core.mithril import MithrilScheme
from repro.verify.adversary import many_sided_stream
from repro.verify.safety import run_safety_trace

#: distance weights: the aggregated effect over range 2 here is
#: 2 * (1.0 + 0.25) * ... — victims two rows out take quarter strength.
BLAST_WEIGHTS = (1.0, 0.25)
BLAST_MULTIPLIER = 3.5


def run(
    flip_thresholds: Sequence[int] = (12_500, 6_250, 3_125),
    rfm_th: int = 64,
    acts: int = 120_000,
    scale: float = 1.0,
) -> List[Dict]:
    rows = []
    for flip_th in flip_thresholds:
        adjacent_entries = min_entries_for(flip_th, rfm_th)
        wide_entries = min_entries_for(
            flip_th, rfm_th, blast_multiplier=BLAST_MULTIPLIER
        )
        row = {
            "flip_th": flip_th,
            "rfm_th": rfm_th,
            "adjacent_entries": adjacent_entries,
            "nonadjacent_entries": wide_entries,
            "entry_growth_pct": None,
            "narrow_scheme_max_disturbance": None,
            "wide_scheme_max_disturbance": None,
            "wide_scheme_flips": None,
        }
        if adjacent_entries and wide_entries:
            row["entry_growth_pct"] = round(
                100.0 * (wide_entries - adjacent_entries) / adjacent_entries,
                1,
            )
            replayed = int(acts * scale)
            # Narrow config + wide fault model: the blast range eats
            # the margin (may approach FlipTH under sustained attack).
            narrow = MithrilScheme(
                n_entries=adjacent_entries, rfm_th=rfm_th, blast_radius=1
            )
            narrow_report = run_safety_trace(
                narrow,
                many_sided_stream(17, replayed, spacing=4),
                flip_th,
                rfm_th=rfm_th,
                blast_weights=BLAST_WEIGHTS,
            )
            # Range-aware config: more entries AND 2-deep victim refresh.
            wide = MithrilScheme(
                n_entries=wide_entries, rfm_th=rfm_th, blast_radius=2
            )
            wide_report = run_safety_trace(
                wide,
                many_sided_stream(17, replayed, spacing=4),
                flip_th,
                rfm_th=rfm_th,
                blast_weights=BLAST_WEIGHTS,
            )
            row["narrow_scheme_max_disturbance"] = (
                narrow_report.max_disturbance
            )
            row["wide_scheme_max_disturbance"] = wide_report.max_disturbance
            row["wide_scheme_flips"] = len(wide_report.flips)
        rows.append(row)
    return rows


def print_rows(rows: List[Dict]) -> None:
    print(
        f"{'FlipTH':>7} {'Nentry(adj)':>12} {'Nentry(r3)':>11} "
        f"{'growth%':>8} {'narrow maxD':>12} {'wide maxD':>10}"
    )
    for row in rows:
        print(
            f"{row['flip_th']:>7} {row['adjacent_entries']:>12} "
            f"{row['nonadjacent_entries']:>11} "
            f"{row['entry_growth_pct']:>8} "
            f"{row['narrow_scheme_max_disturbance']:>12} "
            f"{row['wide_scheme_max_disturbance']:>10}"
        )
