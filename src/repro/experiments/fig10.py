"""Figure 10: RFM-interface-compatible scheme comparison.

Panels (a)-(c): relative performance of PARFM, BlockHammer, Mithril,
and Mithril+ under normal workloads, a multi-sided RowHammer attack,
and the BlockHammer-adversarial pattern, across FlipTH values.

Panel (d): dynamic-energy overhead on normal workloads.
Panel (e): table-size comparison (from the analytic area model).

The sweep is :func:`repro.experiments.runner.comparison_plan`, shared
with Figure 11; this driver adds the table size to each row.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.area import blockhammer_table_kb
from repro.core.config import MithrilConfig
from repro.engine import JobPlan, PlanResults
from repro.engine.catalog import DEFAULT_ATTACK_SEEDS as ATTACK_SEEDS
from repro.experiments.runner import comparison_plan, comparison_rows
from repro.params import PAPER_FLIP_THRESHOLDS
from repro.schemes import paper_config

DEFAULT_SCHEMES = ("parfm", "blockhammer", "mithril", "mithril+")

ATTACK_KINDS = ("multi-sided", "bh-adversarial")


def build_plan(
    flip_thresholds: Sequence[int] = PAPER_FLIP_THRESHOLDS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    scale: float = 1.0,
    attack_seeds: Sequence[int] = ATTACK_SEEDS,
) -> Tuple[JobPlan, Dict]:
    """(plan, context) for one sweep — jobs keyed for row assembly."""
    return comparison_plan(
        flip_thresholds, schemes, scale, attack_seeds, ATTACK_KINDS
    )


def rows(results: PlanResults, context: Dict) -> List[Dict]:
    """The comparison rows, each with its scheme's table size."""
    table = comparison_rows(results, context)
    for row in table:
        row["table_kb"] = _table_kb(row["scheme"], row["flip_th"])
    return table


def _table_kb(scheme_name: str, flip_th: int):
    if scheme_name == "blockhammer":
        return round(blockhammer_table_kb(flip_th), 3)
    if scheme_name in ("mithril", "mithril+"):
        params, _rfm_th = paper_config(scheme_name, flip_th)
        config = MithrilConfig(flip_th=flip_th, **params)
        return round(config.table_kilobytes(), 3)
    return 0.0  # PARFM holds no table


def print_rows(rows: List[Dict]) -> None:
    print(
        f"{'FlipTH':>7} {'scheme':>12} {'normal%':>8} {'multiRH%':>9} "
        f"{'BHadv%':>8} {'E-ovh%':>8} {'KB':>7}"
    )
    for row in rows:
        kb = row["table_kb"] if row["table_kb"] is not None else "-"
        print(
            f"{row['flip_th']:>7} {row['scheme']:>12} "
            f"{row['normal_rel_perf_pct']:>8} "
            f"{row['multi_sided_rel_perf_pct']:>9} "
            f"{row['bh_adversarial_rel_perf_pct']:>8} "
            f"{row['normal_energy_overhead_pct']:>8} {kb:>7}"
        )
