"""Figure 11: comparison with RFM-non-compatible schemes.

PARA, CBT, TWiCe, Graphene vs Mithril and Mithril+: relative
performance on normal workloads and under the multi-sided attack, plus
dynamic-energy overhead on normal workloads.

``extra_workloads`` names additional catalog kinds — typically the
trace-foundry stress families — evaluated as extra per-workload
panels: each kind gets its own unprotected baseline and, per
(FlipTH, scheme), a relative-performance/energy row tagged
``"panel": <kind>``.

The sweep is :func:`repro.experiments.runner.comparison_plan`, shared
with Figure 10; campaign planners expand it through :func:`build_plan`
(docs/CAMPAIGNS.md), and :func:`rows` is the shared
:func:`~repro.experiments.runner.comparison_rows` unchanged.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Sequence, Tuple

from repro.analysis.report import split_panels
from repro.engine import JobPlan
from repro.engine.catalog import DEFAULT_ATTACK_SEEDS as ATTACK_SEEDS
from repro.experiments.runner import comparison_plan, comparison_rows
from repro.params import PAPER_FLIP_THRESHOLDS

DEFAULT_SCHEMES = ("para", "cbt", "twice", "graphene", "mithril", "mithril+")

ATTACK_KINDS = ("multi-sided",)


def build_plan(
    flip_thresholds: Sequence[int] = PAPER_FLIP_THRESHOLDS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    scale: float = 1.0,
    attack_seeds: Sequence[int] = ATTACK_SEEDS,
    extra_workloads: Sequence[str] = (),
) -> Tuple[JobPlan, Dict]:
    """(plan, context) for one sweep — jobs keyed for row assembly."""
    return comparison_plan(
        flip_thresholds, schemes, scale, attack_seeds, ATTACK_KINDS,
        extra_workloads,
    )


#: The comparison rows are this figure's rows as they are.
rows = comparison_rows


def print_rows(rows: List[Dict]) -> None:
    print(
        f"{'FlipTH':>7} {'scheme':>10} {'normal%':>9} {'multiRH%':>9} "
        f"{'E-ovh%':>8}"
    )
    main, panels = split_panels(rows)
    for row in main:
        print(
            f"{row['flip_th']:>7} {row['scheme']:>10} "
            f"{row['normal_rel_perf_pct']:>9} "
            f"{row['multi_sided_rel_perf_pct']:>9} "
            f"{row['normal_energy_overhead_pct']:>8}"
        )
    if panels:
        print()
        print(
            f"{'panel':<26} {'FlipTH':>7} {'scheme':>10} {'perf%':>8} "
            f"{'E-ovh%':>8}"
        )
        for row in chain.from_iterable(panels.values()):
            print(
                f"{row['panel']:<26} {row['flip_th']:>7} "
                f"{row['scheme']:>10} {row['rel_perf_pct']:>8} "
                f"{row['energy_overhead_pct']:>8}"
            )
