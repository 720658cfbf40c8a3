"""Figure 10: RFM-interface-compatible scheme comparison.

Panels (a)-(c): relative performance of PARFM, BlockHammer, Mithril,
and Mithril+ under normal workloads, a multi-sided RowHammer attack,
and the BlockHammer-adversarial pattern, across FlipTH values.

Panel (d): dynamic-energy overhead on normal workloads.
Panel (e): table-size comparison (from the analytic area model).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.area import blockhammer_table_kb
from repro.analysis.energy import energy_overhead_percent
from repro.core.config import MithrilConfig
from repro.engine import (
    JobPlan,
    SimJob,
    attack_workload_spec,
    normal_workload_specs,
)
from repro.engine.catalog import DEFAULT_ATTACK_SEEDS as ATTACK_SEEDS
from repro.experiments.runner import geo_mean
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
    benign_specs = normal_workload_specs(scale)

    plan = JobPlan()
    for name, spec in benign_specs.items():
        plan.add(("benign-base", name), SimJob(workload=spec))
    for flip_th in flip_thresholds:
        attack_specs = {
            (kind, seed): attack_workload_spec(
                kind, scale, flip_th=flip_th, seed=seed
            )
            for kind in ATTACK_KINDS
            for seed in attack_seeds
        }
        for (kind, seed), spec in attack_specs.items():
            plan.add(
                ("attack-base", flip_th, kind, seed),
                SimJob(workload=spec, flip_th=flip_th),
            )
        for scheme in schemes:
            for name, spec in benign_specs.items():
                plan.add(
                    ("benign", flip_th, scheme, name),
                    SimJob(
                        workload=spec, scheme=scheme, flip_th=flip_th,
                        scale=scale,
                    ),
                )
            for (kind, seed), spec in attack_specs.items():
                plan.add(
                    ("attack", flip_th, scheme, kind, seed),
                    SimJob(
                        workload=spec, scheme=scheme, flip_th=flip_th,
                        scale=scale,
                    ),
                )
    return plan, {"benign_specs": benign_specs}


def plan_jobs(**kwargs) -> List[SimJob]:
    """The sweep's job list (campaign planner export)."""
    return build_plan(**kwargs)[0].jobs


def run(
    flip_thresholds: Sequence[int] = PAPER_FLIP_THRESHOLDS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    scale: float = 1.0,
    attack_seeds: Sequence[int] = ATTACK_SEEDS,
    n_jobs: int = 1,
    use_cache: bool = True,
) -> List[Dict]:
    plan, context = build_plan(flip_thresholds, schemes, scale, attack_seeds)
    res = plan.run(n_jobs=n_jobs, use_cache=use_cache)

    benign_specs = context["benign_specs"]
    rows = []
    for flip_th in flip_thresholds:
        for scheme in schemes:
            rels = []
            energies = []
            for name in benign_specs:
                result = res[("benign", flip_th, scheme, name)]
                baseline = res[("benign-base", name)]
                rels.append(result.relative_performance(baseline))
                energies.append(
                    max(energy_overhead_percent(result, baseline), 1e-6)
                )
            attack_rel = {}
            for kind in ATTACK_KINDS:
                values = [
                    res[("attack", flip_th, scheme, kind, seed)]
                    .relative_performance(
                        res[("attack-base", flip_th, kind, seed)]
                    )
                    for seed in attack_seeds
                ]
                attack_rel[kind] = round(sum(values) / len(values), 3)
            rows.append(
                {
                    "flip_th": flip_th,
                    "scheme": scheme,
                    "normal_rel_perf_pct": round(geo_mean(rels), 3),
                    "multi_sided_rel_perf_pct": attack_rel["multi-sided"],
                    "bh_adversarial_rel_perf_pct": attack_rel[
                        "bh-adversarial"
                    ],
                    "normal_energy_overhead_pct": round(geo_mean(energies), 4),
                    "table_kb": _table_kb(scheme, flip_th),
                }
            )
    return rows


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
