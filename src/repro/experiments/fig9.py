"""Figure 9: Mithril vs Mithril+ performance/area trade-off.

For each (FlipTH, RFM_TH) pair of the paper's sweep, report the
relative performance (geomean over the benign suite) of Mithril and
Mithril+ and the table size.

``extra_workloads`` names additional catalog kinds — typically the
trace-foundry stress families — evaluated as extra per-workload panels
alongside the benign geomean: each family gets its own unprotected
baseline and a per-(FlipTH, RFM_TH) relative-performance row tagged
``"panel": <kind>``.

Like every simulation-bound driver, it is a :func:`build_plan` that
campaign planners expand and deduplicate without running it
(docs/CAMPAIGNS.md), plus :func:`rows`, which reduces the plan's
results to the figure's rows.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Sequence, Tuple

from repro.analysis.report import split_panels
from repro.core.config import MithrilConfig, min_entries_for
from repro.engine import (
    JobPlan, PlanResults, SimJob, WorkloadSpec, normal_workload_specs,
)
from repro.experiments.runner import geo_mean
from repro.params import DEFAULT_ADAPTIVE_THRESHOLD

#: The paper's x-axis: (FlipTH, RFM_TH) pairs from Figure 9.
DEFAULT_SWEEP = (
    (12_500, 512),
    (12_500, 256),
    (12_500, 128),
    (6_250, 256),
    (6_250, 128),
    (6_250, 64),
    (3_125, 128),
    (3_125, 64),
    (3_125, 32),
    (1_500, 32),
)


def build_plan(
    sweep: Sequence[Tuple[int, int]] = DEFAULT_SWEEP,
    adaptive_th: int = DEFAULT_ADAPTIVE_THRESHOLD,
    scale: float = 1.0,
    extra_workloads: Sequence[str] = (),
) -> Tuple[JobPlan, Dict]:
    """(plan, context) for one sweep — jobs keyed for row assembly."""
    specs = normal_workload_specs(scale)
    extra_specs = {
        kind: WorkloadSpec.make(kind, scale=scale)
        for kind in extra_workloads
    }

    plan = JobPlan()
    for name, spec in specs.items():
        plan.add(("base", name), SimJob(workload=spec))
    for kind, spec in extra_specs.items():
        plan.add(("panel-base", kind), SimJob(workload=spec))
    points = []
    for flip_th, rfm_th in sweep:
        n = min_entries_for(flip_th, rfm_th, adaptive_th)
        points.append((flip_th, rfm_th, n))
        if n is None:
            continue
        for plus in (False, True):
            scheme = "mithril+" if plus else "mithril"
            scheme_params = {
                "n_entries": n,
                "rfm_th": rfm_th,
                "adaptive_th": adaptive_th,
            }
            for name, spec in specs.items():
                plan.add(
                    (flip_th, rfm_th, scheme, name),
                    SimJob.make(
                        workload=spec,
                        scheme=scheme,
                        scheme_params=scheme_params,
                        flip_th=flip_th,
                        rfm_th=rfm_th,
                        scale=scale,
                    ),
                )
            for kind, spec in extra_specs.items():
                plan.add(
                    (flip_th, rfm_th, scheme, "panel", kind),
                    SimJob.make(
                        workload=spec,
                        scheme=scheme,
                        scheme_params=scheme_params,
                        flip_th=flip_th,
                        rfm_th=rfm_th,
                        scale=scale,
                    ),
                )
    context = {
        "points": points,
        "specs": specs,
        "extra_specs": extra_specs,
        "adaptive_th": adaptive_th,
    }
    return plan, context


def rows(results: PlanResults, context: Dict) -> List[Dict]:
    """One row per sweep point, then one per (panel, feasible point)."""
    adaptive_th = context["adaptive_th"]
    table = []
    for flip_th, rfm_th, n in context["points"]:
        if n is None:
            table.append(
                {
                    "flip_th": flip_th,
                    "rfm_th": rfm_th,
                    "feasible": False,
                }
            )
            continue
        config = MithrilConfig(
            flip_th=flip_th, rfm_th=rfm_th, n_entries=n,
            adaptive_th=adaptive_th,
        )
        perf = {}
        for scheme in ("mithril", "mithril+"):
            rels = [
                results[(flip_th, rfm_th, scheme, name)].relative_performance(
                    results[("base", name)]
                )
                for name in context["specs"]
            ]
            perf[scheme] = round(geo_mean(rels), 3)
        table.append(
            {
                "flip_th": flip_th,
                "rfm_th": rfm_th,
                "feasible": True,
                "n_entries": n,
                "table_kb": round(config.table_kilobytes(), 3),
                "mithril_rel_perf_pct": perf["mithril"],
                "mithril_plus_rel_perf_pct": perf["mithril+"],
            }
        )
    for kind in context["extra_specs"]:
        for flip_th, rfm_th, n in context["points"]:
            if n is None:
                continue
            table.append(
                {
                    "flip_th": flip_th,
                    "rfm_th": rfm_th,
                    "panel": kind,
                    "mithril_rel_perf_pct": round(
                        results[(flip_th, rfm_th, "mithril", "panel", kind)]
                        .relative_performance(results[("panel-base", kind)]),
                        3,
                    ),
                    "mithril_plus_rel_perf_pct": round(
                        results[(flip_th, rfm_th, "mithril+", "panel", kind)]
                        .relative_performance(results[("panel-base", kind)]),
                        3,
                    ),
                }
            )
    return table


def print_rows(rows: List[Dict]) -> None:
    print(
        f"{'FlipTH':>7} {'RFM_TH':>7} {'KB':>8} "
        f"{'Mithril%':>9} {'Mithril+%':>10}"
    )
    main, panels = split_panels(rows)
    for row in main:
        if not row.get("feasible"):
            print(f"{row['flip_th']:>7} {row['rfm_th']:>7} {'infeasible':>8}")
            continue
        print(
            f"{row['flip_th']:>7} {row['rfm_th']:>7} {row['table_kb']:>8} "
            f"{row['mithril_rel_perf_pct']:>9} "
            f"{row['mithril_plus_rel_perf_pct']:>10}"
        )
    if panels:
        print()
        print(
            f"{'panel':<26} {'FlipTH':>7} {'RFM_TH':>7} "
            f"{'Mithril%':>9} {'Mithril+%':>10}"
        )
        for row in chain.from_iterable(panels.values()):
            print(
                f"{row['panel']:<26} {row['flip_th']:>7} "
                f"{row['rfm_th']:>7} {row['mithril_rel_perf_pct']:>9} "
                f"{row['mithril_plus_rel_perf_pct']:>10}"
            )
