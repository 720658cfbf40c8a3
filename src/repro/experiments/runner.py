"""Shared machinery for the experiment drivers.

A simulation-bound driver (fig7, fig9, fig10, fig11) is
``build_plan(**params) -> (JobPlan, context)`` plus ``rows(results,
context)``, which reduces the plan's results to rows; an analytic
driver is ``run(**params)``.  Each also has ``print_rows``.
:func:`run_experiment` runs either kind by id for every caller.

Workload construction and the per-(scheme, FlipTH) factories live in
the engine catalog (:mod:`repro.engine.catalog`); this module keeps the
aggregation helper, the scheme-comparison sweep Figures 10 and 11 share,
and the experiment registry.  The engine is imported inside the
functions, so the registry import stays light.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.engine import JobPlan, PlanResults


def geo_mean(values: Sequence[float]) -> float:
    """Geometric mean, the paper's aggregation over workloads."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(v) for v in filtered) / len(filtered))


def comparison_plan(
    flip_thresholds: Sequence[int],
    schemes: Sequence[str],
    scale: float,
    attack_seeds: Sequence[int],
    attack_kinds: Sequence[str],
    extra_workloads: Sequence[str] = (),
) -> Tuple[JobPlan, Dict]:
    """(plan, context) for one scheme-comparison sweep (Figures 10, 11).

    Unprotected baselines for the benign suite and for each extra
    workload (a *panel*), then per FlipTH the attack baselines of every
    (kind, seed) and, per scheme, its benign, attack and panel jobs.
    """
    from repro.engine import (
        JobPlan, SimJob, WorkloadSpec, attack_workload_spec,
        normal_workload_specs,
    )

    benign = normal_workload_specs(scale)
    panels = {kind: WorkloadSpec.make(kind, scale=scale)
              for kind in extra_workloads}
    plan = JobPlan()
    for name, spec in benign.items():
        plan.add(("benign-base", name), SimJob(workload=spec))
    for kind, spec in panels.items():
        plan.add(("panel-base", kind), SimJob(workload=spec))
    for flip_th in flip_thresholds:
        attacks = {
            (kind, seed): attack_workload_spec(
                kind, scale, flip_th=flip_th, seed=seed
            )
            for kind in attack_kinds
            for seed in attack_seeds
        }
        for key, spec in attacks.items():
            plan.add(("attack-base", flip_th) + key,
                     SimJob(workload=spec, flip_th=flip_th))
        targets = (
            [(("benign", name), spec) for name, spec in benign.items()]
            + [(("attack",) + key, spec) for key, spec in attacks.items()]
            + [(("panel", kind), spec) for kind, spec in panels.items()]
        )
        for scheme in schemes:
            for key, spec in targets:
                plan.add((flip_th, scheme) + key, SimJob(
                    workload=spec, scheme=scheme, flip_th=flip_th,
                    scale=scale,
                ))
    sweep = (flip_thresholds, schemes, attack_seeds, attack_kinds)
    return plan, {"sweep": sweep, "benign": list(benign),
                  "panels": list(panels)}


def comparison_rows(results: PlanResults, context: Dict) -> List[Dict]:
    """Reduce a :func:`comparison_plan`'s results to its rows.

    One row per (FlipTH, scheme): the benign geomean relative
    performance, one ``<kind>_rel_perf_pct`` seed mean per attack kind
    and the benign geomean energy overhead.  Then one row per panel
    point, tagged ``"panel": <kind>``.
    """
    from repro.analysis.energy import energy_overhead_percent

    flip_thresholds, schemes, attack_seeds, attack_kinds = context["sweep"]

    def rel(key, base_key) -> float:
        return results[key].relative_performance(results[base_key])

    def energy(key, base_key) -> float:
        return max(
            energy_overhead_percent(results[key], results[base_key]), 1e-6
        )

    rows = []
    for flip_th in flip_thresholds:
        for scheme in schemes:
            benign = [
                ((flip_th, scheme, "benign", name), ("benign-base", name))
                for name in context["benign"]
            ]
            row = {
                "flip_th": flip_th,
                "scheme": scheme,
                "normal_rel_perf_pct": round(
                    geo_mean([rel(*keys) for keys in benign]), 3
                ),
            }
            for kind in attack_kinds:
                values = [rel((flip_th, scheme, "attack", kind, seed),
                              ("attack-base", flip_th, kind, seed))
                          for seed in attack_seeds]
                row[kind.replace("-", "_") + "_rel_perf_pct"] = round(
                    sum(values) / len(values), 3
                )
            row["normal_energy_overhead_pct"] = round(
                geo_mean([energy(*keys) for keys in benign]), 4
            )
            rows.append(row)
    for kind in context["panels"]:
        for flip_th in flip_thresholds:
            for scheme in schemes:
                keys = ((flip_th, scheme, "panel", kind), ("panel-base", kind))
                rows.append({
                    "flip_th": flip_th,
                    "scheme": scheme,
                    "panel": kind,
                    "rel_perf_pct": round(rel(*keys), 3),
                    "energy_overhead_pct": round(energy(*keys), 4),
                })
    return rows


#: Experiment registry used by the CLI: id -> (module path, description).
EXPERIMENTS = {
    "fig2": ("repro.experiments.fig2", "RFM-Graphene vs ARR-Graphene safe FlipTH"),
    "fig6": ("repro.experiments.fig6", "Mithril configuration space"),
    "fig7": ("repro.experiments.fig7", "Adaptive refresh energy/AdTH sweep"),
    "fig8": ("repro.experiments.fig8", "lbm-style sweep access pattern"),
    "fig9": ("repro.experiments.fig9", "Mithril vs Mithril+ trade-off"),
    "fig10": ("repro.experiments.fig10", "RFM-compatible scheme comparison"),
    "fig11": ("repro.experiments.fig11", "Non-RFM scheme comparison"),
    "table4": ("repro.experiments.table4", "Per-bank table sizes"),
    "appendix_parfm": (
        "repro.experiments.appendix_parfm",
        "PARFM failure probability",
    ),
    "nonadjacent": (
        "repro.experiments.nonadjacent",
        "Section V-C non-adjacent RowHammer",
    ),
}


def driver(name: str):
    """The driver module of experiment ``name``."""
    import importlib

    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        )
    return importlib.import_module(EXPERIMENTS[name][0])


def run_experiment(
    name: str, n_jobs: int = 1, use_cache: bool = True, **params
):
    """Run experiment ``name``; the engine knobs reach only a
    simulation-bound driver's plan."""
    module = driver(name)
    if not hasattr(module, "build_plan"):
        return module.run(**params)
    plan, context = module.build_plan(**params)
    return module.rows(plan.run(n_jobs=n_jobs, use_cache=use_cache), context)
