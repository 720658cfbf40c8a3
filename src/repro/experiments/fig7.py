"""Figure 7: the adaptive refresh policy's energy savings vs AdTH.

For the paper's two configurations — (FlipTH 3.125K, RFM_TH 16) and
(FlipTH 6.25K, RFM_TH 64) — sweep AdTH over {0, 50, 100, 150, 200} and
report, on benign workloads (multiprogrammed and multithreaded
geomeans):

* the relative dynamic-energy overhead against the unprotected run;
* the extra table entries Theorem 2 demands for the same FlipTH.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.energy import energy_overhead_percent
from repro.core.config import min_entries_for
from repro.engine import JobPlan, PlanResults, SimJob, normal_workload_specs
from repro.experiments.runner import geo_mean

DEFAULT_CONFIGS = ((3_125, 16), (6_250, 64))
DEFAULT_ADTH_SWEEP = (0, 50, 100, 150, 200)


def build_plan(
    configs: Sequence = DEFAULT_CONFIGS,
    adth_values: Sequence[int] = DEFAULT_ADTH_SWEEP,
    scale: float = 1.0,
) -> Tuple[JobPlan, Dict]:
    """(plan, context) for one sweep — jobs keyed for row assembly."""
    specs = normal_workload_specs(scale)

    plan = JobPlan()
    for name, spec in specs.items():
        plan.add(("base", name), SimJob(workload=spec))
    points = []
    for flip_th, rfm_th in configs:
        base_entries = min_entries_for(flip_th, rfm_th, 0)
        for adth in adth_values:
            entries = min_entries_for(flip_th, rfm_th, adth)
            if entries is None or base_entries is None:
                continue
            points.append((flip_th, rfm_th, adth, entries, base_entries))
            for name, spec in specs.items():
                plan.add(
                    (flip_th, rfm_th, adth, name),
                    SimJob.make(
                        workload=spec,
                        scheme="mithril",
                        scheme_params={
                            "n_entries": entries,
                            "rfm_th": rfm_th,
                            "adaptive_th": adth,
                        },
                        flip_th=flip_th,
                        rfm_th=rfm_th,
                        scale=scale,
                    ),
                )
    return plan, {"points": points, "specs": specs}


def rows(results: PlanResults, context: Dict) -> List[Dict]:
    """One row per (FlipTH, RFM_TH, AdTH) point of the sweep."""
    multiprogrammed = ("mix-high", "mix-blend")
    multithreaded = ("fft", "radix", "pagerank")

    specs = context["specs"]
    table = []
    for flip_th, rfm_th, adth, entries, base_entries in context["points"]:
        overheads = {}
        skipped = {}
        for name in specs:
            result = results[(flip_th, rfm_th, adth, name)]
            overheads[name] = energy_overhead_percent(
                result, results[("base", name)]
            )
            total_rfms = result.rfm_commands or 1
            skipped[name] = 100.0 * result.rfms_skipped / total_rfms
        table.append(
            {
                "flip_th": flip_th,
                "rfm_th": rfm_th,
                "adth": adth,
                "energy_overhead_multiprogrammed_pct": round(
                    geo_mean(
                        [max(overheads[w], 1e-6) for w in multiprogrammed]
                    ),
                    4,
                ),
                "energy_overhead_multithreaded_pct": round(
                    geo_mean(
                        [max(overheads[w], 1e-6) for w in multithreaded]
                    ),
                    4,
                ),
                "rfms_skipped_pct": round(
                    geo_mean([max(v, 1e-6) for v in skipped.values()]), 2
                ),
                "additional_entries_pct": round(
                    100.0 * (entries - base_entries) / base_entries, 2
                ),
            }
        )
    return table


def print_rows(rows: List[Dict]) -> None:
    print(
        f"{'FlipTH':>7} {'RFM_TH':>7} {'AdTH':>5} "
        f"{'E-ovh MP%':>10} {'E-ovh MT%':>10} {'skip%':>7} {'+Nentry%':>9}"
    )
    for row in rows:
        print(
            f"{row['flip_th']:>7} {row['rfm_th']:>7} {row['adth']:>5} "
            f"{row['energy_overhead_multiprogrammed_pct']:>10} "
            f"{row['energy_overhead_multithreaded_pct']:>10} "
            f"{row['rfms_skipped_pct']:>7} "
            f"{row['additional_entries_pct']:>9}"
        )
