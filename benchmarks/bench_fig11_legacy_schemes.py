"""Figure 11: comparison with RFM-non-compatible schemes.

Expected shapes: Mithril+ is comparable to Graphene/TWiCe/CBT (all near
100% on normal workloads); Mithril's loss stays bounded; PARA's energy
overhead dwarfs the deterministic schemes' as FlipTH drops.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig11, run_experiment

FLIP_THS = (50_000, 12_500, 3_125, 1_500)


def test_fig11_legacy_scheme_comparison(
    benchmark, save_rows, repro_scale, repro_jobs, repro_use_cache
):
    rows = run_once(
        benchmark, run_experiment, "fig11", flip_thresholds=FLIP_THS,
        scale=repro_scale, n_jobs=repro_jobs, use_cache=repro_use_cache,
    )
    save_rows("fig11", rows)
    fig11.print_rows(rows)

    def cell(scheme, flip_th):
        return next(
            r for r in rows
            if r["scheme"] == scheme and r["flip_th"] == flip_th
        )

    for flip_th in FLIP_THS:
        # Legacy deterministic ARR schemes barely hurt benign runs.
        for scheme in ("graphene", "twice", "cbt"):
            assert cell(scheme, flip_th)["normal_rel_perf_pct"] > 97.0
        # Mithril+ is comparable to them (paper: within ~0.2%).
        assert cell("mithril+", flip_th)["normal_rel_perf_pct"] > 99.0
        # Mithril within a few percent even at 1.5K.
        assert cell("mithril", flip_th)["normal_rel_perf_pct"] > 92.0

    # PARA's energy overhead explodes at low FlipTH versus Mithril's.
    assert (
        cell("para", 1_500)["normal_energy_overhead_pct"]
        > 5 * cell("mithril", 1_500)["normal_energy_overhead_pct"]
    )
    assert (
        cell("para", 1_500)["normal_energy_overhead_pct"]
        > cell("para", 50_000)["normal_energy_overhead_pct"]
    )
