"""Figure 10: the RFM-interface-compatible scheme comparison.

Expected shapes (panels a-e):
(a) normal: Mithril/Mithril+ lose < ~5%/0.5%; BlockHammer collapses at
    FlipTH = 1.5K; PARFM degrades as FlipTH drops.
(c) BlockHammer's performance-adversarial pattern hurts BlockHammer
    itself far more than the RFM schemes.
(d) PARFM's energy overhead is far above Mithril's (adaptive refresh).
(e) Mithril's table is several times smaller than BlockHammer's.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig10, run_experiment

FLIP_THS = (50_000, 25_000, 12_500, 6_250, 3_125, 1_500)


def test_fig10_rfm_scheme_comparison(
    benchmark, save_rows, repro_scale, repro_jobs, repro_use_cache
):
    rows = run_once(
        benchmark, run_experiment, "fig10", flip_thresholds=FLIP_THS,
        scale=repro_scale, n_jobs=repro_jobs, use_cache=repro_use_cache,
    )
    save_rows("fig10", rows)
    fig10.print_rows(rows)

    def cell(scheme, flip_th):
        return next(
            r for r in rows
            if r["scheme"] == scheme and r["flip_th"] == flip_th
        )

    for flip_th in FLIP_THS:
        # (a) Mithril+ ~ zero overhead; Mithril bounded.
        assert cell("mithril+", flip_th)["normal_rel_perf_pct"] > 99.0
        assert cell("mithril", flip_th)["normal_rel_perf_pct"] > 92.0
        # (d) PARFM pays more energy than Mithril once RFMs are frequent
        # (at 50K/25K both are within measurement noise of zero).
        if flip_th <= 12_500:
            assert (
                cell("parfm", flip_th)["normal_energy_overhead_pct"]
                > cell("mithril", flip_th)["normal_energy_overhead_pct"]
            )
        # (e) Mithril's table is much smaller than BlockHammer's.
        assert (
            cell("blockhammer", flip_th)["table_kb"]
            > 3 * cell("mithril", flip_th)["table_kb"]
        )

    # (a) BlockHammer collapses at the lowest FlipTH...
    assert cell("blockhammer", 1_500)["normal_rel_perf_pct"] < 85.0
    # ...but is fine at high FlipTH.
    assert cell("blockhammer", 50_000)["normal_rel_perf_pct"] > 98.0

    # (c) The adversarial pattern hurts BlockHammer more than Mithril+.
    assert (
        cell("blockhammer", 1_500)["bh_adversarial_rel_perf_pct"]
        < cell("mithril+", 1_500)["bh_adversarial_rel_perf_pct"] - 5.0
    )

    # PARFM's energy overhead grows sharply as FlipTH drops.
    assert (
        cell("parfm", 1_500)["normal_energy_overhead_pct"]
        > cell("parfm", 50_000)["normal_energy_overhead_pct"] * 10
    )
