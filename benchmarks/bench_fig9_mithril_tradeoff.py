"""Figure 9: Mithril vs Mithril+ performance/area trade-off.

Expected shape: Mithril+ sits at ~100% everywhere; Mithril's loss grows
as RFM_TH shrinks and stays under a few percent; the table grows as
FlipTH drops; FlipTH = 6.25K at RFM_TH = 128 costs < 1% and ~1KB.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig9, run_experiment


def test_fig9_tradeoff(
    benchmark, save_rows, repro_scale, repro_jobs, repro_use_cache
):
    rows = run_once(
        benchmark, run_experiment, "fig9", scale=repro_scale,
        n_jobs=repro_jobs, use_cache=repro_use_cache,
    )
    save_rows("fig9", rows)
    fig9.print_rows(rows)

    feasible = [row for row in rows if row.get("feasible")]
    assert feasible

    for row in feasible:
        # Mithril+ has (near-)zero overhead at every configuration.
        assert row["mithril_plus_rel_perf_pct"] > 99.0
        # Mithril stays within a few percent (paper: < ~2%; allow slack
        # for short-trace noise).
        assert row["mithril_rel_perf_pct"] > 93.0
        assert (
            row["mithril_plus_rel_perf_pct"]
            >= row["mithril_rel_perf_pct"] - 1.0
        )

    # Paper headline: FlipTH=6.25K @ RFM_TH=128 -> <1% loss, ~1KB table.
    headline = next(
        row for row in feasible
        if row["flip_th"] == 6_250 and row["rfm_th"] == 128
    )
    assert headline["mithril_rel_perf_pct"] > 98.0
    assert headline["table_kb"] < 1.5

    # Area grows as FlipTH shrinks at fixed RFM_TH.
    by_key = {(r["flip_th"], r["rfm_th"]): r for r in feasible}
    if (12_500, 128) in by_key and (3_125, 128) in by_key:
        assert (
            by_key[(3_125, 128)]["table_kb"]
            > by_key[(12_500, 128)]["table_kb"]
        )
