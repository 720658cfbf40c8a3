"""Figure 7: adaptive-refresh energy savings vs AdTH.

Expected shape: AdTH = 0 pays full preventive-refresh energy; AdTH in
the 100-200 range nearly eliminates it on benign workloads; the extra
table entries stay bounded (~12% worst case in the paper).
"""

from benchmarks.conftest import run_once
from repro.experiments import fig7, run_experiment


def test_fig7_adaptive_refresh(
    benchmark, save_rows, repro_scale, repro_jobs, repro_use_cache
):
    rows = run_once(
        benchmark, run_experiment, "fig7", scale=repro_scale,
        n_jobs=repro_jobs, use_cache=repro_use_cache,
    )
    save_rows("fig7", rows)
    fig7.print_rows(rows)

    for flip_th, rfm_th in ((3_125, 16), (6_250, 64)):
        series = [
            row for row in rows
            if row["flip_th"] == flip_th and row["rfm_th"] == rfm_th
        ]
        base = next(row for row in series if row["adth"] == 0)
        tuned = next(row for row in series if row["adth"] == 200)
        # Energy drops by a large factor once AdTH filters benign
        # patterns (both workload classes).
        assert (
            tuned["energy_overhead_multiprogrammed_pct"]
            < base["energy_overhead_multiprogrammed_pct"] * 0.6
        )
        assert (
            tuned["energy_overhead_multithreaded_pct"]
            < base["energy_overhead_multithreaded_pct"] * 0.4
        )
        # Most RFMs skip their preventive refresh at AdTH=200.
        assert tuned["rfms_skipped_pct"] > 90.0
        # Theorem 2's price: bounded extra entries (paper: <= ~12%).
        assert 0.0 <= tuned["additional_entries_pct"] <= 20.0
