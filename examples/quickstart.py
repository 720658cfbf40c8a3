#!/usr/bin/env python
"""Quickstart: protect a simulated DDR5 system with Mithril.

Walks the full public API surface in one script:

1. pick a provably safe Mithril configuration for a target FlipTH;
2. simulate a 4-core benign workload with and without Mithril and
   compare performance / energy;
3. replay a double-sided RowHammer attack against both and show that
   only the unprotected system flips bits.

Run:  python examples/quickstart.py
"""

from repro import paper_default_config, simulate
from repro.analysis.energy import energy_overhead_percent
from repro.protection import NoProtection
from repro.schemes import paper_config, scheme_factory
from repro.verify import double_sided_stream, run_safety_trace
from repro.workloads import mix_high, double_sided_trace


def main() -> None:
    flip_th = 6_250  # the RowHammer threshold of recent DDR4/5 parts

    # 1. Configuration: Theorem 1 gives the minimum table size for a
    #    given RFM_TH; the scheme table holds the paper's choice
    #    (RFM_TH=128 and AdTH=200 at this FlipTH).
    params, rfm_th = paper_config("mithril", flip_th)
    config = paper_default_config(flip_th, params["adaptive_th"])
    print("Mithril configuration")
    print(f"  FlipTH       : {config.flip_th}")
    print(f"  RFM_TH       : {config.rfm_th}")
    print(f"  Nentry       : {config.n_entries}")
    print(f"  bound M      : {config.bound:.0f}  (< FlipTH/2 = {flip_th // 2})")
    print(f"  table size   : {config.table_kilobytes():.2f} KB per bank")
    print()

    mithril = scheme_factory("mithril", **params)

    # 2. Benign workload: 4 memory-intensive cores, 16 banks.
    traces = mix_high(num_cores=4, num_requests=2_000, num_banks=16)
    baseline = simulate(traces, flip_th=flip_th)
    protected = simulate(
        traces, scheme_factory=mithril, rfm_th=rfm_th, flip_th=flip_th,
    )
    rel = protected.relative_performance(baseline)
    energy = energy_overhead_percent(protected, baseline)
    print("Benign workload (mix-high)")
    print(f"  baseline IPC : {baseline.aggregate_ipc:.3f}")
    print(f"  Mithril IPC  : {protected.aggregate_ipc:.3f} ({rel:.2f}%)")
    print(f"  energy ovh   : {energy:.3f}%")
    print(f"  RFM commands : {protected.rfm_commands} "
          f"({protected.rfms_skipped} adaptive-skipped)")
    print()

    # 3. Attack: double-sided hammer on one victim row.
    print("Double-sided attack, 200k ACTs at max rate")
    unprotected_report = run_safety_trace(
        NoProtection(), double_sided_stream(1_000, 200_000), flip_th
    )
    protected_report = run_safety_trace(
        mithril(), double_sided_stream(1_000, 200_000), flip_th,
        rfm_th=rfm_th,
    )
    print(f"  unprotected  : {len(unprotected_report.flips)} bit flips "
          f"(max disturbance {unprotected_report.max_disturbance:.0f})")
    print(f"  Mithril      : {len(protected_report.flips)} bit flips "
          f"(max disturbance {protected_report.max_disturbance:.0f}, "
          f"headroom {protected_report.headroom:.0%})")
    assert protected_report.safe
    print()
    print("Mithril kept every victim far below FlipTH.")


if __name__ == "__main__":
    main()
