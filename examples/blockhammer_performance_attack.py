#!/usr/bin/env python
"""The BlockHammer performance attack (Section VI-A / Figure 10(c)).

Demonstrates that throttling-based protection is a double-edged sword:
an attacker who profiles BlockHammer's counting-Bloom-filter layout can
blacklist a *benign* thread's hot rows by hammering aliases, throttling
the victim thread without ever touching its data.

The same workload leaves Mithril+ unmoved — preventive refreshes are
invisible to benign scheduling.

Run:  python examples/blockhammer_performance_attack.py
"""

from repro.engine import attack_workload_spec, build_workload
from repro.engine.catalog import scheme_under_test
from repro.sim.system import simulate

FLIP_TH = 1_500


def main() -> None:
    traces = build_workload(
        attack_workload_spec("bh-adversarial", scale=1.0, flip_th=FLIP_TH)
    )
    benign_cores = len(traces) - 1
    print(
        f"{benign_cores} benign cores + 1 adversary hammering CBF aliases "
        f"of the benign threads' hottest rows (FlipTH {FLIP_TH})"
    )
    print()

    baseline = simulate(traces, flip_th=FLIP_TH)

    results = {}
    for scheme_name in ("blockhammer", "mithril", "mithril+"):
        factory, rfm_th = scheme_under_test(scheme_name, FLIP_TH)
        result = simulate(
            traces, scheme_factory=factory, rfm_th=rfm_th, flip_th=FLIP_TH
        )
        results[scheme_name] = result

    print(f"{'scheme':<14} {'relative IPC':>13} {'throttle events':>16}")
    for name, result in results.items():
        rel = result.relative_performance(baseline)
        print(f"{name:<14} {rel:>12.2f}% {result.throttle_events:>16}")
    print()
    bh = results["blockhammer"].relative_performance(baseline)
    mp = results["mithril+"].relative_performance(baseline)
    print(
        f"The adversary costs BlockHammer {100 - bh:.1f}% aggregate IPC "
        f"while Mithril+ loses {100 - mp:.1f}%."
    )


if __name__ == "__main__":
    main()
