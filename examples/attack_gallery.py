#!/usr/bin/env python
"""Attack gallery: replay the RowHammer attack zoo against every scheme.

For each protection scheme (Mithril, Mithril+, Graphene, TWiCe, PARFM,
RFM-Graphene, BlockHammer, none) and each attack pattern (double-sided,
many-sided, tracker-thrashing rotation, feinting concentration), report
the worst victim disturbance relative to FlipTH.

The feinting column is the interesting one: it is the concentration
pattern that defeats the RFM-Graphene strawman (Figure 2) while Mithril
shrugs it off with the same table budget.

Run:  python examples/attack_gallery.py
"""

from repro.core.config import min_entries_for
from repro.core.mithril import MithrilScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.mitigations.parfm import ParfmScheme
from repro.mitigations.rfm_graphene import RfmGrapheneScheme
from repro.mitigations.twice import TwiceScheme
from repro.protection import NoProtection
from repro.schemes import build_scheme, paper_config
from repro.verify import (
    double_sided_stream,
    feinting_stream,
    many_sided_stream,
    round_robin_stream,
    run_safety_trace,
)

FLIP_TH = 3_125
RFM_TH = 64
ACTS = 150_000


def build_schemes():
    n = min_entries_for(FLIP_TH, RFM_TH)
    mithril_plus, mithril_plus_rfm_th = paper_config("mithril+", FLIP_TH)
    assert mithril_plus_rfm_th == RFM_TH  # one RFM_TH for every scheme
    blockhammer, _ = paper_config("blockhammer", FLIP_TH)
    return {
        "none": lambda: NoProtection(),
        "mithril": lambda: MithrilScheme(n_entries=n, rfm_th=RFM_TH),
        "mithril+": lambda: build_scheme("mithril+", **mithril_plus),
        "graphene": lambda: GrapheneScheme(flip_th=FLIP_TH),
        "twice": lambda: TwiceScheme(flip_th=FLIP_TH),
        "parfm": lambda: ParfmScheme(),
        "rfm-graphene": lambda: RfmGrapheneScheme(
            threshold=400, n_entries=2048
        ),
        "blockhammer": lambda: build_scheme("blockhammer", **blockhammer),
    }


def build_attacks():
    return {
        "double-sided": lambda: double_sided_stream(1_000, ACTS),
        "many-sided": lambda: many_sided_stream(33, ACTS),
        "rotation": lambda: round_robin_stream(1_024, ACTS),
        "feinting": lambda: feinting_stream(150, 100, 12),
    }


def main() -> None:
    schemes = build_schemes()
    attacks = build_attacks()
    rfm_for = {"mithril", "mithril+", "parfm", "rfm-graphene"}

    header = f"{'scheme':<14}" + "".join(f"{a:>14}" for a in attacks)
    print(f"worst victim disturbance as % of FlipTH={FLIP_TH}")
    print(header)
    print("-" * len(header))
    for name, factory in schemes.items():
        cells = []
        for attack_name, stream_factory in attacks.items():
            scheme = factory()
            report = run_safety_trace(
                scheme,
                stream_factory(),
                FLIP_TH,
                rfm_th=RFM_TH if name in rfm_for else 0,
            )
            percent = 100.0 * report.max_disturbance / FLIP_TH
            flag = " *FLIP*" if report.flips else ""
            cells.append(f"{percent:>7.1f}%{flag:<6}")
        print(f"{name:<14}" + "".join(f"{c:>14}" for c in cells))
    print()
    print("* BlockHammer does not refresh victims; its protection is the")
    print("  ACT-rate throttle, which this raw replay reports as blacklist")
    print("  coverage rather than disturbance reduction.")


if __name__ == "__main__":
    main()
