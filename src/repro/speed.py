"""The speed benchmark's workload x scheme pairs.

perfbench's ``drain-long`` workload reads this table (seed-shifted, at
1.5x trace length) to measure the event drain; the frozen events/sec
history measured on the same pairs lives in ``BENCH_SIM_SPEED.json``.
"""

#: (workload kind, workload params, scheme) pairs.  They cover the
#: distinct hot paths: the bare event loop ("none"), CbS-tracker ARR
#: (graphene), CbS + RFM (mithril/mithril+), and Bloom-filter
#: throttling (blockhammer), on both multiprogrammed and multithreaded
#: access patterns plus an attack mix.
_PAIRS: dict[str, list[tuple[str, dict[str, object], str]]] = {
    "medium": [
        ("mix-high", {"seed": 11}, "none"),
        ("mix-high", {"seed": 11}, "mithril"),
        ("mix-high", {"seed": 11}, "blockhammer"),
        ("mix-blend", {"seed": 12}, "mithril+"),
        ("fft", {"seed": 21}, "none"),
        ("fft", {"seed": 21}, "graphene"),
        ("radix", {"seed": 22}, "mithril"),
        ("pagerank", {"seed": 23}, "blockhammer"),
        ("attack", {"pattern": "multi-sided", "seed": 31}, "mithril"),
        ("attack", {"pattern": "multi-sided", "seed": 31}, "blockhammer"),
    ],
}

#: FlipTH used for every pair (mid-range paper value).
BENCH_FLIP_TH = 6_250
