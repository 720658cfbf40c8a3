"""Figure 6: the (Nentry, RFM_TH) configuration space per FlipTH.

Expected shape: for every FlipTH the table grows with RFM_TH; smaller
FlipTH needs bigger tables; high RFM_TH becomes infeasible at low
FlipTH; the Lossy-Counting variant needs strictly larger tables.
"""

from collections import defaultdict

from benchmarks.conftest import run_once
from repro.experiments import fig6


def test_fig6_configuration_space(benchmark, save_rows):
    rows = run_once(benchmark, fig6.run)
    save_rows("fig6", rows)
    fig6.print_rows(rows)

    cbs = defaultdict(dict)
    lossy = defaultdict(dict)
    for row in rows:
        target = cbs if row["algorithm"] == "cbs" else lossy
        target[row["flip_th"]][row["rfm_th"]] = row["table_kb"]

    # Larger RFM_TH -> larger table (the Figure 6 trade-off).
    for flip_th, curve in cbs.items():
        feasible = [kb for _, kb in sorted(curve.items()) if kb is not None]
        assert feasible == sorted(feasible)

    # Smaller FlipTH -> larger table at a fixed RFM_TH.
    assert cbs[1_500][32] > cbs[6_250][32] > cbs[50_000][32]

    # RFM_TH = 256 infeasible at FlipTH = 1.5K.
    assert cbs[1_500][256] is None
    assert cbs[1_500][32] is not None

    # The Lossy-Counting table is larger wherever both are feasible.
    for flip_th in (50_000, 25_000):
        for rfm_th, kb in lossy[flip_th].items():
            if kb is not None and cbs[flip_th][rfm_th] is not None:
                assert kb > cbs[flip_th][rfm_th]
