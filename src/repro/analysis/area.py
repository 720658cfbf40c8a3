"""Per-bank tracker table sizes (Table IV of the paper).

Each function returns KB per bank.  The accounting follows each
scheme's published structure:

* **Mithril** — Nentry x (row address + wrapping counter).  The counter
  only needs to express the bounded spread (Section IV-E), and no
  duplicate/reset table is needed.
* **Graphene** — entries sized so no row reaches FlipTH/4 untracked in
  one reset window; counters must count up to the full window's ACTs.
* **TWiCe** — lossy-counting entries with act-count and life fields;
  the pruning analysis yields the (1 + ln(intervals)) blow-up.
* **CBT** — 2x the leaf budget in tree nodes.
* **BlockHammer** — two interleaved CBFs of ceil(log2(N_BL))-bit
  counters.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from repro.core.config import MithrilConfig, min_entries_for, paper_rfm_th
from repro.mitigations.cbt import cbt_counters
from repro.mitigations.graphene import graphene_entries
from repro.params import DramOrganization, DramTimings, PAPER_FLIP_THRESHOLDS
from repro.protection import arr_trigger
from repro.schemes import paper_config


def _row_address_bits(organization: Optional[DramOrganization] = None) -> int:
    organization = organization or DramOrganization()
    return max(1, math.ceil(math.log2(organization.rows_per_bank)))


def _bits_to_kb(bits: int) -> float:
    return bits / 8.0 / 1024.0


def mithril_table_kb(
    flip_th: int,
    rfm_th: Optional[int] = None,
    adaptive_th: int = 0,
    timings: Optional[DramTimings] = None,
    organization: Optional[DramOrganization] = None,
) -> Optional[float]:
    """Mithril table size at ``rfm_th`` (default: the paper's); None
    when (FlipTH, RFM_TH) is infeasible."""
    rfm_th = rfm_th or paper_rfm_th(flip_th, adaptive_th, timings)
    n = rfm_th and min_entries_for(
        flip_th, rfm_th, adaptive_th, timings=timings
    )
    if not n:
        return None
    config = MithrilConfig(
        flip_th=flip_th, rfm_th=rfm_th, n_entries=n, adaptive_th=adaptive_th
    )
    return config.table_kilobytes(organization)


def graphene_table_kb(
    flip_th: int,
    timings: Optional[DramTimings] = None,
    organization: Optional[DramOrganization] = None,
) -> float:
    timings = timings or DramTimings()
    entries = graphene_entries(flip_th, timings)
    acts_per_window = timings.acts_per_trefw() // 2  # reset every tREFW/2
    counter_bits = math.ceil(math.log2(max(2, acts_per_window)))
    bits = entries * (_row_address_bits(organization) + counter_bits)
    return _bits_to_kb(bits)


def twice_table_kb(
    flip_th: int,
    timings: Optional[DramTimings] = None,
    organization: Optional[DramOrganization] = None,
) -> float:
    timings = timings or DramTimings()
    threshold = arr_trigger(flip_th)
    acts = timings.acts_per_trefw()
    intervals = max(2, int(timings.trefw / timings.trefi))
    # Pruning keeps entries alive at progressively higher rates; the
    # worst-case occupancy integrates to a harmonic-series blow-up.
    entries = math.ceil((acts / threshold) * (1.0 + math.log(intervals)))
    act_bits = math.ceil(math.log2(max(2, threshold)))
    life_bits = math.ceil(math.log2(intervals))
    valid_bits = 1
    bits = entries * (
        _row_address_bits(organization) + act_bits + life_bits + valid_bits
    )
    return _bits_to_kb(bits)


def cbt_table_kb(
    flip_th: int,
    timings: Optional[DramTimings] = None,
    organization: Optional[DramOrganization] = None,
    node_bits: int = 40,
) -> float:
    return _bits_to_kb(cbt_counters(flip_th, timings) * node_bits)


def blockhammer_table_kb(flip_th: int) -> float:
    """Two CBFs of the scheme table's paper (CBF size, N_BL)."""
    params, _rfm_th = paper_config("blockhammer", flip_th)
    cbf_size, n_bl = params["cbf_size"], params["n_bl"]
    counter_bits = math.ceil(math.log2(max(2, n_bl)))
    return _bits_to_kb(cbf_size * 2 * counter_bits)


def table_size_comparison(
    flip_thresholds: Sequence[int] = PAPER_FLIP_THRESHOLDS,
    mithril_rfm_ths: Sequence[int] = (256, 128, 64, 32),
    timings: Optional[DramTimings] = None,
) -> Dict[str, Dict[int, Optional[float]]]:
    """The full Table IV: scheme -> FlipTH -> KB per bank (or None)."""
    rows: Dict[str, Dict[int, Optional[float]]] = {}
    rows["CBT @ MC"] = {
        f: round(cbt_table_kb(f, timings), 3) for f in flip_thresholds
    }
    rows["Graphene @ MC"] = {
        f: round(graphene_table_kb(f, timings), 3) for f in flip_thresholds
    }
    rows["BlockHammer @ MC"] = {
        f: round(blockhammer_table_kb(f), 3) for f in flip_thresholds
    }
    rows["TWiCe @ buffer chip"] = {
        f: round(twice_table_kb(f, timings), 3) for f in flip_thresholds
    }
    for rfm_th in mithril_rfm_ths:
        label = f"Mithril-{rfm_th} @ DRAM"
        rows[label] = {}
        for flip_th in flip_thresholds:
            kb = mithril_table_kb(flip_th, rfm_th, timings=timings)
            rows[label][flip_th] = round(kb, 3) if kb is not None else None
    return rows
