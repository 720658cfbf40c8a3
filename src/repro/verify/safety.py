"""RowHammer safety checker.

Replays a raw ACT stream (no performance model — ACTs at the maximum
rate, one per tRC, the adversary's best case) against a protection
scheme with the full refresh machinery:

* auto-refresh restores one row group per tREFI;
* the MC's RAA counter issues RFM every RFM_TH ACTs (for RFM schemes);
* ARR victims demanded by the scheme are refreshed immediately.

The report carries the maximum disturbance any victim accumulated
between refreshes — the quantity that must stay below FlipTH for the
deterministic guarantee to hold — plus every flip event if it did not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.dram.hammer import FlipEvent, HammerModel
from repro.dram.refresh import AutoRefreshEngine
from repro.mc.rfm import RfmIssueLogic
from repro.params import DramOrganization, DramTimings
from repro.protection import ProtectionScheme


@dataclass
class SafetyReport:
    """Outcome of one adversarial replay."""

    scheme_name: str
    flip_th: int
    acts_replayed: int
    flips: List[FlipEvent]
    max_disturbance: float
    preventive_refresh_rows: int
    rfm_commands: int
    arr_requests: int

    @property
    def safe(self) -> bool:
        return not self.flips

    @property
    def headroom(self) -> float:
        """How far below FlipTH the worst victim stayed (1.0 = untouched)."""
        return 1.0 - self.max_disturbance / self.flip_th


def run_safety_trace(
    scheme: ProtectionScheme,
    act_stream: Iterable[int],
    flip_th: int,
    rfm_th: int = 64,
    timings: Optional[DramTimings] = None,
    organization: Optional[DramOrganization] = None,
    max_acts: Optional[int] = None,
    blast_weights=(1.0,),
) -> SafetyReport:
    """Replay ``act_stream`` (row indices) against ``scheme``."""
    timings = timings or DramTimings()
    organization = organization or DramOrganization()
    hammer = HammerModel(
        flip_th, organization.rows_per_bank, blast_weights=blast_weights
    )
    refresh = AutoRefreshEngine(timings, organization)
    rfm_logic = (
        RfmIssueLogic(rfm_th, mrr_gated=scheme.uses_mrr_gating)
        if scheme.uses_rfm and rfm_th > 0
        else None
    )
    trc = timings.trc_cycles
    cycle = 0
    acts = 0
    rfm_commands = 0
    for row in act_stream:
        if max_acts is not None and acts >= max_acts:
            break
        cycle += trc
        for tick_cycle, first_row, last_row in refresh.drain_due(cycle):
            cycle += timings.trfc_cycles
            hammer.on_refresh_range(first_row, last_row)
            scheme.on_autorefresh(first_row, last_row, tick_cycle)
        hammer.on_activate(row, cycle)
        acts += 1
        victims = scheme.on_activate(row, cycle)
        for victim in victims:
            hammer.on_refresh_row(victim)
        if rfm_logic is not None and rfm_logic.on_activate(
            flag_reader=scheme.rfm_needed_flag
        ):
            rfm_commands += 1
            cycle += timings.trfm_cycles
            for victim in scheme.on_rfm(cycle):
                hammer.on_refresh_row(victim)
    return SafetyReport(
        scheme_name=scheme.name,
        flip_th=flip_th,
        acts_replayed=acts,
        flips=list(hammer.flips),
        max_disturbance=hammer.max_disturbance,
        preventive_refresh_rows=scheme.stats.preventive_refresh_rows,
        rfm_commands=rfm_commands,
        arr_requests=scheme.stats.arr_requests,
    )
