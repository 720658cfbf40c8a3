"""Per-bank controller: ties timing, refresh, RowHammer model and scheme.

This is the piece of the simulator where the MC-DRAM cooperation of the
paper actually happens:

* every ACT updates the protection scheme's tracker and the RowHammer
  fault model, and bumps the MC's RAA counter;
* when the RAA counter saturates, the MC issues RFM (possibly gated by
  the Mithril+ MRR flag) and the bank is blocked for tRFM while the
  scheme performs its preventive refreshes;
* ARR-based legacy schemes instead demand immediate victim refreshes
  after a hazardous ACT, blocking the bank for tRC per victim row;
* auto-refresh ticks restore one row group per tREFI and block the
  bank for tRFC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dram.bank import BankServiceResult, BankTimingModel, FawTracker
from repro.dram.hammer import HammerModel
from repro.dram.refresh import AutoRefreshEngine
from repro.mc.rfm import RfmIssueLogic
from repro.params import SystemConfig
from repro.protection import NoProtection, ProtectionScheme
from repro.types import EnergyCounts, MemoryRequest


@dataclass
class ChannelState:
    """Shared per-channel resources: data bus and rank ACT window."""

    bus_free_cycle: int = 0
    faw: Optional[FawTracker] = None


class BankController:
    """All state needed to serve requests on one DRAM bank."""

    def __init__(
        self,
        config: SystemConfig,
        scheme: Optional[ProtectionScheme] = None,
        rfm_th: int = 0,
        flip_th: int = 10_000,
        channel_state: Optional[ChannelState] = None,
        page_policy=None,
        track_hammer: bool = True,
    ):
        timings = config.timings
        organization = config.organization
        self.config = config
        self.scheme = scheme or NoProtection()
        self.channel_state = channel_state or ChannelState(
            faw=FawTracker(timings.tfaw_cycles)
        )
        self.bank = BankTimingModel(timings, faw=self.channel_state.faw)
        self.refresh = AutoRefreshEngine(timings, organization)
        self.hammer: Optional[HammerModel] = (
            HammerModel(flip_th, organization.rows_per_bank)
            if track_hammer
            else None
        )
        self.page_policy = page_policy
        self.queue: List[MemoryRequest] = []
        self._consecutive_hits = 0
        self._trc_cycles = timings.trc_cycles
        self._trfm_cycles = timings.trfm_cycles
        self._trfc_cycles = timings.trfc_cycles
        self.rfm_logic = (
            RfmIssueLogic(rfm_th, mrr_gated=self.scheme.uses_mrr_gating)
            if (self.scheme.uses_rfm and rfm_th > 0)
            else None
        )
        self.energy = EnergyCounts()
        self.arr_stall_cycles = 0
        self.rfm_stall_cycles = 0
        self.refresh_stall_cycles = 0

    def never_throttles(self) -> bool:
        """True when ``throttle_release`` is the inherited no-op.

        The event loop then skips release bookkeeping entirely.
        Evaluated live (not cached at construction) so that a
        ``throttle_release`` override installed anywhere — a
        BankController subclass or class-level patch, this controller
        instance, the scheme class, or the scheme instance — is
        always honored.
        """
        return (
            type(self).throttle_release is BankController.throttle_release
            and type(self.scheme).throttle_release
            is ProtectionScheme.throttle_release
            and "throttle_release" not in self.scheme.__dict__
            and "throttle_release" not in self.__dict__
        )

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------

    def advance_refresh(self, cycle: int) -> None:
        """Apply every auto-refresh tick due at or before ``cycle``."""
        if cycle < self.refresh.next_tick_cycle:
            return  # fast path: this runs once per served request
        for tick_cycle, first_row, last_row in self.refresh.drain_due(cycle):
            before = self.bank.ready_cycle
            self.bank.block_for(tick_cycle, self._trfc_cycles)
            self.refresh_stall_cycles += self.bank.ready_cycle - max(
                before, tick_cycle
            )
            if self.hammer is not None:
                self.hammer.on_refresh_range(first_row, last_row)
            self.scheme.on_autorefresh(first_row, last_row, tick_cycle)
            self.energy.auto_refreshes += 1

    # ------------------------------------------------------------------
    # the ACT/RD/WR path
    # ------------------------------------------------------------------

    def throttle_release(self, request: MemoryRequest, cycle: int) -> int:
        """Earliest cycle the request's ACT may occur (throttling)."""
        if self.bank.open_row == request.address.row:
            return cycle  # row hit: no ACT involved
        return self.scheme.throttle_release(request.address.row, cycle)

    def serve(self, request: MemoryRequest, cycle: int) -> BankServiceResult:
        """Serve one request; updates every cooperating component."""
        self.advance_refresh(cycle)
        row = request.address.row
        act_not_before = self.scheme.throttle_release(row, cycle)
        close_after = False
        if self.page_policy is not None:
            hits = self._consecutive_hits if self.bank.open_row == row else 0
            close_after = self.page_policy.should_close(row, hits, self.queue)
        result = self.bank.serve_access(
            row,
            cycle,
            bus_free_cycle=self.channel_state.bus_free_cycle,
            close_after=close_after,
            act_not_before=act_not_before,
        )
        self.channel_state.bus_free_cycle = result.data_cycle
        if result.row_hit:
            self._consecutive_hits += 1
        else:
            self._consecutive_hits = 1
        if request.is_write:
            self.energy.writes += 1
        else:
            self.energy.reads += 1
        if result.activated:
            self._on_activated(row, result)
        request.completion_cycle = result.data_cycle
        return result

    def _on_activated(self, row: int, result: BankServiceResult) -> None:
        cycle = result.start_cycle
        self.energy.acts += 1
        if result.precharged:
            self.energy.pres += 1
        if self.hammer is not None:
            self.hammer.on_activate(row, cycle)
        arr_victims = self.scheme.on_activate(row, cycle)
        if arr_victims:
            self._apply_arr(arr_victims, cycle)
        if self.rfm_logic is not None and self.rfm_logic.on_activate(
            flag_reader=self.scheme.rfm_needed_flag
        ):
            self._apply_rfm(cycle)
        if self.rfm_logic is not None and self.rfm_logic.mrr_reads:
            # Energy for MRR reads is accounted once per read.
            delta = self.rfm_logic.mrr_reads - self.energy.mrr_commands
            if delta > 0:
                self.energy.mrr_commands += delta

    def _apply_arr(self, victims: List[int], cycle: int) -> None:
        """Legacy ARR: refresh the victims now, stalling the bank."""
        self.scheme.stats.arr_requests += 1
        before = self.bank.ready_cycle
        self.bank.block_for(
            self.bank.ready_cycle, self._trc_cycles * len(victims)
        )
        self.arr_stall_cycles += self.bank.ready_cycle - before
        self.energy.preventive_refresh_rows += len(victims)
        if self.hammer is not None:
            for victim in victims:
                self.hammer.on_refresh_row(victim)

    def _apply_rfm(self, cycle: int) -> None:
        """Issue RFM: block tRFM and let the scheme refresh victims."""
        self.energy.rfm_commands += 1
        victims = self.scheme.on_rfm(cycle)
        before = self.bank.ready_cycle
        self.bank.block_for(self.bank.ready_cycle, self._trfm_cycles)
        self.rfm_stall_cycles += self.bank.ready_cycle - before
        self.energy.preventive_refresh_rows += len(victims)
        if self.hammer is not None:
            for victim in victims:
                self.hammer.on_refresh_row(victim)

    # ------------------------------------------------------------------

    @property
    def flip_count(self) -> int:
        return 0 if self.hammer is None else self.hammer.flip_count
