"""Common interface for RowHammer protection schemes.

A scheme instance protects a *single DRAM bank* — this mirrors the
hardware, where the tracker structure is replicated per bank (Mithril,
TWiCe) or allocated per bank inside the MC (Graphene, BlockHammer).

The memory controller / simulator drives a scheme through:

* :meth:`on_activate` — every ACT to the bank.  The scheme may demand
  an immediate adjacent-row refresh (the legacy ARR path used by PARA,
  Graphene, TWiCe, CBT).
* :meth:`on_rfm` — every RFM command the MC issues to the bank (only
  when :attr:`uses_rfm` is true).  The scheme performs preventive
  refreshes inside the tRFM window (Mithril, PARFM, RFM-Graphene).
* :meth:`throttle_release` — consulted before scheduling an ACT;
  BlockHammer delays hazardous rows this way.
* :meth:`rfm_needed_flag` — the Mithril+ mode-register flag: the MC
  reads it (MRR) when the RAA counter saturates and skips the RFM
  command when the flag is clear.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List

from repro.types import SchemeLocation


@dataclass
class SchemeStats:
    """Bookkeeping every scheme keeps, used by the energy model."""

    acts_observed: int = 0
    rfms_received: int = 0
    rfms_skipped: int = 0           #: adaptive refresh skipped the work
    arr_requests: int = 0
    preventive_refresh_rows: int = 0
    mrr_reads: int = 0
    throttle_events: int = 0


class ProtectionScheme(abc.ABC):
    """Per-bank RowHammer protection scheme."""

    #: where the scheme lives (Table I); affects the area model
    location: SchemeLocation = SchemeLocation.MC
    #: True when the MC must run RAA counters and issue RFM commands
    uses_rfm: bool = False
    #: True when the MC reads the mode register before issuing RFM (Mithril+)
    uses_mrr_gating: bool = False

    def __init__(self) -> None:
        self.stats = SchemeStats()

    @abc.abstractmethod
    def on_activate(self, row: int, cycle: int) -> List[int]:
        """Observe an ACT on ``row``; return victim rows needing ARR now.

        An empty list means no immediate action.  Non-empty lists are
        only meaningful for ARR-based (non-RFM) schemes: the simulator
        models the returned rows being refreshed right away, stalling
        the bank.
        """

    def on_rfm(self, cycle: int) -> List[int]:
        """Handle an RFM command; return rows preventively refreshed."""
        return []

    def on_autorefresh(self, first_row: int, last_row: int, cycle: int) -> None:
        """Observe the auto-refresh of rows [first_row, last_row]."""

    def rfm_needed_flag(self) -> bool:
        """Mithril+ mode-register flag (True: the RFM is worth issuing)."""
        return True

    def throttle_release(self, row: int, cycle: int) -> int:
        """Earliest cycle the given row may be activated (throttling)."""
        return cycle

    @property
    def name(self) -> str:
        return type(self).__name__

    def table_entries(self) -> int:
        """Number of tracker entries (0 for probabilistic schemes)."""
        return 0


#: An ARR tracker refreshes an aggressor's victims every
#: ``FlipTH / ARR_TRIGGER_DIVISOR`` of its ACTs.  The hammer model
#: (:class:`repro.dram.hammer.HammerModel`) charges a victim for the
#: ACTs of both of its neighbours, so two aggressors share one victim's
#: budget (2); and a tracker can miss up to one trigger's worth of an
#: aggressor's ACTs (Graphene's table reset, Section IV-E; TWiCe's
#: pruned entries), which halves it again (2 x 2 = 4).
ARR_TRIGGER_DIVISOR = 4


def arr_trigger(flip_th: int) -> int:
    """ACTs to one aggressor after which an ARR tracker refreshes its
    victims (Graphene, TWiCe, CBT); see :data:`ARR_TRIGGER_DIVISOR`."""
    return max(1, flip_th // ARR_TRIGGER_DIVISOR)


class NoProtection(ProtectionScheme):
    """Baseline: no RowHammer mitigation at all."""

    location = SchemeLocation.MC
    uses_rfm = False

    def on_activate(self, row: int, cycle: int) -> List[int]:
        self.stats.acts_observed += 1
        return []
