"""RFM issue logic of the memory controller (Figure 1 of the paper).

The MC keeps one Rolling Accumulated ACT (RAA) counter per bank.  Every
ACT increments the bank's counter; when it reaches RFM_TH the MC issues
an RFM command to that bank and resets the counter.  The command gives
the in-DRAM protection scheme a tRFM time margin, row-agnostic and
periodic in ACT count — it cannot be issued in a bursty way, which is
exactly why threshold-triggered prior schemes fail on this interface
(Section III-A).

With Mithril+ the MC first reads the DRAM mode register (MRR); when the
DRAM reports a small table spread, the RFM is skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RaaCounter:
    """Rolling Accumulated ACT counter for one bank.

    ACTs count it up and the issue logic resets it at RFM_TH; no RAAMMT
    cap and no REF credit apply, so the RFM decision comes once every
    RFM_TH ACTs (the modelling choice is in docs/EXPERIMENTS.md).
    """

    rfm_th: int
    value: int = 0

    def on_activate(self) -> bool:
        """Count one ACT; True when the RFM threshold is reached."""
        if self.rfm_th <= 0:
            return False
        self.value += 1
        return self.value >= self.rfm_th

    def reset(self) -> None:
        self.value = 0


@dataclass
class RfmIssueLogic:
    """Per-bank RFM decision state, including the Mithril+ MRR gate."""

    rfm_th: int
    mrr_gated: bool = False
    raa: RaaCounter = field(init=False)
    rfm_issued: int = 0
    rfm_elided: int = 0
    mrr_reads: int = 0

    def __post_init__(self) -> None:
        self.raa = RaaCounter(self.rfm_th)

    def on_activate(self, flag_reader=None) -> bool:
        """Register an ACT; True when an RFM command must go out now.

        ``flag_reader`` is the Mithril+ mode-register read callback; it
        is only consulted at the RAA threshold and only when MRR gating
        is enabled.
        """
        if not self.raa.on_activate():
            return False
        self.raa.reset()
        if self.mrr_gated and flag_reader is not None:
            self.mrr_reads += 1
            if not flag_reader():
                self.rfm_elided += 1
                return False
        self.rfm_issued += 1
        return True
