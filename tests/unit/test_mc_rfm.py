"""Unit tests for the RAA counter and RFM issue logic (Figure 1)."""

import pytest

from repro.mc.rfm import RaaCounter, RfmIssueLogic


class TestRaaCounter:
    def test_threshold_reached(self):
        raa = RaaCounter(rfm_th=4)
        assert [raa.on_activate() for _ in range(4)] == [
            False, False, False, True,
        ]

    def test_reset(self):
        raa = RaaCounter(rfm_th=4)
        for _ in range(3):
            raa.on_activate()
        raa.reset()
        assert raa.value == 0
        assert not raa.on_activate()

    def test_zero_threshold_never_fires(self):
        raa = RaaCounter(rfm_th=0)
        assert not raa.on_activate()


class TestRfmIssueLogic:
    def test_issues_every_rfm_th_acts(self):
        logic = RfmIssueLogic(rfm_th=8)
        fired = sum(logic.on_activate() for _ in range(64))
        assert fired == 8
        assert logic.rfm_issued == 8

    def test_counter_resets_after_issue(self):
        logic = RfmIssueLogic(rfm_th=4)
        for _ in range(4):
            logic.on_activate()
        assert logic.raa.value == 0

    def test_mrr_gate_skips_when_flag_clear(self):
        logic = RfmIssueLogic(rfm_th=4, mrr_gated=True)
        fired = sum(
            logic.on_activate(flag_reader=lambda: False) for _ in range(16)
        )
        assert fired == 0
        assert logic.rfm_elided == 4
        assert logic.mrr_reads == 4

    def test_mrr_gate_issues_when_flag_set(self):
        logic = RfmIssueLogic(rfm_th=4, mrr_gated=True)
        fired = sum(
            logic.on_activate(flag_reader=lambda: True) for _ in range(16)
        )
        assert fired == 4
        assert logic.rfm_elided == 0

    def test_ungated_ignores_flag(self):
        logic = RfmIssueLogic(rfm_th=4, mrr_gated=False)
        fired = sum(
            logic.on_activate(flag_reader=lambda: False) for _ in range(8)
        )
        assert fired == 2
        assert logic.mrr_reads == 0

    def test_raa_resets_even_when_elided(self):
        """The MC resets its RAA counter whether or not the RFM goes out."""
        logic = RfmIssueLogic(rfm_th=4, mrr_gated=True)
        for _ in range(4):
            logic.on_activate(flag_reader=lambda: False)
        assert logic.raa.value == 0
