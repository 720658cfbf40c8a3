"""Unit tests for the PARFM failure-probability analysis (Appendix C)."""

import math

import pytest

from repro.analysis.parfm_failure import (
    _single_row_failure,
    parfm_bank_failure_probability,
    parfm_rfm_th_for,
    parfm_system_failure_probability,
)
from repro.params import DramTimings


def _scalar_single_row_failure(rfm_th, flip_th, intervals):
    """The recurrence one term at a time, as first written: the oracle
    the block-wise evaluation must match bit for bit."""
    half = flip_th // 2
    acts_per_interval = max(1, math.ceil(half / max(1, intervals)))
    if acts_per_interval >= rfm_th:
        return 0.0
    streak = math.ceil(half / acts_per_interval)
    if intervals < streak:
        return 0.0
    select_p = acts_per_interval / rfm_th
    survive = (1.0 - select_p) ** streak
    p = [0.0] * (intervals + 1)
    p[streak] = survive
    step = select_p * survive
    for i in range(streak + 1, intervals + 1):
        p[i] = p[i - 1] + step * (1.0 - p[i - streak - 1])
    return min(1.0, p[intervals])


class TestBlockwiseRecurrence:
    """``_single_row_failure`` evaluates the recurrence in blocks of
    ``streak + 1`` terms; every result equals the scalar loop's."""

    @pytest.mark.parametrize("flip_th", [50, 101, 1_500, 3_125, 6_250,
                                         12_500])
    def test_bit_equal_to_scalar_loop(self, flip_th):
        timings = DramTimings()
        regimes = set()
        for rfm_th in (2, 3, 5, 16, 33, 68, 138, 139, 500, 1024):
            half = flip_th // 2
            for intervals in (
                timings.rfm_intervals_per_trefw(rfm_th),  # the real count
                0, 1, 7, half - 1, half, half + 1, 2 * half + 1,
                3 * flip_th + 5,
            ):
                got = _single_row_failure(rfm_th, flip_th, intervals)
                want = _scalar_single_row_failure(rfm_th, flip_th, intervals)
                assert type(got) is float
                assert got == want, (rfm_th, flip_th, intervals)
                acts = max(1, math.ceil(half / max(1, intervals)))
                if acts >= rfm_th or intervals < math.ceil(half / acts):
                    regimes.add("zero")
                else:
                    regimes.add("one-act" if acts == 1 else "multi-act")
        # both regimes of the generalized recurrence and the early 0.0
        assert regimes == {"zero", "one-act", "multi-act"}


class TestFailureProbability:
    def test_probability_in_unit_interval(self):
        for rfm_th in (4, 16, 64):
            p = parfm_bank_failure_probability(rfm_th, flip_th=6_250)
            assert 0.0 <= p <= 1.0

    def test_failure_grows_with_rfm_th(self):
        low = parfm_bank_failure_probability(8, flip_th=6_250)
        high = parfm_bank_failure_probability(64, flip_th=6_250)
        assert high > low

    def test_failure_shrinks_with_flip_th(self):
        weak = parfm_bank_failure_probability(32, flip_th=1_500)
        strong = parfm_bank_failure_probability(32, flip_th=12_500)
        assert strong < weak

    def test_system_failure_scales_with_banks(self):
        one = parfm_system_failure_probability(32, 6_250, n_banks=1)
        many = parfm_system_failure_probability(32, 6_250, n_banks=22)
        assert many >= one

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            parfm_bank_failure_probability(1, 6_250)
        with pytest.raises(ValueError):
            parfm_bank_failure_probability(16, 2)


class TestRfmThSelection:
    def test_selected_rfm_th_meets_target(self):
        for flip_th in (6_250, 12_500):
            rfm_th = parfm_rfm_th_for(flip_th, target=1e-15)
            assert rfm_th is not None
            assert parfm_system_failure_probability(rfm_th, flip_th) < 1e-15
            # one step larger must violate the target (maximality)
            assert (
                parfm_system_failure_probability(rfm_th + 1, flip_th) >= 1e-15
            )

    def test_lower_flip_th_needs_lower_rfm_th(self):
        """The paper's key point: PARFM must issue RFMs more often than
        Mithril as FlipTH shrinks."""
        high = parfm_rfm_th_for(25_000)
        low = parfm_rfm_th_for(1_500)
        assert low < high

    def test_paper_flip_thresholds(self):
        """The RFM_TH each paper FlipTH gets (fig10's PARFM points)."""
        assert [
            parfm_rfm_th_for(flip_th)
            for flip_th in (12_500, 6_250, 3_125, 1_500)
        ] == [138, 68, 33, 16]

    def test_parfm_rfm_th_below_mithril(self):
        """At low FlipTH, PARFM's RFM_TH is below Mithril's (Section VI)."""
        from repro.params import MITHRIL_DEFAULT_RFM_TH

        rfm_th = parfm_rfm_th_for(1_500)
        assert rfm_th < MITHRIL_DEFAULT_RFM_TH[1_500]
