"""Unit tests for the Mithril table, scheme, and wrapping counters."""

import pytest

from repro.core.mithril import MithrilScheme, MithrilTable, WrappingCounter
from repro.schemes import build_scheme


class TestWrappingCounter:
    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            WrappingCounter(bits=1)

    def test_increment_wraps(self):
        counter = WrappingCounter(bits=4, value=15)
        counter.increment()
        assert counter.value == 0

    def test_comparison_across_wrap(self):
        a = WrappingCounter(bits=4, value=1)   # conceptually 17
        b = WrappingCounter(bits=4, value=14)  # conceptually 14
        assert a.difference(b) == 3
        assert a > b

    def test_comparison_within_range(self):
        a = WrappingCounter(bits=8, value=100)
        b = WrappingCounter(bits=8, value=90)
        assert a > b
        assert not b > a
        assert a >= b

    def test_set_to(self):
        a = WrappingCounter(bits=6, value=10)
        b = WrappingCounter(bits=6, value=50)
        a.set_to(b)
        assert a.value == 50

    def test_tracks_unbounded_counter_ordering(self):
        """Wrapped comparison equals true comparison while the true
        difference stays inside the half-window."""
        bits = 6
        window = 1 << (bits - 1)
        wrapped = [WrappingCounter(bits), WrappingCounter(bits)]
        true = [0, 0]
        import random

        rng = random.Random(42)
        for _ in range(1000):
            i = rng.randrange(2)
            wrapped[i].increment()
            true[i] += 1
            if abs(true[0] - true[1]) >= window:
                # re-sync the laggard, as demote-to-min does in hardware
                j = 0 if true[0] < true[1] else 1
                wrapped[j].set_to(wrapped[1 - j])
                true[j] = true[1 - j]
            expected = (true[0] > true[1]) - (true[0] < true[1])
            actual = (
                (wrapped[0].difference(wrapped[1]) > 0)
                - (wrapped[0].difference(wrapped[1]) < 0)
            )
            assert actual == expected


class TestMithrilTable:
    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            MithrilTable(0)

    def test_greedy_select_returns_hottest(self):
        table = MithrilTable(4)
        for _ in range(5):
            table.record_activation(10)
        table.record_activation(20)
        row, count = table.greedy_select()
        assert row == 10 and count == 5

    def test_demote_max_lowers_to_min(self):
        table = MithrilTable(2)
        for _ in range(9):
            table.record_activation(1)
        for _ in range(4):
            table.record_activation(2)
        demoted = table.demote_max()
        assert demoted == 1
        assert table.estimate(1) == 4

    def test_empty_table_selects_none(self):
        table = MithrilTable(4)
        assert table.greedy_select() is None
        assert table.demote_max() is None

    def test_spread(self):
        table = MithrilTable(2)
        for _ in range(7):
            table.record_activation(5)
        table.record_activation(6)
        assert table.spread() == table.max_count() - table.min_count()

    def test_counter_bits_overflow_detection(self):
        table = MithrilTable(2, counter_bits=3)  # window = 4
        with pytest.raises(OverflowError):
            for _ in range(10):
                table.record_activation(7)

    def test_max_spread_seen_tracks(self):
        table = MithrilTable(4)
        for _ in range(6):
            table.record_activation(1)
        assert table.max_spread_seen >= 6


class TestMithrilScheme:
    def test_registered(self):
        scheme = build_scheme("mithril", n_entries=16, rfm_th=8)
        assert isinstance(scheme, MithrilScheme)

    def test_mithril_plus_registered(self):
        scheme = build_scheme("mithril+", n_entries=16, rfm_th=8, adaptive_th=4)
        assert scheme.plus
        assert scheme.uses_mrr_gating

    def test_act_returns_no_arr(self):
        scheme = MithrilScheme(n_entries=8, rfm_th=4)
        assert scheme.on_activate(100, cycle=0) == []

    def test_rfm_refreshes_victims_of_hottest(self):
        scheme = MithrilScheme(n_entries=8, rfm_th=4)
        for _ in range(5):
            scheme.on_activate(100, 0)
        victims = scheme.on_rfm(cycle=10)
        assert sorted(victims) == [99, 101]
        # counter was demoted: next greedy pick differs or count dropped
        assert scheme.table.estimate(100) == scheme.table.min_count()

    def test_blast_radius_two_refreshes_four_rows(self):
        scheme = MithrilScheme(n_entries=8, rfm_th=4, blast_radius=2)
        scheme.on_activate(100, 0)
        victims = scheme.on_rfm(0)
        assert sorted(victims) == [98, 99, 101, 102]

    def test_edge_row_victims_clipped(self):
        scheme = MithrilScheme(n_entries=8, rfm_th=4, rows_per_bank=64)
        scheme.on_activate(0, 0)
        assert scheme.on_rfm(0) == [1]

    def test_adaptive_skips_small_spread(self):
        scheme = MithrilScheme(n_entries=8, rfm_th=4, adaptive_th=100)
        for _ in range(5):
            scheme.on_activate(1, 0)
        assert scheme.on_rfm(0) == []
        assert scheme.stats.rfms_skipped == 1

    def test_adaptive_fires_on_large_spread(self):
        scheme = MithrilScheme(n_entries=8, rfm_th=4, adaptive_th=10)
        for _ in range(20):
            scheme.on_activate(1, 0)
        assert scheme.on_rfm(0) != []

    def test_rfm_needed_flag_plain_mithril_always_true(self):
        scheme = MithrilScheme(n_entries=8, rfm_th=4, adaptive_th=100)
        assert scheme.rfm_needed_flag()

    def test_rfm_needed_flag_mithril_plus_gates(self):
        scheme = MithrilScheme(
            n_entries=8, rfm_th=4, adaptive_th=10, plus=True
        )
        for _ in range(3):
            scheme.on_activate(1, 0)
        assert not scheme.rfm_needed_flag()
        for _ in range(20):
            scheme.on_activate(1, 0)
        assert scheme.rfm_needed_flag()

    def test_empty_table_rfm_noop(self):
        scheme = MithrilScheme(n_entries=8, rfm_th=4)
        assert scheme.on_rfm(0) == []

    def test_rejects_bad_blast_radius(self):
        with pytest.raises(ValueError):
            MithrilScheme(blast_radius=0)

    def test_table_entries_reported(self):
        scheme = MithrilScheme(n_entries=123, rfm_th=8)
        assert scheme.table_entries() == 123
