"""Unit tests for the Counter-based Summary (Space-Saving) algorithm."""

from collections import Counter

import pytest

from repro.streaming.cbs import CounterSummary


class TestBasicOperation:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            CounterSummary(capacity=0)

    def test_rejects_non_positive_count(self):
        summary = CounterSummary(capacity=4)
        with pytest.raises(ValueError):
            summary.observe("a", count=0)

    def test_single_element_exact(self):
        summary = CounterSummary(capacity=4)
        for _ in range(10):
            summary.observe("a")
        assert summary.estimate("a") == 10

    def test_on_table_elements_exact_when_no_eviction(self):
        summary = CounterSummary(capacity=4)
        stream = ["a", "b", "a", "c", "a", "b"]
        for item in stream:
            summary.observe(item)
        truth = Counter(stream)
        for element, count in truth.items():
            assert summary.estimate(element) == count

    def test_off_table_estimate_is_table_min(self):
        summary = CounterSummary(capacity=2)
        summary.observe("a", 5)
        summary.observe("b", 3)
        assert summary.estimate("zzz") == summary.min_count == 3

    def test_min_count_zero_while_not_full(self):
        summary = CounterSummary(capacity=4)
        summary.observe("a", 7)
        assert summary.min_count == 0
        assert summary.estimate("other") == 0

    def test_eviction_replaces_minimum(self):
        summary = CounterSummary(capacity=2)
        summary.observe("a", 5)
        summary.observe("b", 2)
        summary.observe("c")  # evicts b (min=2), c gets 3
        assert "b" not in summary
        assert "c" in summary
        assert summary.estimate("c") == 3

    def test_contains_and_len(self):
        summary = CounterSummary(capacity=3)
        for element in ("x", "y"):
            summary.observe(element)
        assert "x" in summary and "y" in summary
        assert "z" not in summary
        assert len(summary) == 2

    def test_total_observed(self):
        summary = CounterSummary(capacity=2)
        summary.observe("a", 4)
        summary.observe("b")
        assert summary.total_observed == 5


class TestMinMaxTracking:
    def test_max_entry(self):
        summary = CounterSummary(capacity=4)
        summary.observe("a", 3)
        summary.observe("b", 9)
        summary.observe("c", 5)
        assert summary.max_entry() == ("b", 9)

    def test_min_entry(self):
        summary = CounterSummary(capacity=3)
        summary.observe("a", 3)
        summary.observe("b", 9)
        summary.observe("c", 5)
        assert summary.min_entry() == ("a", 3)

    def test_empty_table(self):
        summary = CounterSummary(capacity=2)
        assert summary.max_entry() is None
        assert summary.min_entry() is None
        assert summary.min_count == 0

    def test_max_tracks_across_evictions(self):
        summary = CounterSummary(capacity=2)
        summary.observe("a", 2)
        summary.observe("b", 4)
        for _ in range(5):
            summary.observe("c")  # evicts a, becomes 3.. then grows
        element, count = summary.max_entry()
        assert element == "c"
        assert count == 7

    def test_min_advances_when_bucket_drains(self):
        summary = CounterSummary(capacity=2)
        summary.observe("a", 2)
        summary.observe("b", 2)
        summary.observe("a")  # min bucket (2) still holds b
        assert summary.min_count == 2
        summary.observe("b")  # bucket 2 empties -> min 3
        assert summary.min_count == 3


class TestVictimOrder:
    """Evictions take the oldest entry of the minimum bucket (FIFO),
    the specified Space-Saving order the native kernel reproduces."""

    @staticmethod
    def _evicted_by(summary, stream):
        evicted = []
        for element in stream:
            before = set(dict(summary.items()))
            summary.observe(element)
            evicted.extend(sorted(before - set(dict(summary.items()))))
        return evicted

    def test_capacity_three_evicts_in_arrival_order(self):
        summary = CounterSummary(capacity=3)
        assert self._evicted_by(summary, "abcdefg") == ["a", "b", "c", "d"]
        assert summary.evictions == 4
        # d, e, f were inserted at 2 (d since replaced by g at 3): the
        # oldest survivor at the minimum is e
        assert summary.min_entry() == ("e", 2)

    def test_a_hit_requeues_at_the_back_of_its_new_bucket(self):
        summary = CounterSummary(capacity=2)
        for element in "abba":
            summary.observe(element)
        # both at 2; b reached 2 first, so b is the oldest minimum
        assert summary.min_entry() == ("b", 2)
        assert self._evicted_by(summary, "c") == ["b"]

    def test_demoted_entry_joins_the_minimum_bucket_last(self):
        summary = CounterSummary(capacity=3)
        for element in "aabbbc":
            summary.observe(element)
        summary.observe("c")  # a=2, b=3, c=2: bucket 2 is [a, c]
        summary.demote_to_min("b")
        assert [row for row, _ in summary.items()] == ["a", "b", "c"]
        assert summary.min_entry() == ("a", 2)
        assert self._evicted_by(summary, "xyz") == ["a", "c", "b"]


class TestDemoteToMin:
    def test_demote_sets_to_min(self):
        summary = CounterSummary(capacity=2)
        summary.observe("a", 9)
        summary.observe("b", 4)
        summary.demote_to_min("a")
        assert summary.estimate("a") == 4
        assert summary.max_entry()[1] == 4  # both entries now at the min

    def test_demote_when_not_full_goes_to_zero(self):
        summary = CounterSummary(capacity=4)
        summary.observe("a", 9)
        summary.demote_to_min("a")
        assert summary.estimate("a") == 0

    def test_demote_missing_raises(self):
        summary = CounterSummary(capacity=2)
        with pytest.raises(KeyError):
            summary.demote_to_min("ghost")

    def test_demote_of_min_is_noop(self):
        summary = CounterSummary(capacity=2)
        summary.observe("a", 5)
        summary.observe("b", 3)
        summary.demote_to_min("b")
        assert summary.estimate("b") == 3

    def test_repeated_demote_drains_table_max(self):
        summary = CounterSummary(capacity=3)
        summary.observe("a", 10)
        summary.observe("b", 8)
        summary.observe("c", 5)
        for _ in range(3):
            element, _ = summary.max_entry()
            summary.demote_to_min(element)
        # all counters equal the original minimum now
        assert summary.max_entry()[1] == 5
        assert summary.min_count == 5


class TestEntriesQueries:
    def test_entries_at_least(self):
        summary = CounterSummary(capacity=4)
        summary.observe("a", 10)
        summary.observe("b", 2)
        summary.observe("c", 7)
        hot = dict(summary.entries_at_least(7))
        assert hot == {"a": 10, "c": 7}

    def test_reset_clears_everything(self):
        summary = CounterSummary(capacity=2)
        summary.observe("a", 5)
        summary.reset()
        assert len(summary) == 0
        assert summary.max_entry() is None
        assert summary.min_count == 0
        summary.observe("b")
        assert summary.estimate("b") == 1
