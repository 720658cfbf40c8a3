"""Unit tests for the counting Bloom filters (BlockHammer's tracker)."""

import pytest

from repro.streaming.counting_bloom import (
    CountingBloomFilter,
    DualCountingBloomFilter,
)


class TestCountingBloomFilter:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(size=0)
        with pytest.raises(ValueError):
            CountingBloomFilter(size=8, num_hashes=0)

    def test_never_underestimates(self):
        cbf = CountingBloomFilter(size=64, num_hashes=4)
        truth = {}
        for i in range(500):
            element = i % 30
            cbf.observe(element)
            truth[element] = truth.get(element, 0) + 1
        for element, count in truth.items():
            assert cbf.estimate(element) >= count

    def test_estimate_of_unseen_zero_when_empty(self):
        cbf = CountingBloomFilter(size=32)
        assert cbf.estimate(12345) == 0

    def test_count_accumulates(self):
        cbf = CountingBloomFilter(size=1024)
        cbf.observe("row", 7)
        assert cbf.estimate("row") >= 7

    def test_reset(self):
        cbf = CountingBloomFilter(size=16)
        cbf.observe("a", 5)
        cbf.reset()
        assert cbf.estimate("a") == 0
        assert cbf.total_observed == 0

    def test_rejects_non_positive_count(self):
        cbf = CountingBloomFilter(size=16)
        with pytest.raises(ValueError):
            cbf.observe("a", 0)

    def test_indices_deterministic(self):
        cbf = CountingBloomFilter(size=64, num_hashes=4, seed=7)
        assert cbf._indices(42) == cbf._indices(42)


class TestDualCountingBloomFilter:
    def test_rejects_tiny_epoch(self):
        with pytest.raises(ValueError):
            DualCountingBloomFilter(size=8, epoch_length=1)

    def test_estimates_cover_recent_history(self):
        dual = DualCountingBloomFilter(size=256, epoch_length=100)
        for _ in range(30):
            dual.observe("hot")
        assert dual.estimate("hot") >= 30

    def test_rotation_forgets_stale_history_eventually(self):
        dual = DualCountingBloomFilter(size=256, epoch_length=20)
        for _ in range(15):
            dual.observe("old")
        # push two half-epochs of other traffic; "old" ages out
        for i in range(25):
            dual.observe(f"noise{i}")
        assert dual.estimate("old") < 15

    def test_never_underestimates_within_half_epoch(self):
        dual = DualCountingBloomFilter(size=512, epoch_length=1000)
        for _ in range(40):
            dual.observe("r")
        assert dual.estimate("r") >= 40

    def test_reset(self):
        dual = DualCountingBloomFilter(size=64, epoch_length=10)
        dual.observe("a", 5)
        dual.reset()
        assert dual.estimate("a") == 0
