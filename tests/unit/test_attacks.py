"""Unit tests for the attack trace generators."""

import pytest

from repro.workloads.attacks import (
    blockhammer_adversarial_trace,
    double_sided_trace,
    find_aliasing_rows,
    find_covering_rows,
    multi_sided_trace,
    rotation_attack_trace,
)
from repro.streaming.counting_bloom import CountingBloomFilter


class TestDoubleSided:
    def test_alternates_neighbors(self):
        trace = double_sided_trace(victim_row=100, total_requests=6)
        rows = [e.row for e in trace.entries]
        assert rows == [99, 101, 99, 101, 99, 101]

    def test_every_access_misses(self):
        """Alternating rows defeats the row buffer: all ACTs."""
        trace = double_sided_trace(victim_row=100, total_requests=10)
        rows = [e.row for e in trace.entries]
        assert all(a != b for a, b in zip(rows, rows[1:]))


class TestMultiSided:
    def test_aggressor_spacing_leaves_victims(self):
        trace = multi_sided_trace(num_victims=4, base_row=10, total_requests=10)
        rows = sorted({e.row for e in trace.entries})
        assert rows == [10, 12, 14, 16, 18]

    def test_rotation_covers_all_aggressors(self):
        trace = multi_sided_trace(num_victims=32, total_requests=33)
        assert len({e.row for e in trace.entries}) == 33


class TestRotation:
    def test_row_count(self):
        trace = rotation_attack_trace(num_rows=7, total_requests=21)
        assert len({e.row for e in trace.entries}) == 7

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            rotation_attack_trace(num_rows=0)


class TestBlockHammerAdversarial:
    def test_finds_aliases_in_small_filter(self):
        cbf = CountingBloomFilter(size=32, num_hashes=2)
        aliases = find_aliasing_rows(cbf, target_row=5, count=4,
                                     search_space=8192)
        assert aliases
        target = set(cbf._indices(5))
        for alias in aliases:
            assert target & set(cbf._indices(alias))

    def test_trace_alternates_rows(self):
        trace = blockhammer_adversarial_trace(
            benign_rows=[100], cbf_size=64, blacklist_threshold=16,
            total_requests=20,
        )
        rows = [e.row for e in trace.entries]
        assert len(set(rows)) >= 2
        assert all(a != b for a, b in zip(rows, rows[1:]))

    def test_trace_is_reads_only(self):
        trace = blockhammer_adversarial_trace(
            benign_rows=[10, 20], cbf_size=128, blacklist_threshold=8,
            total_requests=12,
        )
        assert all(not e.is_write for e in trace.entries)


class TestVectorizedProfiler:
    """The batch-probed profiling sweep equals the scalar lazy loops."""

    def _scalar_aliasing(self, cbf, target_row, count, search_space,
                         min_shared=1):
        target_indices = set(cbf._indices(target_row))
        aliases = []
        for row in range(search_space):
            if row == target_row:
                continue
            shared = sum(
                1 for idx in cbf._indices(row) if idx in target_indices
            )
            if shared >= min_shared:
                aliases.append(row)
                if len(aliases) >= count:
                    break
        return aliases

    def _scalar_covering(self, cbf, target_row, search_space):
        needed = list(dict.fromkeys(cbf._indices(target_row)))
        covers = []
        for index in needed:
            for row in range(search_space):
                if row == target_row or row in covers:
                    continue
                if index in cbf._indices(row):
                    covers.append(row)
                    break
        return covers

    def test_find_aliasing_matches_scalar_sweep(self):
        pytest.importorskip("numpy")
        cbf = CountingBloomFilter(size=64, num_hashes=4, seed=0xB10F)
        for target in (5, 999, 4021):
            assert find_aliasing_rows(
                cbf, target, count=6, search_space=4096
            ) == self._scalar_aliasing(cbf, target, 6, 4096)

    def test_find_covering_matches_scalar_sweep(self):
        pytest.importorskip("numpy")
        from repro.workloads.attacks import (
            _covering_rows,
            _vectorized_probe_matrix,
        )

        cbf = CountingBloomFilter(size=256, num_hashes=4, seed=0xB10F)
        # One matrix shared across targets, as an attacker build does.
        shared = _vectorized_probe_matrix(cbf, 8192)
        for target in (7, 123, 5000):
            expected = self._scalar_covering(cbf, target, 8192)
            assert find_covering_rows(
                cbf, target, search_space=8192
            ) == expected
            assert _covering_rows(cbf, target, 8192, shared) == expected

    def test_probe_indices_many_matches_scalar(self):
        np = pytest.importorskip("numpy")
        from repro.streaming.vectorized import NumpyCountingBloomFilter

        cbf = CountingBloomFilter(size=128, num_hashes=5, seed=0x1234)
        twin = NumpyCountingBloomFilter(128, 5, 0x1234)
        rows = list(range(500))
        assert (
            twin.probe_indices_many(rows).tolist()
            == cbf.probe_indices_many(rows)
        )
