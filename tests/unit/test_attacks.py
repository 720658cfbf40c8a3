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
        rows = [e.row for e in trace]
        assert rows == [99, 101, 99, 101, 99, 101]

    def test_every_access_misses(self):
        """Alternating rows defeats the row buffer: all ACTs."""
        trace = double_sided_trace(victim_row=100, total_requests=10)
        rows = [e.row for e in trace]
        assert all(a != b for a, b in zip(rows, rows[1:]))


class TestMultiSided:
    def test_aggressor_spacing_leaves_victims(self):
        trace = multi_sided_trace(num_victims=4, base_row=10, total_requests=10)
        rows = sorted({e.row for e in trace})
        assert rows == [10, 12, 14, 16, 18]

    def test_rotation_covers_all_aggressors(self):
        trace = multi_sided_trace(num_victims=32, total_requests=33)
        assert len({e.row for e in trace}) == 33


class TestRotation:
    def test_row_count(self):
        trace = rotation_attack_trace(num_rows=7, total_requests=21)
        assert len({e.row for e in trace}) == 7

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
        rows = [e.row for e in trace]
        assert len(set(rows)) >= 2
        assert all(a != b for a, b in zip(rows, rows[1:]))

    def test_trace_is_reads_only(self):
        trace = blockhammer_adversarial_trace(
            benign_rows=[10, 20], cbf_size=128, blacklist_threshold=8,
            total_requests=12,
        )
        assert all(not e.is_write for e in trace)


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
        cbf = CountingBloomFilter(size=64, num_hashes=4, seed=0xB10F)
        for target in (5, 999, 4021):
            assert find_aliasing_rows(
                cbf, target, count=6, search_space=4096
            ) == self._scalar_aliasing(cbf, target, 6, 4096)

    def test_find_covering_matches_scalar_sweep(self):
        from repro.workloads.attacks import (
            _covering_rows,
            _vectorized_probe_matrix,
        )

        cbf = CountingBloomFilter(size=256, num_hashes=4, seed=0xB10F)
        # One matrix shared across targets, as an attacker build does.
        shared = _vectorized_probe_matrix(cbf, 8192)
        targets = (7, 123, 5000)
        expected = [
            self._scalar_covering(cbf, target, 8192) for target in targets
        ]
        for target, covers in zip(targets, expected):
            assert find_covering_rows(
                cbf, target, search_space=8192
            ) == covers
        assert _covering_rows(cbf, targets, shared) == expected

    @pytest.mark.parametrize("size", [1024, 2048, 4096, 8192])
    def test_profiling_matches_scalar_sweep_at_campaign_sizes(self, size):
        """The one profiling pass (probe matrix over the full search
        space, one lookup of every probe in the targets' counters)
        equals the scalar loops at the CBF sizes BlockHammer's
        campaign configurations use, for targets inside and outside
        the search space, one profiling pass serving them all."""
        from repro.workloads.attacks import (
            PROFILE_SEARCH_SPACE,
            _covering_rows,
            _vectorized_probe_matrix,
        )

        cbf = CountingBloomFilter(size=size, num_hashes=4, seed=0xB10F)
        targets = [3, 1000, 40_961, 65_535, 70_000, 123_456]
        expected = [
            self._scalar_covering(cbf, target, PROFILE_SEARCH_SPACE)
            for target in targets
        ]
        matrix = _vectorized_probe_matrix(cbf, PROFILE_SEARCH_SPACE)
        assert _covering_rows(cbf, targets, matrix) == expected
        for target, covers in zip(targets, expected):
            assert find_covering_rows(cbf, target) == covers
            assert find_aliasing_rows(
                cbf, target, count=8
            ) == self._scalar_aliasing(cbf, target, 8, PROFILE_SEARCH_SPACE)
        # Rows sharing two counters are rare: a scalar sweep of the
        # full search space would scan it all, so this one is smaller.
        for target in targets[:2]:
            assert find_aliasing_rows(
                cbf, target, count=3, search_space=8192, min_shared=2
            ) == self._scalar_aliasing(cbf, target, 3, 8192, min_shared=2)

    def test_probe_indices_many_matches_scalar(self):
        from repro.workloads.attacks import _vectorized_probe_matrix

        cbf = CountingBloomFilter(size=128, num_hashes=5, seed=0x1234)
        rows = list(range(500))
        assert _vectorized_probe_matrix(cbf, len(rows)).tolist() == [
            cbf._indices(row) for row in rows
        ]
