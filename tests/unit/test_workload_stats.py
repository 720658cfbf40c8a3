"""Unit tests for the workload characterization module."""

import pytest

from repro.workloads.stats import (
    WorkloadProfile,
    expected_tracker_spread,
    profile_traces,
)
from repro.workloads.synthetic import (
    random_access_trace,
    streaming_sweep_trace,
)
from repro.workloads.trace import CoreTrace, TraceEntry


def _trace(locations, writes=None):
    entries = [
        TraceEntry(
            gap_cycles=0,
            bank_index=bank,
            row=row,
            is_write=bool(writes and i in writes),
            instructions=1,
        )
        for i, (bank, row) in enumerate(locations)
    ]
    return CoreTrace.from_entries(name="t", entries=entries)


class TestProfileTraces:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            profile_traces([CoreTrace(name="empty")])

    def test_basic_counts(self):
        profile = profile_traces(
            [_trace([(0, 1), (0, 1), (1, 2)], writes={2})]
        )
        assert profile.total_requests == 3
        assert profile.write_fraction == pytest.approx(1 / 3)
        assert profile.footprint_rows == 2
        assert profile.banks_touched == 2

    def test_burst_lengths(self):
        profile = profile_traces(
            [_trace([(0, 1), (0, 1), (0, 1), (0, 2)])]
        )
        assert profile.max_burst_length == 3
        assert profile.mean_burst_length == pytest.approx(2.0)

    def test_act_per_access_all_hits(self):
        profile = profile_traces([_trace([(0, 1)] * 10)])
        assert profile.act_per_access_estimate == pytest.approx(0.1)

    def test_act_per_access_all_misses(self):
        profile = profile_traces(
            [_trace([(0, i) for i in range(10)])]
        )
        assert profile.act_per_access_estimate == 1.0

    def test_reuse_distance(self):
        profile = profile_traces(
            [_trace([(0, 1), (0, 2), (0, 1), (0, 2)])]
        )
        assert profile.reuse_distance_p50 == 2

    def test_hottest_row_share(self):
        profile = profile_traces(
            [_trace([(0, 1), (0, 1), (0, 1), (0, 2)])]
        )
        assert profile.hottest_row_share == pytest.approx(0.75)

    def test_sweep_has_long_bursts_random_does_not(self):
        sweep = profile_traces(
            [streaming_sweep_trace(num_requests=512, accesses_per_row=16)]
        )
        rand = profile_traces(
            [random_access_trace(num_requests=512)]
        )
        assert sweep.mean_burst_length > 4 * rand.mean_burst_length
        assert rand.act_per_access_estimate > sweep.act_per_access_estimate

    def test_multi_core_interleaving(self):
        a = _trace([(0, 1)] * 4)
        b = _trace([(0, 2)] * 4)
        profile = profile_traces([a, b])
        # round-robin interleave alternates rows: every access misses
        assert profile.act_per_access_estimate == 1.0


class TestExpectedSpread:
    def test_benign_spread_near_burst_length(self):
        sweep = profile_traces(
            [streaming_sweep_trace(num_requests=2048,
                                   accesses_per_row=128,
                                   footprint_rows=4096)]
        )
        spread = expected_tracker_spread(sweep, n_entries=256, rfm_th=64)
        assert spread <= 200  # within the paper's AdTH range

    def test_hot_row_spread_scales_with_share(self):
        hot = profile_traces([_trace([(0, 1)] * 99 + [(0, 2)])])
        spread = expected_tracker_spread(hot, n_entries=16, rfm_th=64)
        assert spread > 30
