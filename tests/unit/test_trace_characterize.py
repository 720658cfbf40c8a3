"""Unit tests: ACT-stream characterization metrics (exact values)."""

import pytest

from repro.traces import (
    characterize_trace,
    characterize_traceset,
    characterize_workload,
    expected_tracker_spread,
)
from repro.traces.ingest import TraceSet
from repro.workloads.synthetic import (
    random_access_trace,
    streaming_sweep_trace,
)
from repro.workloads.trace import CoreTrace, TraceEntry


def _entries(locations, writes=None, instructions=10):
    writes = writes or [False] * len(locations)
    return [
        TraceEntry(gap_cycles=0, bank_index=bank, row=row, column=0,
                   is_write=w, instructions=instructions)
        for (bank, row), w in zip(locations, writes)
    ]


def _core(name, entries):
    return CoreTrace.from_entries(name, entries)


class TestSingleTraceMetrics:
    def test_basic_counts(self):
        trace = _core(
            "t",
            _entries([(0, 1), (0, 1), (1, 2)], writes=[False, False, True]),
        )
        char = characterize_trace(trace)
        assert char.requests == 3
        assert char.write_fraction == pytest.approx(1 / 3)
        assert char.footprint_rows == 2
        assert char.banks_touched == 2

    def test_bursts_and_act_per_access(self):
        # two bursts of 2 on (0,1), then (0,2), then (1,5): bursts
        # [2, 1, 1]; open-row misses at indices 0, 2, 3.
        trace = _core("t", _entries([(0, 1), (0, 1), (0, 2), (1, 5)]))
        char = characterize_trace(trace)
        assert char.requests == 4
        assert char.act_per_access == pytest.approx(3 / 4)
        assert char.mean_burst_length == pytest.approx(4 / 3)
        assert char.max_burst_length == 2
        # CDF: bursts <=1 carry 2 requests; <=2 carries all 4.
        assert char.row_locality_cdf[1] == pytest.approx(0.5)
        assert char.row_locality_cdf[2] == pytest.approx(1.0)

    def test_hot_row_shares_and_footprint(self):
        trace = _core(
            "t", _entries([(0, 1)] * 6 + [(0, 2)] * 3 + [(1, 7)])
        )
        char = characterize_trace(trace)
        assert char.footprint_rows == 3
        assert char.hot_row_top1_share == pytest.approx(0.6)
        assert char.hot_row_top8_share == pytest.approx(1.0)

    def test_bank_imbalance_and_channel_share(self):
        # banks 0 and 32 sit in different channels of the default
        # organization (32 banks per channel).
        trace = _core("t", _entries([(0, 1)] * 3 + [(32, 1)]))
        char = characterize_trace(trace)
        assert char.banks_touched == 2
        assert char.bank_imbalance == pytest.approx(3 / 2)
        assert char.channel_share_top == pytest.approx(0.75)

    def test_mpki_and_write_fraction(self):
        trace = _core(
            "t",
            _entries([(0, 1), (0, 2)], writes=[True, False],
                     instructions=500),
        )
        char = characterize_trace(trace)
        assert char.total_instructions == 1000
        assert char.mpki_proxy == pytest.approx(2.0)
        assert char.write_fraction == pytest.approx(0.5)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="no requests"):
            characterize_trace(CoreTrace("empty"))


class TestWorkloadMerge:
    def test_round_robin_interleaving_breaks_bursts(self):
        # each core bursts on its own row; merged round-robin the
        # stream alternates between them, so merged bursts are 1.
        a = _core("a", _entries([(0, 1)] * 4))
        b = _core("b", _entries([(0, 2)] * 4))
        merged = characterize_workload([a, b])
        assert merged.requests == 8
        assert merged.mean_burst_length == pytest.approx(1.0)
        assert characterize_trace(a).mean_burst_length == pytest.approx(4.0)

    def test_traceset_characterization(self):
        traceset = TraceSet(
            name="ts",
            traces=[_core("a", _entries([(0, 1), (0, 2)])),
                    _core("b", _entries([(1, 1)]))],
        )
        aggregate, per_core = characterize_traceset(traceset)
        assert aggregate.name == "ts"
        assert aggregate.requests == 3
        assert [c.name for c in per_core] == ["a", "b"]

    def test_summary_is_json_scalars(self):
        char = characterize_trace(_core("t", _entries([(0, 1)])))
        summary = char.summary()
        assert summary["requests"] == 1
        import json

        json.dumps(summary)  # must be serializable as-is

    def test_sweep_has_long_bursts_random_does_not(self):
        sweep = characterize_workload(
            [streaming_sweep_trace(num_requests=512, accesses_per_row=16)]
        )
        rand = characterize_workload(
            [random_access_trace(num_requests=512)]
        )
        assert sweep.mean_burst_length > 4 * rand.mean_burst_length
        assert rand.act_per_access > sweep.act_per_access


class TestExpectedSpread:
    def test_benign_spread_near_burst_length(self):
        sweep = characterize_workload(
            [streaming_sweep_trace(num_requests=2048,
                                   accesses_per_row=128,
                                   footprint_rows=4096)]
        )
        spread = expected_tracker_spread(sweep, rfm_th=64)
        assert spread <= 200  # within the paper's AdTH range

    def test_hot_row_spread_scales_with_share(self):
        hot = characterize_workload(
            [_core("t", _entries([(0, 1)] * 99 + [(0, 2)]))]
        )
        spread = expected_tracker_spread(hot, rfm_th=64)
        assert spread > 30
