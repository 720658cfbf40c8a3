"""Unit tests for trace format and benign workload generators."""

import numpy as np
import pytest

from repro.workloads.multithreaded import (
    _zipf_weights,
    fft_like,
    pagerank_like,
    radix_like,
)
from repro.workloads.spec_like import mix_blend, mix_high
from repro.workloads.synthetic import (
    random_access_trace,
    streaming_sweep_trace,
    strided_trace,
)
from repro.workloads.trace import CoreTrace, TraceEntry


class TestTraceFormat:
    def test_total_instructions(self):
        trace = CoreTrace.from_entries(
            name="t",
            entries=[
                TraceEntry(gap_cycles=1, bank_index=0, row=0, instructions=5),
                TraceEntry(gap_cycles=2, bank_index=0, row=1, instructions=7),
            ],
        )
        assert trace.total_instructions == 12

    def test_banks_touched(self):
        trace = CoreTrace.from_entries(
            name="t",
            entries=[
                TraceEntry(0, bank_index=3, row=0),
                TraceEntry(0, bank_index=1, row=0),
                TraceEntry(0, bank_index=3, row=1),
            ],
        )
        assert trace.banks_touched() == [1, 3]

    def test_save_load_roundtrip(self, tmp_path):
        trace = streaming_sweep_trace(num_requests=50, seed=9)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = CoreTrace.load(path)
        assert loaded.name == trace.name
        assert loaded.memory_intensive == trace.memory_intensive
        assert list(loaded) == list(trace)


class TestSyntheticGenerators:
    def test_deterministic_with_seed(self):
        a = streaming_sweep_trace(num_requests=100, seed=5)
        b = streaming_sweep_trace(num_requests=100, seed=5)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = random_access_trace(num_requests=100, seed=1)
        b = random_access_trace(num_requests=100, seed=2)
        assert list(a) != list(b)

    def test_sweep_has_row_locality(self):
        trace = streaming_sweep_trace(
            num_requests=320, accesses_per_row=16, mean_gap=0
        )
        entries = list(trace)
        # consecutive entries mostly share (bank, row)
        same = sum(
            1
            for a, b in zip(entries, entries[1:])
            if (a.bank_index, a.row) == (b.bank_index, b.row)
        )
        assert same / len(trace) > 0.8

    def test_random_access_low_locality(self):
        trace = random_access_trace(num_requests=500, footprint_rows=65536)
        entries = list(trace)
        same = sum(
            1
            for a, b in zip(entries, entries[1:])
            if (a.bank_index, a.row) == (b.bank_index, b.row)
        )
        assert same / len(trace) < 0.05

    def test_requests_within_bounds(self):
        for trace in (
            streaming_sweep_trace(num_requests=200, num_banks=8),
            random_access_trace(num_requests=200, num_banks=8),
            strided_trace(num_requests=200, num_banks=8),
        ):
            for entry in trace:
                assert 0 <= entry.bank_index < 8
                assert 0 <= entry.row < 65536
                assert entry.gap_cycles >= 0
                assert entry.instructions >= 1

    def test_rejects_bad_accesses_per_row(self):
        with pytest.raises(ValueError):
            streaming_sweep_trace(accesses_per_row=0)


class TestMixes:
    def test_mix_high_all_intensive(self):
        traces = mix_high(num_cores=4, num_requests=50)
        assert len(traces) == 4
        assert all(t.memory_intensive for t in traces)

    def test_mix_blend_has_both(self):
        traces = mix_blend(num_cores=16, num_requests=50)
        intensities = [t.memory_intensive for t in traces]
        assert any(intensities) and not all(intensities)

    def test_mix_reproducible(self):
        a = mix_high(num_cores=4, num_requests=30, seed=3)
        b = mix_high(num_cores=4, num_requests=30, seed=3)
        assert [list(t) for t in a] == [list(t) for t in b]


class TestMultithreaded:
    def test_shapes(self):
        for maker in (fft_like, radix_like, pagerank_like):
            traces = maker(num_cores=4, num_requests=60, num_banks=8)
            assert len(traces) == 4
            assert all(len(t) == 60 for t in traces)

    def test_fft_partitions_disjoint_early(self):
        traces = fft_like(num_cores=4, num_requests=40,
                          footprint_rows=4096, num_banks=1)
        first_rows = {int(t.row[0]) for t in traces}
        assert len(first_rows) == 4  # each thread starts in its partition

    def test_pagerank_shares_footprint(self):
        traces = pagerank_like(num_cores=2, num_requests=400,
                               footprint_rows=256, num_banks=1)
        rows_a = {e.row for e in traces[0]}
        rows_b = {e.row for e in traces[1]}
        assert rows_a & rows_b  # overlapping hot vertices

    def test_zipf_weights_default(self):
        """pagerank's default vertex-popularity weights."""
        ranks = np.arange(1, 65537, dtype=np.float64)
        expected = 1.0 / np.power(ranks, 0.75)
        expected /= expected.sum()
        got = _zipf_weights(65536, 0.75)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == expected.tolist()


class TestNumpyRngPins:
    """Known draws of numpy's seeded RNG, the source of every workload.

    The cache salt (``code_version``) hashes the repro sources, not the
    numpy version, so a numpy upgrade that changed ``SeedSequence``,
    ``PCG64`` or ``Generator`` draws would silently change traces under
    unchanged cache keys.  These pins fail loudly first.
    """

    def test_seed_sequence_pool_words(self):
        state = np.random.SeedSequence(11).generate_state(4, np.uint64)
        assert state.tolist() == [
            3926704849073358691,
            2926583794887213564,
            215141457385765089,
            15564452721439488421,
        ]

    def test_pcg64_raw_stream(self):
        assert np.random.PCG64(21).random_raw(4).tolist() == [
            14409076252388976754,
            11175905102312791203,
            13093520902678603757,
            1643565659307885790,
        ]

    def test_first_doubles(self):
        rng = np.random.default_rng(11)
        draws = [rng.random() for _ in range(3)]
        assert draws == [
            0.12857020276919962,
            0.49927786244011496,
            0.6014983576233575,
        ]

    def test_first_exponential_draws(self):
        rng = np.random.default_rng(23)
        assert rng.exponential(24.0, size=3).tolist() == [
            3.5419151169648635,
            6.396839519556968,
            2.634583315877207,
        ]

    def test_lemire_integers(self):
        rng = np.random.default_rng(31)
        assert rng.integers(0, 4, size=8).tolist() == [
            2, 3, 1, 0, 2, 2, 0, 1,
        ]

    def test_determinism(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        assert (
            a.exponential(3.0, size=64).tolist()
            == b.exponential(3.0, size=64).tolist()
        )
        assert (
            a.integers(0, 1000, size=64).tolist()
            == b.integers(0, 1000, size=64).tolist()
        )
