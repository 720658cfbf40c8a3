"""Unit tests: trace formats, readers, mapping, geometry normalization."""

import gzip
import json

import pytest

from repro.params import DEFAULT_CONFIG, DramOrganization
from repro.traces import (
    TraceGeometryError,
    detect_format,
    map_address,
    mapping_names,
    normalize_trace,
    read_trace,
    reader_names,
    write_binary,
)
from repro.traces.readers import read_binary, read_dramsim3_csv
from repro.workloads.synthetic import streaming_sweep_trace
from repro.workloads.trace import CoreTrace, TraceEntry


def _trace(n=40, seed=9):
    return streaming_sweep_trace(num_requests=n, seed=seed)


class TestCoreTraceRoundTrip:
    def test_resave_is_byte_identical(self, tmp_path):
        trace = _trace()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trace.save(first)
        CoreTrace.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_gzip_round_trip(self, tmp_path):
        trace = _trace()
        path = tmp_path / "trace.jsonl.gz"
        trace.save(path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # really gzipped
        loaded = CoreTrace.load(path)
        assert list(loaded) == list(trace)
        assert loaded.name == trace.name

    def test_gzip_resave_is_byte_identical(self, tmp_path):
        """mtime=0 in the gzip header keeps re-saves reproducible."""
        trace = _trace()
        first, second = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        trace.save(first)
        CoreTrace.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()


class TestReaderRegistry:
    def test_registry_lists_all_shipped_formats(self):
        assert reader_names() == ["binary", "dramsim3-csv", "jsonl"]

    def test_unknown_format_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _trace().save(path)
        with pytest.raises(KeyError, match="unknown trace format"):
            read_trace(path, format="no-such-format")

    @pytest.mark.parametrize("compress", [False, True])
    def test_binary_round_trip(self, tmp_path, compress):
        trace = _trace()
        path = tmp_path / ("t.bin.gz" if compress else "t.bin")
        write_binary(trace, path)
        loaded = read_binary(path)
        assert loaded.name == trace.name
        assert loaded.memory_intensive == trace.memory_intensive
        assert list(loaded) == list(trace)

    def test_binary_rewrite_is_byte_identical(self, tmp_path):
        trace = _trace()
        first, second = tmp_path / "a.bin.gz", tmp_path / "b.bin.gz"
        write_binary(trace, first)
        write_binary(read_binary(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_binary_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(ValueError, match="magic"):
            read_binary(path)

    def test_binary_rejects_truncated_columns(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary(_trace(), path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            read_binary(path)

    @staticmethod
    def _with_count(path, count):
        """Rewrite a binary trace's header ``count`` field."""
        magic, header, body = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields["count"] = count
        path.write_bytes(
            magic + b"\n" + json.dumps(fields).encode() + b"\n" + body
        )

    def test_binary_rejects_negative_count(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary(_trace(), path)
        self._with_count(path, -1)
        with pytest.raises(ValueError, match="non-negative integer"):
            read_binary(path)

    def test_binary_rejects_non_integer_count(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary(_trace(), path)
        self._with_count(path, 40.0)
        with pytest.raises(ValueError, match="non-negative integer"):
            read_binary(path)

    def test_detect_format(self, tmp_path):
        jsonl, binary, csv = (
            tmp_path / "a.jsonl", tmp_path / "b.bin.gz", tmp_path / "c.csv"
        )
        _trace().save(jsonl)
        write_binary(_trace(), binary)
        csv.write_text("0x40,10,READ\n")
        assert detect_format(jsonl) == "jsonl"
        assert detect_format(binary) == "binary"
        assert detect_format(csv) == "dramsim3-csv"

    def test_detect_format_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            detect_format(path)

    def test_read_trace_auto_detects(self, tmp_path):
        path = tmp_path / "t.bin"
        write_binary(_trace(), path)
        assert read_trace(path) == _trace()


class TestDramsim3Csv:
    def test_parses_gaps_ops_and_headers(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "addr,cycle,op\n"
            "# a comment\n"
            "0x00000040,100,READ\n"
            "128,140,W\n"
            "0x80,130,WRITE\n"   # out-of-order stamp clamps to gap 0
        )
        trace = read_dramsim3_csv(path)
        assert [e.gap_cycles for e in trace] == [0, 40, 0]
        assert [e.is_write for e in trace] == [False, True, True]
        assert trace.instructions.tolist() == [1, 41, 1]

    def test_uses_mapping_policy(self, tmp_path):
        org = DEFAULT_CONFIG.organization
        address = 5 * org.cacheline_bytes  # block 5: bank 0, column 5
        path = tmp_path / "log.csv"
        path.write_text(f"{address},0,READ\n")
        trace = read_dramsim3_csv(path, mapping="row-bank-col")
        (first,) = trace
        assert (first.bank_index, first.row, first.column) == (0, 0, 5)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0x40,100\n")
        with pytest.raises(ValueError, match="addr,cycle,op"):
            read_dramsim3_csv(path)
        path.write_text("0x40,100,FLUSH\n")
        with pytest.raises(ValueError, match="unknown op"):
            read_dramsim3_csv(path)

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "log.csv.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0x40,10,READ\n0x80,25,WRITE\n")
        trace = read_dramsim3_csv(path)
        assert len(trace) == 2
        assert trace.gap_cycles.tolist() == [0, 15]


class TestMappingPolicies:
    def test_registry(self):
        assert mapping_names() == ["bank-row-col", "row-bank-col",
                                   "xor-bank"]

    def test_row_bank_col_stripes_banks(self):
        org = DEFAULT_CONFIG.organization
        row_span = org.columns_per_row * org.cacheline_bytes
        a = map_address("row-bank-col", 0, org)
        b = map_address("row-bank-col", row_span, org)
        assert a == (0, 0, 0)
        assert b == (1, 0, 0)  # next row-sized block, next bank

    def test_bank_row_col_keeps_bank_regions(self):
        org = DEFAULT_CONFIG.organization
        row_span = org.columns_per_row * org.cacheline_bytes
        assert map_address("bank-row-col", row_span, org) == (0, 1, 0)

    def test_xor_bank_permutes_within_range(self):
        org = DEFAULT_CONFIG.organization
        row_span = org.columns_per_row * org.cacheline_bytes
        seen = {
            map_address("xor-bank", r * row_span * org.total_banks, org)[0]
            for r in range(8)
        }
        assert all(0 <= bank < org.total_banks for bank in seen)
        assert len(seen) > 1  # the permutation actually moves banks

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            map_address("row-bank-col", -1, DEFAULT_CONFIG.organization)

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown mapping"):
            map_address("no-such", 0, DEFAULT_CONFIG.organization)


class TestGeometryNormalization:
    def _tiny_org(self):
        return DramOrganization(
            channels=1, ranks_per_channel=1, banks_per_rank=4,
            rows_per_bank=16, row_size_bytes=512, cacheline_bytes=64,
        )

    def test_in_range_trace_is_returned_unchanged(self):
        org = self._tiny_org()
        trace = CoreTrace.from_entries(
            "t", [TraceEntry(0, bank_index=3, row=15, column=7)]
        )
        assert normalize_trace(trace, org) is trace

    def test_clamp_wraps_out_of_range(self):
        org = self._tiny_org()
        trace = CoreTrace.from_entries(
            "t", [TraceEntry(0, bank_index=6, row=21, column=9)]
        )
        clamped = normalize_trace(trace, org, mode="clamp")
        (entry,) = clamped
        assert (entry.bank_index, entry.row, entry.column) == (2, 5, 1)

    def test_strict_raises_naming_the_offender(self):
        org = self._tiny_org()
        trace = CoreTrace.from_entries("bad", [
            TraceEntry(0, bank_index=0, row=0),
            TraceEntry(0, bank_index=0, row=99),
        ])
        with pytest.raises(TraceGeometryError, match="entry 1"):
            normalize_trace(trace, org, mode="strict")

    def test_negative_values_error_even_when_clamping(self):
        org = self._tiny_org()
        trace = CoreTrace.from_entries(
            "bad", [TraceEntry(0, bank_index=-1, row=0)]
        )
        with pytest.raises(TraceGeometryError, match="negative"):
            normalize_trace(trace, org, mode="clamp")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="clamp"):
            normalize_trace(CoreTrace("t"), self._tiny_org(), mode="fold")
