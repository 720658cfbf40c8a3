"""The turbo backend's windowed column decode.

The turbo drain reads trace fields through a window protocol
(``chunk_start`` / ``chunk_end`` / ``ensure``); these tests pin the
invariant the protocol rests on: walking every window of a small
window size reproduces the single-window decode field for field,
including the cross-window ``steps`` lookahead.
"""

import pytest

from repro.sim import soa as soa_module
from repro.sim.soa import TraceWindow
from repro.workloads.trace import CoreTrace, TraceEntry

FIELDS = ("flats", "rows", "columns", "writes", "steps")


def _trace(n, name="t", gap_pattern=(0, 0, 3, 1)):
    """A trace with runs of gap-0 entries (same-epoch bursts) so window
    edges land mid-epoch for most window sizes."""
    entries = [
        TraceEntry(
            gap_cycles=gap_pattern[i % len(gap_pattern)],
            bank_index=i * 7,
            row=(i * 13) % 64,
            column=i % 8,
            is_write=(i % 5 == 0),
        )
        for i in range(n)
    ]
    return CoreTrace.from_entries(name, entries)


class TestStreamedDecodeEquality:
    @pytest.mark.parametrize("window", [1, 3, 7, 16, 37])
    def test_windows_match_full_decode(self, window, monkeypatch):
        """Walking every window reproduces the one-window decode field
        for field — including ``steps`` at window boundaries, which
        needs the one-entry lookahead into the next window."""
        trace = _trace(97)
        full = TraceWindow(trace, num_banks=8)
        assert (full.chunk_start, full.chunk_end) == (0, 97)
        monkeypatch.setattr(soa_module, "WINDOW", window)
        windowed = TraceWindow(trace, num_banks=8)
        seen = {field: [] for field in FIELDS}
        index = 0
        while index < windowed.length:
            windowed.ensure(index)
            assert windowed.chunk_start <= index < windowed.chunk_end
            for field in seen:
                seen[field].extend(getattr(windowed, field))
            index = windowed.chunk_end
        for field, values in seen.items():
            assert values == getattr(full, field), field

    def test_full_decode_matches_entries(self):
        trace = _trace(23)
        window = TraceWindow(trace, num_banks=8)
        entries = list(trace)
        assert window.flats == [e.bank_index % 8 for e in entries]
        assert window.rows == [e.row for e in entries]
        assert window.writes == [e.is_write for e in entries]
        assert window.steps == [
            max(e.gap_cycles, 1) for e in entries[1:]
        ] + [1]

    def test_chunk_boundary_mid_epoch(self, monkeypatch):
        """A gap-0 burst straddling the window edge: the step *after*
        the last entry of the window comes from the next window's first
        gap, so it must be right without loading that window."""
        monkeypatch.setattr(soa_module, "WINDOW", 3)
        trace = CoreTrace.from_entries("burst", [
            TraceEntry(gap_cycles=g, bank_index=i, row=i)
            for i, g in enumerate([5, 0, 0, 0, 0, 9, 2])
        ])
        windowed = TraceWindow(trace, num_banks=4)
        # Window [0, 3): steps peek gaps of entries 1..3 = 0,0,0 -> 1,1,1
        assert windowed.steps == [1, 1, 1]
        windowed.ensure(3)
        # Window [3, 6): gaps of entries 4..6 = 0,9,2 -> 1,9,2
        assert windowed.steps == [1, 9, 2]
        windowed.ensure(6)
        # Final window: last entry of the trace steps 1.
        assert windowed.steps == [1]

    def test_random_access_is_chunk_aligned(self, monkeypatch):
        monkeypatch.setattr(soa_module, "WINDOW", 8)
        windowed = TraceWindow(_trace(50), num_banks=4)
        windowed.ensure(29)
        assert (windowed.chunk_start, windowed.chunk_end) == (24, 32)
        loads = windowed.loads
        windowed.ensure(24)
        windowed.ensure(31)
        assert windowed.loads == loads  # in-window: no reload
        with pytest.raises(IndexError):
            windowed.ensure(50)
        with pytest.raises(IndexError):
            windowed.ensure(-1)


class TestDecodeTraceDispatch:
    def test_trace_shorter_than_one_chunk_stays_full(self, monkeypatch):
        """A window larger than the trace decodes it whole, once."""
        monkeypatch.setattr(soa_module, "WINDOW", 1024)
        decoded = TraceWindow(_trace(20), num_banks=8)
        assert (decoded.chunk_start, decoded.chunk_end) == (0, 20)
        decoded.ensure(19)
        assert decoded.loads == 1
