"""Unit tests for the trace-driven core model."""

import pytest

from repro.sim.core import TraceCore
from repro.workloads.trace import CoreTrace, TraceEntry


def _trace(entries):
    return CoreTrace.from_entries(name="t", entries=entries)


class TestTraceCore:
    def test_issue_consumes_entries(self):
        core = TraceCore(
            0, _trace([TraceEntry(0, 0, 1), TraceEntry(5, 0, 2)])
        )
        entry = core.issue(0)
        assert entry.row == 1
        assert core.index == 1
        assert not core.done_issuing()

    def test_gap_delays_next_issue(self):
        core = TraceCore(
            0, _trace([TraceEntry(0, 0, 1), TraceEntry(10, 0, 2)])
        )
        core.issue(0)
        assert core.next_issue_cycle == 10

    def test_mlp_tracks_outstanding_reads(self):
        entries = [TraceEntry(0, 0, i) for i in range(4)]
        core = TraceCore(0, _trace(entries), mlp=2)
        core.issue(0)
        core.issue(1)
        assert core.outstanding_reads == 2
        assert core.outstanding_reads >= core.mlp  # event loop stalls here
        core.on_read_complete(20)
        assert core.outstanding_reads == 1
        assert core.outstanding_reads < core.mlp

    def test_writes_never_add_outstanding_reads(self):
        entries = [TraceEntry(0, 0, i, is_write=True) for i in range(5)]
        core = TraceCore(0, _trace(entries), mlp=1)
        for _ in range(5):
            core.issue(core.next_issue_cycle)
        assert core.outstanding_reads == 0
        assert core.writes_issued == 5

    def test_done_issuing(self):
        core = TraceCore(0, _trace([TraceEntry(0, 0, 1)]))
        core.issue(0)
        assert core.done_issuing()

    def test_completion_underflow_raises(self):
        core = TraceCore(0, _trace([TraceEntry(0, 0, 1)]))
        with pytest.raises(RuntimeError):
            core.on_read_complete(0)

    def test_total_instructions(self):
        core = TraceCore(
            0,
            _trace([
                TraceEntry(0, 0, 1, instructions=10),
                TraceEntry(0, 0, 2, instructions=20),
            ]),
        )
        assert core.total_instructions == 30
