"""Unit tests for DRAM row addresses."""

from repro.types import BankAddress, RowAddress


class TestRowAddress:
    def test_neighbor(self):
        row = RowAddress(BankAddress(0, 0, 0), 100)
        assert row.neighbor(1, 65536).row == 101
        assert row.neighbor(-1, 65536).row == 99

    def test_neighbor_at_edge_is_none(self):
        row = RowAddress(BankAddress(0, 0, 0), 0)
        assert row.neighbor(-1, 65536) is None
        top = RowAddress(BankAddress(0, 0, 0), 65535)
        assert top.neighbor(1, 65536) is None
