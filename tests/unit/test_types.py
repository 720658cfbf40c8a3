"""Unit tests for the shared core types."""

import pytest

from repro.types import (
    BankAddress,
    CommandKind,
    EnergyCounts,
    MemoryRequest,
    RowAddress,
    SchemeLocation,
)


class TestBankAddress:
    def test_flat_index_layout(self):
        bank = BankAddress(channel=1, rank=0, bank=5)
        assert bank.flat_index(ranks_per_channel=1, banks_per_rank=32) == 37

    def test_flat_index_unique_over_system(self):
        seen = set()
        for channel in range(2):
            for rank in range(2):
                for bank in range(8):
                    seen.add(
                        BankAddress(channel, rank, bank).flat_index(2, 8)
                    )
        assert len(seen) == 32

    def test_ordering(self):
        assert BankAddress(0, 0, 1) < BankAddress(0, 0, 2)
        assert BankAddress(0, 1, 0) < BankAddress(1, 0, 0)


class TestRowAddress:
    def test_equality_and_hash(self):
        a = RowAddress(BankAddress(0, 0, 1), 100)
        b = RowAddress(BankAddress(0, 0, 1), 100)
        assert a == b
        assert hash(a) == hash(b)

    def test_neighbor_preserves_bank(self):
        row = RowAddress(BankAddress(1, 0, 2), 50)
        neighbor = row.neighbor(1, 65536)
        assert neighbor.bank == row.bank
        assert neighbor.row == 51


class TestMemoryRequest:
    def test_read_write_flags(self):
        read = MemoryRequest(0, 0, RowAddress(BankAddress(0, 0, 0), 1))
        write = MemoryRequest(
            0, 0, RowAddress(BankAddress(0, 0, 0), 1), is_write=True
        )
        assert read.is_read and not write.is_read

    def test_completion_initially_none(self):
        request = MemoryRequest(0, 0, RowAddress(BankAddress(0, 0, 0), 1))
        assert request.completion_cycle is None


class TestEnums:
    def test_command_kinds(self):
        assert CommandKind.RFM.value == "RFM"
        assert CommandKind.ARR.value == "ARR"

    def test_scheme_locations(self):
        assert SchemeLocation.DRAM.value == "dram"
        assert SchemeLocation.BUFFER_CHIP.value == "buffer-chip"


class TestEnergyCountsMergeIdentity:
    def test_merge_with_empty_is_identity(self):
        counts = EnergyCounts(acts=3, rfm_commands=2, mrr_commands=1)
        merged = counts.merged(EnergyCounts())
        assert merged == counts
