"""DRAM device substrate: addressing, bank timing, refresh, RH faults."""

from repro.dram.address import AddressMapper
from repro.dram.bank import BankTimingModel
from repro.dram.hammer import HammerModel, FlipEvent
from repro.dram.refresh import AutoRefreshEngine

__all__ = [
    "AddressMapper",
    "BankTimingModel",
    "HammerModel",
    "FlipEvent",
    "AutoRefreshEngine",
]
