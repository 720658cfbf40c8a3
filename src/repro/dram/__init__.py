"""DRAM device substrate: bank timing, refresh, RH faults."""

from repro.dram.bank import BankTimingModel
from repro.dram.hammer import HammerModel, FlipEvent
from repro.dram.refresh import AutoRefreshEngine

__all__ = [
    "BankTimingModel",
    "HammerModel",
    "FlipEvent",
    "AutoRefreshEngine",
]
