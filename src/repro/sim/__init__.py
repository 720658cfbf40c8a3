"""System simulator: cores + memory controller + DRAM + protection."""

from repro.sim.core import TraceCore
from repro.sim.metrics import SimulationResult
from repro.sim.system import SimulatedSystem, simulate

__all__ = [
    "TraceCore",
    "SimulationResult",
    "SimulatedSystem",
    "simulate",
]
