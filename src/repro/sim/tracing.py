"""Command-level tracing of a simulation run.

A :class:`CommandTracer` hooks into the per-bank controllers and logs
every DRAM command (ACT/PRE/REF/RFM/ARR events) with its cycle —
useful for debugging scheduler behaviour and for validating command
legality offline.

Tracing is opt-in: the hot simulation path never pays for it unless a
tracer is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.types import CommandKind


@dataclass(frozen=True)
class TracedCommand:
    cycle: int
    bank: int
    kind: CommandKind
    row: Optional[int] = None
    core: Optional[int] = None


class CommandTracer:
    """Accumulates a bounded command log across banks."""

    def __init__(self, capacity: int = 1_000_000):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.commands: List[TracedCommand] = []
        self.dropped = 0

    def record(
        self,
        cycle: int,
        bank: int,
        kind: CommandKind,
        row: Optional[int] = None,
        core: Optional[int] = None,
    ) -> None:
        if len(self.commands) >= self.capacity:
            self.dropped += 1
            return
        self.commands.append(
            TracedCommand(cycle=cycle, bank=bank, kind=kind, row=row,
                          core=core)
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def counts_by_kind(self) -> Dict[CommandKind, int]:
        counts: Dict[CommandKind, int] = {}
        for command in self.commands:
            counts[command.kind] = counts.get(command.kind, 0) + 1
        return counts

    def per_bank(self, bank: int) -> List[TracedCommand]:
        return [c for c in self.commands if c.bank == bank]

    def acts_between(
        self, bank: int, start_cycle: int, end_cycle: int
    ) -> int:
        return sum(
            1
            for c in self.commands
            if c.bank == bank
            and c.kind is CommandKind.ACT
            and start_cycle <= c.cycle <= end_cycle
        )

    def rfm_cadence(self, bank: int) -> List[int]:
        """ACT counts between consecutive RFMs on a bank — should all
        equal RFM_TH under the paper's issue rule."""
        acts = 0
        cadence = []
        for command in self.commands:
            if command.bank != bank:
                continue
            if command.kind is CommandKind.ACT:
                acts += 1
            elif command.kind is CommandKind.RFM:
                cadence.append(acts)
                acts = 0
        return cadence

    def summary(self) -> Dict[str, object]:
        """Drop-accounting view of the log.

        ``total`` counts every command *offered* to the tracer;
        ``recorded``/``dropped`` split it at the capacity bound, so a
        truncated log is visible instead of silently passing for a
        complete one.  ``by_kind`` covers the recorded commands only
        (keyed by the command kind's name).
        """
        return {
            "total": len(self.commands) + self.dropped,
            "recorded": len(self.commands),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "truncated": self.dropped > 0,
            "by_kind": {
                kind.name: count
                for kind, count in sorted(
                    self.counts_by_kind().items(),
                    key=lambda kv: kv[0].name,
                )
            },
        }

    def verify_ordering(self) -> bool:
        """Commands on each bank must be cycle-ordered."""
        last: Dict[int, int] = {}
        for command in self.commands:
            if command.cycle < last.get(command.bank, -1):
                return False
            last[command.bank] = command.cycle
        return True

    def __len__(self) -> int:
        return len(self.commands)


def attach_tracer(system, tracer: Optional[CommandTracer] = None):
    """Instrument a :class:`~repro.sim.system.SimulatedSystem`.

    Wraps each bank controller's internals with recording callbacks.
    Returns the tracer.  Must be called before ``system.run()``.
    """
    # "tracer or ..." would discard a fresh tracer: an empty
    # CommandTracer is falsy through __len__.
    tracer = tracer if tracer is not None else CommandTracer()
    for flat, controller in enumerate(system.banks):
        _wrap_controller(controller, flat, tracer)
    return tracer


def _wrap_controller(controller, flat: int, tracer: CommandTracer) -> None:
    original_on_activated = controller._on_activated
    original_apply_rfm = controller._apply_rfm
    original_apply_arr = controller._apply_arr
    original_advance_refresh = controller.advance_refresh

    def on_activated(row, result):
        tracer.record(result.start_cycle, flat, CommandKind.ACT, row=row)
        return original_on_activated(row, result)

    def apply_rfm(cycle):
        tracer.record(cycle, flat, CommandKind.RFM)
        return original_apply_rfm(cycle)

    def apply_arr(victims, cycle):
        tracer.record(cycle, flat, CommandKind.ARR,
                      row=victims[0] if victims else None)
        return original_apply_arr(victims, cycle)

    def advance_refresh(cycle):
        before = controller.refresh.ticks_processed
        result = original_advance_refresh(cycle)
        after = controller.refresh.ticks_processed
        for _ in range(after - before):
            tracer.record(cycle, flat, CommandKind.REF)
        return result

    controller._on_activated = on_activated
    controller._apply_rfm = apply_rfm
    controller._apply_arr = apply_arr
    controller.advance_refresh = advance_refresh
