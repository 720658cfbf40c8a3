"""Native drain kernel: build, load, pack and write back.

``_kernel.c`` beside this file is a plain-C port of the turbo fused
drain for the systems it *covers* (see
:meth:`~repro.sim.turbo.TurboSimulatedSystem._kernel_args`): every bank
runs ``none`` or Mithril / Mithril+ without throttling, on stock
components, from a pristine state, with no probe and no cycle limit.
Everything else keeps running through turbo's python drains.

* **Build.**  The first covered run compiles the source with the
  interpreter's own ``sysconfig`` compiler, include directory and
  extension suffix into ``__pycache__/_kernel-<sha256[:16]><EXT_SUFFIX>``
  beside this file, keyed by the source's digest, written to a temp file
  and ``os.replace``-d so concurrent pool workers are safe.  Nothing is
  built at import and there is no separate build step.
* **Load.**  Only that exact name is loaded.  An artifact that fails to
  load (a truncated write, say) is rebuilt once.  A failed compile or
  load warns once per process, and :func:`load` then returns None, so
  every run takes the python drain: slower, never different.
* **Flat in, flat out.**  :func:`pack` turns a system into trace
  columns (buffer protocol) and int tuples; :func:`drain` runs the
  kernel and writes its plain-int result back onto the simulator
  objects that ``_collect`` and the tests read.  The C side knows no
  python class.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.mithril import MithrilScheme
from repro.dram.hammer import FlipEvent
from repro.mc.scheduler import BlissScheduler
from repro.protection import SchemeStats
from repro.types import EnergyCounts

SOURCE = Path(__file__).with_name("_kernel.c")
#: Where artifacts are built; git-ignored like the bytecode beside it.
BUILD_DIR = Path(__file__).with_name("__pycache__")
#: Seconds one compile may take before it counts as failed.
BUILD_TIMEOUT_S = 300

_SCHEME_NONE, _SCHEME_MITHRIL = 0, 1
#: ``BankTimingModel._last_act_cycle`` before any ACT.
_FRESH_LAST_ACT = -1 << 30
#: The kernel keeps ints in int64 and refreshes at most this many
#: victims per side of an aggressor.
_INT64_MAX = (1 << 63) - 1
_MAX_BLAST_RADIUS = 64

#: Instance-level overrides of these hooks would bypass the kernel,
#: so a system carrying any of them stays on the python drain.
_HOOKS = {
    "controller": {"advance_refresh", "_apply_rfm", "_apply_arr"},
    "bank": {"block_for"},
    "refresh": {"drain_due", "pop_tick"},
    "hammer": {"on_refresh_row", "on_refresh_range"},
    "scheme": {"on_rfm", "rfm_needed_flag", "on_autorefresh", "_victims"},
    "table": {
        "record_activation", "greedy_select", "demote_max", "spread",
        "max_count", "min_count",
    },
    "summary": {
        "observe", "_observe_one", "max_entry", "demote_to_min",
        "_insert", "_remove", "_move", "_advance_min",
    },
}
_INT_TYPES = {int, bool}
_FRESH_ENERGY = EnergyCounts()
_FRESH_STATS = SchemeStats()

_module = None
_failed = False


# ----------------------------------------------------------------------
# build and load (imports stay local: most processes never build)
# ----------------------------------------------------------------------


def _compiler() -> list:
    """The interpreter's C compiler command."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def artifact_path() -> Path:
    """The one artifact name this source may load from."""
    import hashlib
    import sysconfig

    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return BUILD_DIR / f"_kernel-{digest}{suffix}"


def _build(path: Path) -> None:
    import subprocess
    import sysconfig

    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    command = _compiler() + [
        "-O2", "-shared", "-fPIC",
        f"-I{sysconfig.get_paths()['include']}",
        str(SOURCE), "-o", str(temp),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{command[0]} exited with {proc.returncode}: "
                f"{proc.stderr.strip()[-800:]}"
            )
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _import(path: Path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("repro.sim._kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_or_build():
    path = artifact_path()
    if path.exists():
        try:
            return _import(path)
        except ImportError:
            pass  # a truncated or foreign file at our name: rebuild it
    _build(path)
    return _import(path)


def load():
    """The kernel module, built on first use; None when unavailable.

    A failure warns once per process; later calls return None quietly.
    """
    global _module, _failed
    if _module is None and not _failed:
        try:
            _module = _load_or_build()
        except Exception as exc:  # any build/load failure -> python drain
            _failed = True
            warnings.warn(
                f"native drain kernel unavailable, using the python "
                f"drain: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return _module


# ----------------------------------------------------------------------
# pack
# ----------------------------------------------------------------------


def _patched(obj, role: str) -> bool:
    return not _HOOKS[role].isdisjoint(vars(obj))


def _int64s(values) -> bool:
    """Every value is an int (or bool) that fits the kernel's int64;
    anything else (a float threshold, say) keeps python semantics."""
    return (
        set(map(type, values)) <= _INT_TYPES
        and -_INT64_MAX <= min(values) and max(values) <= _INT64_MAX
    )


def _pristine(system) -> bool:
    """Nothing has run and nothing was injected: the kernel starts every
    object from its constructed state."""
    if (
        system._seq or system._heap or system.row_hits or system.row_misses
        or any(system._core_served) or any(system._core_last_completion)
        or any(system._bank_scheduled) or any(system._queue_cores)
    ):
        return False
    for core in system.cores:
        if (
            core.index or core.outstanding_reads or core.next_issue_cycle
            or core.stalled_on_mlp or core.reads_issued or core.writes_issued
        ):
            return False
    for scheduler in system._schedulers:
        if type(scheduler) is BlissScheduler and (
            scheduler._last_core is not None or scheduler._streak
            or scheduler._blacklist_until
        ):
            return False
    for controller in system.banks:
        bank = controller.bank
        refresh = controller.refresh
        if (
            controller.queue or controller._consecutive_hits
            or controller.arr_stall_cycles or controller.rfm_stall_cycles
            or controller.refresh_stall_cycles
            or controller.channel_state.bus_free_cycle
            or controller.energy != _FRESH_ENERGY
            or controller.scheme.stats != _FRESH_STATS
            or bank.open_row is not None or bank.ready_cycle
            or bank._last_act_cycle != _FRESH_LAST_ACT
            or bank.act_count or bank.pre_count or bank.access_count
            or bank.refresh_blocks
            or (bank.faw is not None and bank.faw._recent)
            or refresh._group_cursor or refresh.ticks_processed
        ):
            return False
        hammer = controller.hammer
        if hammer is not None and (
            hammer._disturbance or hammer.flips or hammer.max_disturbance
            or hammer.max_disturbance_row is not None
        ):
            return False
        rfm = controller.rfm_logic
        if rfm is not None and (
            rfm.raa.value or rfm.rfm_issued or rfm.rfm_elided
            or rfm.mrr_reads
        ):
            return False
        scheme = controller.scheme
        if type(scheme) is MithrilScheme:
            summary = scheme.table._summary
            if (
                scheme.table._max_spread_seen or summary._counts
                or summary._buckets or summary._max_heap
                or summary._min_count or summary._total_observed
                or summary.evictions
            ):
                return False
    return True


def _index_of(objects: list, obj) -> int:
    """Index of ``obj`` (by identity) in ``objects``, appending it."""
    for index, known in enumerate(objects):
        if known is obj:
            return index
    objects.append(obj)
    return len(objects) - 1


def _bank_fields(system, flat, channel_states, faws) -> Optional[tuple]:
    """One bank's configuration, in the order of ``_kernel.c``'s BF_*
    enum; None when the kernel cannot run this bank exactly."""
    controller = system.banks[flat]
    bank = controller.bank
    refresh = controller.refresh
    hammer = controller.hammer
    scheme = controller.scheme
    rfm = controller.rfm_logic
    if (
        _patched(controller, "controller") or _patched(bank, "bank")
        or _patched(refresh, "refresh")
        or (hammer is not None and _patched(hammer, "hammer"))
        or _patched(scheme, "scheme")
    ):
        return None
    mithril = type(scheme) is MithrilScheme
    if mithril:
        table = scheme.table
        if _patched(table, "table") or _patched(table._summary, "summary"):
            return None
        window = table._wrap_window
        if window is None or window > _INT64_MAX:
            window = -1  # unchecked, or wider than any reachable spread
        if scheme.blast_radius > _MAX_BLAST_RADIUS:
            return None
    faw = bank.faw
    if faw is not None and faw.window < 1:
        return None
    fields = (
        _index_of(channel_states, controller.channel_state),
        -1 if faw is None else _index_of(faws, faw),
        system._bank_channel[flat],
        bank._trp,
        bank._tras,
        controller._trfc_cycles,
        controller._trfm_cycles,
        refresh._next_tick,
        refresh.trefi_cycles,
        refresh.rows_per_group,
        refresh.num_groups,
        hammer is not None,
        0 if hammer is None else hammer.flip_th,
        0 if hammer is None else hammer.rows_per_bank,
        _SCHEME_MITHRIL if mithril else _SCHEME_NONE,
        table._summary.capacity if mithril else 0,
        window if mithril else -1,
        (table.counter_bits or 0) if mithril else 0,
        scheme.adaptive_th if mithril else 0,
        scheme.plus if mithril else False,
        scheme.blast_radius if mithril else 0,
        scheme.rows_per_bank if mithril else 0,
        rfm is not None,
        0 if rfm is None else rfm.raa.rfm_th,
        False if rfm is None else rfm.mrr_gated,
    )
    return fields if _int64s(fields) else None


def pack(system) -> Optional[tuple]:
    """The kernel's arguments for a stock-component, fused ``system``
    whose banks all run ``none`` or Mithril; None when the kernel
    cannot represent it exactly (not pristine, an instance-patched
    hook, a non-int parameter)."""
    if not _pristine(system):
        return None
    channel_states: list = []
    faws: list = []
    banks = []
    for flat in range(system.num_banks):
        fields = _bank_fields(system, flat, channel_states, faws)
        if fields is None:
            return None
        banks.append(fields)
    timings = system.config.timings
    config = (  # the order of _kernel.c's CF_* enum
        system.num_banks,
        system._seq,
        timings.cycles(timings.trp),
        timings.cycles(timings.trcd),
        timings.cycles(timings.tcl),
        timings.cycles(timings.tbl),
        timings.cycles(timings.trc),
        timings.cycles(timings.tras),
        system._policy_mode,
        system._policy_burst,
    )
    schedulers = [
        (True, scheduler.blacklist_threshold, scheduler.blacklist_cycles)
        if type(scheduler) is BlissScheduler else (False, 0, 0)
        for scheduler in system._schedulers
    ]
    scalars = list(config)
    scalars.extend(core.mlp for core in system.cores)
    scalars.extend(value for fields in schedulers for value in fields)
    if not _int64s(scalars):
        return None
    cores = [
        (
            np.ascontiguousarray(core.trace.gap_cycles, dtype=np.int64),
            np.ascontiguousarray(core.trace.bank_index, dtype=np.int64),
            np.ascontiguousarray(core.trace.row, dtype=np.int64),
            np.ascontiguousarray(core.trace.is_write, dtype=np.bool_),
            len(core.trace),
            core.mlp,
        )
        for core in system.cores
    ]
    return config, cores, banks, channel_states, faws, schedulers


# ----------------------------------------------------------------------
# run and write back
# ----------------------------------------------------------------------


def drain(system, packed: tuple) -> None:
    """Run ``packed`` (from :func:`pack`) on the kernel and write the
    final state back onto ``system``'s objects."""
    config, cores, banks, channel_states, faws, schedulers = packed
    (seq, row_hits, row_misses, core_states, bank_states, bus_free,
     faw_states, scheduler_states) = load().drain(
        config, cores, banks, len(channel_states),
        [(faw.window, faw.tfaw_cycles) for faw in faws], schedulers,
    )
    system._seq = seq
    system.row_hits += row_hits
    system.row_misses += row_misses
    for core, state in zip(system.cores, core_states):
        (core.index, core.outstanding_reads, core.next_issue_cycle,
         stalled, core.reads_issued, core.writes_issued, last_completion,
         served) = state
        core.stalled_on_mlp = bool(stalled)
        system._core_last_completion[core.core_id] = last_completion
        system._core_served[core.core_id] = served
    for controller, state in zip(system.banks, bank_states):
        _write_bank(controller, state)
    for channel_state, value in zip(channel_states, bus_free):
        channel_state.bus_free_cycle = value
    for faw, recent in zip(faws, faw_states):
        faw._recent.extend(recent)
    for scheduler, (last_core, streak, listed) in zip(
        system._schedulers, scheduler_states
    ):
        if type(scheduler) is BlissScheduler:
            scheduler._last_core = last_core
            scheduler._streak = streak
            scheduler._blacklist_until.update(listed)


def _write_bank(controller, state) -> None:
    (open_row, timing, refresh, energy, stats, rfm, hammer_state,
     cbs_state, max_spread_seen) = state
    bank = controller.bank
    bank.open_row = open_row
    (bank.ready_cycle, bank._last_act_cycle, bank.act_count, bank.pre_count,
     bank.access_count, bank.refresh_blocks, controller._consecutive_hits,
     controller.rfm_stall_cycles, controller.refresh_stall_cycles) = timing
    engine = controller.refresh
    engine._next_tick, engine._group_cursor, engine.ticks_processed = refresh
    controller.energy = EnergyCounts(*energy)
    scheme = controller.scheme
    scheme.stats = SchemeStats(*stats)
    rfm_logic = controller.rfm_logic
    if rfm_logic is not None:
        (rfm_logic.raa.value, rfm_logic.rfm_issued, rfm_logic.rfm_elided,
         rfm_logic.mrr_reads) = rfm
    hammer = controller.hammer
    if hammer is not None:
        rows, levels, flips, max_level, max_row = hammer_state
        hammer._disturbance.update(zip(rows, levels))
        hammer.flips.extend(
            FlipEvent(cycle=cycle, row=row, disturbance=level,
                      aggressor=aggressor)
            for cycle, row, level, aggressor in flips
        )
        hammer.max_disturbance = max_level
        hammer.max_disturbance_row = max_row
    if cbs_state is not None:
        (rows, counts, buckets, heap, min_count, total_observed,
         evictions) = cbs_state
        table = scheme.table
        summary = table._summary
        summary._counts.update(zip(rows, counts))
        summary._buckets.update(
            (count, dict.fromkeys(members)) for count, members in buckets
        )
        summary._max_heap[:] = heap  # sorted, hence a valid heap
        summary._min_count = min_count
        summary._total_observed = total_observed
        summary.evictions = evictions
        table._max_spread_seen = max_spread_seen
