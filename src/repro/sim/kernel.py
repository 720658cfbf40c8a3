"""Native drain kernel: build, load, pack and write back.

``_kernel.c`` beside this file is a plain-C port of the turbo fused
drain for the systems it *covers* (see
:meth:`~repro.sim.turbo.TurboSimulatedSystem._kernel_args`): every bank
runs ``none``, Mithril / Mithril+, BlockHammer (with its throttle) or
Graphene, uniform or mixed, on stock components, from a pristine state,
with no probe and no cycle limit.  Everything else keeps running
through turbo's python drains.

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
  python class.  BlockHammer's filter counters are the one exception
  to "flat out": the kernel increments and clears each filter's own
  ``array('q')`` in place through a writable buffer, so no copy of
  the 2 x 8192 counters per bank is ever made.
"""

from __future__ import annotations

import os
import warnings
from array import array
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.mithril import MithrilScheme
from repro.dram.hammer import FlipEvent
from repro.mc.scheduler import BlissScheduler
from repro.mitigations.blockhammer import BlockHammerScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.protection import SchemeStats
from repro.types import EnergyCounts

SOURCE = Path(__file__).with_name("_kernel.c")
#: Where artifacts are built; git-ignored like the bytecode beside it.
BUILD_DIR = Path(__file__).with_name("__pycache__")
#: Seconds one compile may take before it counts as failed.
BUILD_TIMEOUT_S = 300

#: ``_kernel.c``'s SCHEME_* codes; any other covered scheme is ``none``.
_SCHEME_NONE = 0
_SCHEME_CODES = {MithrilScheme: 1, BlockHammerScheme: 2, GrapheneScheme: 3}
#: ``BankTimingModel._last_act_cycle`` before any ACT.
_FRESH_LAST_ACT = -1 << 30
#: The kernel keeps ints in int64 and refreshes at most this many
#: victims per side of an aggressor.
_INT64_MAX = (1 << 63) - 1
_UINT64_MAX = (1 << 64) - 1
_MAX_BLAST_RADIUS = 64
#: ``hash(row) == row`` exactly for ``0 <= row < 2**61 - 1`` (python's
#: int hash modulus), so the kernel's BlockHammer probes hash ``row``.
_HASH_MODULUS = (1 << 61) - 1

#: Instance-level overrides of these hooks would bypass the kernel,
#: so a system carrying any of them stays on the python drain.
_HOOKS = {
    "controller": {
        "advance_refresh", "_apply_rfm", "_apply_arr", "throttle_release",
    },
    "bank": {"block_for"},
    "refresh": {"drain_due", "pop_tick"},
    "hammer": {"on_refresh_row", "on_refresh_range"},
    "scheme": {
        "on_rfm", "rfm_needed_flag", "on_autorefresh", "_victims",
        "on_activate", "throttle_release", "_maybe_reset",
    },
    "table": {
        "record_activation", "greedy_select", "demote_max", "spread",
        "max_count", "min_count",
    },
    "summary": {
        "observe", "_observe_one", "max_entry", "demote_to_min",
        "_insert", "_remove", "_move", "_advance_min", "reset",
        "estimate",
    },
    "cbf": {"observe_and_estimate", "_rotate", "observe", "estimate",
            "reset"},
    "filter": {"_indices", "reset", "observe", "estimate"},
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


def _fresh_summary(summary) -> bool:
    return not (
        summary._counts or summary._buckets or summary._max_heap
        or summary._min_count or summary._total_observed
        or summary.evictions
    )


def _fresh_filter(cbf_filter) -> bool:
    """An unobserved filter whose counters are an ``array('q')`` of its
    own size.  The kernel increments those counters in place, exactly
    as python would, so it needs no check of their values."""
    counters = cbf_filter._counters
    return (
        type(counters) is array and counters.typecode == "q"
        and 0 < len(counters) == cbf_filter.size
        and not cbf_filter._total
    )


def _fresh_tracker(scheme) -> bool:
    """The scheme's tracker state is as constructed."""
    if type(scheme) is MithrilScheme:
        return (
            not scheme.table._max_spread_seen
            and _fresh_summary(scheme.table._summary)
        )
    if type(scheme) is BlockHammerScheme:
        cbf = scheme.cbf
        return (
            not scheme._release and not scheme.blacklisted_rows_seen
            and not cbf._active and not cbf._since_swap
            and len(cbf._filters) == 2
            and all(map(_fresh_filter, cbf._filters))
        )
    if type(scheme) is GrapheneScheme:
        return (
            not scheme.resets and not scheme._next_trigger
            and _fresh_summary(scheme.table)
        )
    return True


def _tracker_objects(scheme) -> list:
    """The mutable tracker objects the kernel writes for ``scheme``."""
    if type(scheme) is MithrilScheme:
        return [scheme, scheme.table, scheme.table._summary]
    if type(scheme) is BlockHammerScheme:
        filters = scheme.cbf._filters
        return [scheme, scheme.cbf, *filters,
                *(f._counters for f in filters)]
    if type(scheme) is GrapheneScheme:
        return [scheme, scheme.table]
    return []


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
        if not _fresh_tracker(controller.scheme):
            return False
    # The kernel gives every bank its own tracker: one shared between
    # banks (or one filter's counters between filters) stays python.
    owned = [
        id(obj) for controller in system.banks
        for obj in _tracker_objects(controller.scheme)
    ]
    return len(owned) == len(set(owned))


def _index_of(objects: list, obj) -> int:
    """Index of ``obj`` (by identity) in ``objects``, appending it."""
    for index, known in enumerate(objects):
        if known is obj:
            return index
    objects.append(obj)
    return len(objects) - 1


def _probe_seeds(cbf_filter) -> Optional[tuple]:
    """The filter's premixed probe seeds, if all fit a uint64."""
    seeds = tuple(cbf_filter._probe_seeds)
    if seeds and all(
        type(seed) is int and 0 <= seed <= _UINT64_MAX for seed in seeds
    ):
        return seeds
    return None


def _bank_fields(system, flat, channel_states, faws) -> Optional[tuple]:
    """One bank's configuration, in the order of ``_kernel.c``'s BF_*
    enum, and its BlockHammer filters ``((counters, seeds), ...)`` or
    None; None when the kernel cannot run this bank exactly."""
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
    blockhammer = type(scheme) is BlockHammerScheme
    graphene = type(scheme) is GrapheneScheme
    filters = None
    if mithril:
        table = scheme.table
        if _patched(table, "table") or _patched(table._summary, "summary"):
            return None
        window = table._wrap_window
        if window is None or window > _INT64_MAX:
            window = -1  # unchecked, or wider than any reachable spread
        if scheme.blast_radius > _MAX_BLAST_RADIUS:
            return None
    elif blockhammer:
        cbf = scheme.cbf
        if _patched(cbf, "cbf") or any(
            _patched(f, "filter") for f in cbf._filters
        ):
            return None
        filters = tuple(
            (f._counters, _probe_seeds(f)) for f in cbf._filters
        )
        if any(seeds is None for _counters, seeds in filters):
            return None
    elif graphene and _patched(scheme.table, "summary"):
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
        _SCHEME_CODES.get(type(scheme), _SCHEME_NONE),
        table._summary.capacity if mithril
        else scheme.table.capacity if graphene else 0,
        window if mithril else -1,
        (table.counter_bits or 0) if mithril else 0,
        scheme.adaptive_th if mithril else 0,
        scheme.plus if mithril else False,
        scheme.blast_radius if mithril else 0,
        scheme.rows_per_bank if mithril or graphene else 0,
        rfm is not None,
        0 if rfm is None else rfm.raa.rfm_th,
        False if rfm is None else rfm.mrr_gated,
        controller._trc_cycles,
        scheme.cbf.half_epoch if blockhammer else 0,
        scheme.n_bl if blockhammer else 0,
        scheme.delay_cycles if blockhammer else 0,
        scheme.threshold if graphene else 0,
        scheme.reset_interval_cycles if graphene else 0,
        scheme._next_reset if graphene else 0,
    )
    if not _int64s(fields) or (graphene and scheme.reset_interval_cycles < 1):
        return None
    return fields, filters


def pack(system) -> Optional[tuple]:
    """The kernel's arguments for a stock-component, fused ``system``
    whose banks all run ``none``, Mithril, BlockHammer or Graphene;
    None when the kernel cannot represent it exactly (not pristine, an
    instance-patched hook, a non-int parameter, a BlockHammer trace row
    whose hash is not the row itself)."""
    if not _pristine(system):
        return None
    channel_states: list = []
    faws: list = []
    banks = []
    filters = []
    for flat in range(system.num_banks):
        packed = _bank_fields(system, flat, channel_states, faws)
        if packed is None:
            return None
        banks.append(packed[0])
        filters.append(packed[1])
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
    if any(filters) and not all(
        not len(rows) or (rows.min() >= 0 and rows.max() < _HASH_MODULUS)
        for _gap, _bank, rows, *_rest in cores
    ):
        return None
    return config, cores, banks, channel_states, faws, schedulers, filters


# ----------------------------------------------------------------------
# run and write back
# ----------------------------------------------------------------------


def drain(system, packed: tuple) -> None:
    """Run ``packed`` (from :func:`pack`) on the kernel and write the
    final state back onto ``system``'s objects."""
    config, cores, banks, channel_states, faws, schedulers, filters = packed
    (seq, row_hits, row_misses, core_states, bank_states, bus_free,
     faw_states, scheduler_states) = load().drain(
        config, cores, banks, len(channel_states),
        [(faw.window, faw.tfaw_cycles) for faw in faws], schedulers,
        filters,
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
     tracker) = state
    bank = controller.bank
    bank.open_row = open_row
    (bank.ready_cycle, bank._last_act_cycle, bank.act_count, bank.pre_count,
     bank.access_count, bank.refresh_blocks, controller._consecutive_hits,
     controller.rfm_stall_cycles, controller.refresh_stall_cycles,
     controller.arr_stall_cycles) = timing
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
    if type(scheme) is MithrilScheme:
        cbs_state, scheme.table._max_spread_seen = tracker
        _write_summary(scheme.table._summary, cbs_state)
    elif type(scheme) is BlockHammerScheme:
        cbf = scheme.cbf
        (totals, cbf._active, cbf._since_swap, (rows, releases),
         scheme.blacklisted_rows_seen) = tracker
        for cbf_filter, total in zip(cbf._filters, totals):
            cbf_filter._total = total  # counters were written in place
        scheme._release.update(zip(rows, releases))
    elif type(scheme) is GrapheneScheme:
        (cbs_state, (rows, triggers), scheme._next_reset,
         scheme.resets) = tracker
        _write_summary(scheme.table, cbs_state)
        scheme._next_trigger.update(zip(rows, triggers))


def _write_summary(summary, cbs_state) -> None:
    (rows, counts, buckets, heap, min_count, total_observed,
     evictions) = cbs_state
    summary._counts.update(zip(rows, counts))
    summary._buckets.update(
        (count, dict.fromkeys(members)) for count, members in buckets
    )
    summary._max_heap[:] = heap  # sorted, hence a valid heap
    summary._min_count = min_count
    summary._total_observed = total_observed
    summary.evictions = evictions
