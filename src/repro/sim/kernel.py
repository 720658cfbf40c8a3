"""Native drain kernel: build, load, pack and write back.

``_kernel.c`` beside this file is a plain-C port of
:class:`~repro.sim.system.SimulatedSystem`'s event loop for the systems
it *covers*: stock components with no instance-patched hook, every bank
on a stock ``none``, Mithril / Mithril+, BlockHammer, Graphene, PARA,
PARFM, TWiCe or CBT scheme (uniform or mixed), a pristine state, int64
parameters, no probe and no cycle limit.  :func:`pack` is the one place
that decides coverage; ``SimulatedSystem.run`` drains a packed system
here and everything else in its python loop.

* **Build.**  The first covered run compiles the source with the
  interpreter's own ``sysconfig`` compiler, include directory and
  extension suffix into ``__pycache__/_kernel-<sha256[:16]><EXT_SUFFIX>``
  beside this file, keyed by the source's digest, written to a temp file
  and ``os.replace``-d so concurrent pool workers are safe.  Nothing is
  built at import and there is no separate build step.
* **Load.**  Only that exact name is loaded.  An artifact that fails to
  load (a truncated write, say) is rebuilt once.  A failed compile or
  load warns once per process, and :func:`load` then returns None, so
  every run takes the python loop: slower, never different.
* **Pack.**  :func:`pack` turns a system into trace columns (buffer
  protocol) and int tuples.  It reads the banks column by column: for
  each kind of component it resolves the types' hook sets once, checks
  every instance's own attribute names against them, and compares each
  one's run state with its value as constructed in one pass; each
  scheme type's banks are packed together.
* **Seeds, not states.**  PARA and PARFM build their ``random.Random``
  at the first draw, so a pristine scheme hands the kernel only
  ``abs(seed)``.  The kernel ports CPython's ``init_by_array`` and
  seeds each distinct seed of the run once; a bank that drew gets a
  ``random.Random`` back, ``setstate()`` to the advanced state.
* **Flat out.**  :func:`drain` runs the kernel and writes its result
  (ints, tuples, and each dict a python object holds, built in its
  insertion order) back onto the simulator objects that ``_collect``
  and the tests read.  The C side knows no python class.  BlockHammer's
  filter counters are the one exception: the kernel increments and
  clears each filter's own ``array('q')`` in place through a writable
  buffer, so no copy of the 2 x 8192 counters per bank is ever made.
* **Result only.**  ``drain(..., result_only=True)`` skips what
  ``_collect`` never reads: each tracker's state (CbS tables, Graphene
  triggers, BlockHammer releases, random states, TWiCe and CBT tables)
  and the hammer's disturbance dict stay as constructed, and the kernel
  never builds them (BlockHammer's filter counters still move in
  place).  Every scalar, the stats, energy, flips and the maximum
  disturbance are still written.  Only the engine's
  ``execute_job`` asks for it: it builds the system from a job and
  drops it after the result, so no caller can read the rest.  A
  ``simulate()`` caller's factory may keep its schemes and read them
  after the run, so ``simulate()`` and ``run()`` write back everything.

A hook patched on an *instance* (``controller._apply_arr = ...``), at
any time before ``run()``, keeps that run in python.  A stock class
patched as a whole is not detected: the kernel runs the code it was
built from.
"""

from __future__ import annotations

import dataclasses
import os
import random
import warnings
from array import array
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.mithril import MithrilScheme, MithrilTable
from repro.dram.bank import BankTimingModel, FawTracker
from repro.dram.hammer import FlipEvent, HammerModel
from repro.dram.refresh import AutoRefreshEngine
from repro.mc.controller import BankController
from repro.mc.pagepolicy import (
    ClosedPagePolicy,
    MinimalistOpenPolicy,
    OpenPagePolicy,
)
from repro.mc.rfm import RaaCounter, RfmIssueLogic
from repro.mc.scheduler import BlissScheduler, FrFcfsScheduler
from repro.mitigations.blockhammer import BlockHammerScheme
from repro.mitigations.cbt import CbtScheme, _Node
from repro.mitigations.graphene import GrapheneScheme
from repro.mitigations.para import ParaScheme
from repro.mitigations.parfm import ParfmScheme
from repro.mitigations.twice import TwiceScheme, _TwiceEntry
from repro.protection import NoProtection, SchemeStats
from repro.sim.system import SimulatedSystem
from repro.streaming.cbs import CounterSummary
from repro.streaming.counting_bloom import (
    CountingBloomFilter,
    DualCountingBloomFilter,
)
from repro.types import EnergyCounts

SOURCE = Path(__file__).with_name("_kernel.c")
#: Where artifacts are built; git-ignored like the bytecode beside it.
BUILD_DIR = Path(__file__).with_name("__pycache__")
#: Seconds one compile may take before it counts as failed.
BUILD_TIMEOUT_S = 300

#: ``_kernel.c``'s SCHEME_* codes.
_SCHEME_NONE, _SCHEME_MITHRIL, _SCHEME_BLOCKHAMMER, _SCHEME_GRAPHENE = (
    0, 1, 2, 3
)
_SCHEME_PARA, _SCHEME_PARFM, _SCHEME_TWICE, _SCHEME_CBT = 4, 5, 6, 7
#: ``_kernel.c``'s POLICY_* codes by page-policy type (None: open).
_POLICY_CODES = {
    type(None): 0, OpenPagePolicy: 0, ClosedPagePolicy: 1,
    MinimalistOpenPolicy: 2,
}
#: ``BankTimingModel._last_act_cycle`` before any ACT.
_FRESH_LAST_ACT = -1 << 30
#: The kernel keeps ints in int64 and refreshes at most this many
#: victims per side of an aggressor.
_INT64_MAX = (1 << 63) - 1
_UINT64_MAX = (1 << 64) - 1
_MAX_BLAST_RADIUS = 64
#: Trace rows the kernel takes: far from int64's ends, so ``row +- 1``
#: and the hash maps' empty-slot key stay out of reach.
_ROW_LIMIT = 1 << 62
#: ``hash(row) == row`` exactly for ``0 <= row < 2**61 - 1`` (python's
#: int hash modulus), so the kernel's BlockHammer probes hash ``row``.
_HASH_MODULUS = (1 << 61) - 1

_SCHEME_HOOKS = frozenset({
    "on_activate", "on_rfm", "rfm_needed_flag", "on_autorefresh",
    "throttle_release", "_victims", "_maybe_reset", "_checkpoint",
    "_find_leaf", "_maybe_split",
})
#: The stock types the kernel runs, each with the hooks it runs in C:
#: an instance attribute of one of these names, or any other type,
#: keeps the run in python.
_HOOKS = {
    BankController: frozenset({
        "serve", "_on_activated", "advance_refresh", "_apply_rfm",
        "_apply_arr", "throttle_release", "never_throttles",
    }),
    BankTimingModel: frozenset({"serve_access", "block_for"}),
    FawTracker: frozenset({"earliest_act", "record_act"}),
    AutoRefreshEngine: frozenset({"drain_due", "pop_tick"}),
    HammerModel: frozenset({
        "on_activate", "on_refresh_row", "on_refresh_range",
    }),
    RfmIssueLogic: frozenset({"on_activate"}),
    RaaCounter: frozenset({"on_activate", "reset"}),
    BlissScheduler: frozenset({"pick", "on_served", "_blacklisted"}),
    FrFcfsScheduler: frozenset({"pick", "on_served"}),
    OpenPagePolicy: frozenset({"should_close"}),
    ClosedPagePolicy: frozenset({"should_close"}),
    MinimalistOpenPolicy: frozenset({"should_close"}),
    NoProtection: _SCHEME_HOOKS,
    MithrilScheme: _SCHEME_HOOKS,
    BlockHammerScheme: _SCHEME_HOOKS,
    GrapheneScheme: _SCHEME_HOOKS,
    ParaScheme: _SCHEME_HOOKS,
    ParfmScheme: _SCHEME_HOOKS,
    TwiceScheme: _SCHEME_HOOKS,
    CbtScheme: _SCHEME_HOOKS,
    MithrilTable: frozenset({
        "record_activation", "greedy_select", "demote_max", "spread",
        "max_count", "min_count",
    }),
    CounterSummary: frozenset({
        "observe", "_observe_one", "max_entry", "demote_to_min", "_insert",
        "_remove", "_move", "_advance_min", "reset", "estimate",
    }),
    DualCountingBloomFilter: frozenset({
        "observe_and_estimate", "_rotate", "observe", "estimate", "reset",
    }),
    CountingBloomFilter: frozenset({
        "_indices", "reset", "observe", "estimate",
    }),
}
#: The system's own event handlers, which the kernel replaces.
_SYSTEM_HOOKS = frozenset({
    "_try_issue", "_bank_event", "_complete_event", "_push",
    "_make_request",
})
_INT_TYPES = {int, bool}
#: Each bank component's run state and its value as constructed; a
#: bank whose state differs anywhere takes the python loop.
_CONTROLLER_STATE = attrgetter(
    "queue", "_consecutive_hits", "arr_stall_cycles", "rfm_stall_cycles",
    "refresh_stall_cycles",
)
_FRESH_CONTROLLER = ([], 0, 0, 0, 0)
_TIMING_STATE = attrgetter(
    "open_row", "_last_act_cycle", "ready_cycle", "act_count", "pre_count",
    "access_count", "refresh_blocks",
)
_FRESH_TIMING = (None, _FRESH_LAST_ACT, 0, 0, 0, 0, 0)
_REFRESH_STATE = attrgetter("_group_cursor", "ticks_processed")
_FRESH_REFRESH = (0, 0)
_ENERGY_STATE = attrgetter(*(f.name for f in dataclasses.fields(EnergyCounts)))
_FRESH_ENERGY = _ENERGY_STATE(EnergyCounts())
_STATS_STATE = attrgetter(*(f.name for f in dataclasses.fields(SchemeStats)))
_FRESH_STATS = _STATS_STATE(SchemeStats())
_HAMMER_STATE = attrgetter(
    "_disturbance", "flips", "max_disturbance", "max_disturbance_row"
)
_FRESH_HAMMER = ({}, [], 0, None)
_RFM_STATE = attrgetter("raa.value", "rfm_issued", "rfm_elided", "mrr_reads")
_FRESH_RFM = (0, 0, 0, 0)
#: A controller's timing and refresh fields (BF_TRP.. BF_NUM_GROUPS).
_CONTROLLER_FIELDS = attrgetter(
    "bank._trp", "bank._tras", "_trfc_cycles", "_trfm_cycles",
    "_trc_cycles", "refresh._next_tick", "refresh.trefi_cycles",
    "refresh.rows_per_group", "refresh.num_groups",
)
#: A controller's parts, read once per bank.
_BANK_PARTS = attrgetter(
    "bank", "refresh", "hammer", "rfm_logic", "channel_state", "page_policy",
    "energy",
)
#: The hammer and RFM halves of a bank's fields without either.
_NO_HAMMER = (False, 0, 0)
_NO_RFM = (False, 0, False)
#: The scheme half of a bank's fields for a scheme with no parameters.
_NO_SCHEME = (_SCHEME_NONE,) + (0,) * 12
#: Scheme and tracker state that is zero (or empty) as constructed.
_SUMMARY_STATE = attrgetter(
    "_counts", "_buckets", "_max_heap", "_min_count", "_total_observed",
    "evictions",
)
_BLOCKHAMMER_STATE = attrgetter("_release", "blacklisted_rows_seen")
_DUAL_STATE = attrgetter("_active", "_since_swap")
_GRAPHENE_STATE = attrgetter("resets", "_next_trigger")
_TWICE_STATE = attrgetter("_entries", "max_entries_seen", "pruned")

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


def _stock(objects) -> bool:
    """Every object is of a stock type the kernel runs, with none of the
    hooks it runs in C overridden on the instance.

    Each type's hook set is resolved once per call, and every object's
    own attribute names are checked against the union of the hook sets
    of the types present (mixed schemes share one hook set).
    """
    hooks = set()
    for kind in set(map(type, objects)):
        kind_hooks = _HOOKS.get(kind)
        if kind_hooks is None:
            return False
        hooks |= kind_hooks
    return all(map(hooks.isdisjoint, map(vars, objects)))


def _int64s(values) -> bool:
    """Every value is an int (or bool) that fits the kernel's int64;
    anything else (a float threshold, say) keeps python semantics."""
    return (
        set(map(type, values)) <= _INT_TYPES
        and -_INT64_MAX <= min(values) and max(values) <= _INT64_MAX
    )


def _double(value) -> bool:
    """``value`` is a float, or an int a C double holds exactly."""
    return type(value) is float or (
        type(value) is int and -(1 << 53) <= value <= 1 << 53
    )


def _seed(scheme) -> bool:
    """A PARA/PARFM scheme has not drawn yet (its ``random.Random`` is
    built at the first draw) and has an int seed the kernel seeds from:
    ``abs(seed)`` below 2**64, CPython's ``init_by_array`` key."""
    seed = scheme.seed
    return (
        scheme._rng is None and type(seed) is int
        and -_UINT64_MAX <= seed <= _UINT64_MAX
    )


def _any_set(getter, objects) -> bool:
    """Any of ``getter``'s attributes of any object is truthy."""
    return any(chain.from_iterable(map(getter, objects)))


def _fresh(getter, fresh, objects) -> bool:
    """Every object's ``getter`` state equals ``fresh``, its value as
    constructed."""
    return all(map(fresh.__eq__, map(getter, objects)))


def _fresh_filters(filters) -> bool:
    """Stock, unobserved filters whose counters are each an
    ``array('q')`` of the filter's size.  The kernel increments those
    counters in place, exactly as python would, so it needs no check of
    their values."""
    return _stock(filters) and all(
        type(f._counters) is array and f._counters.typecode == "q"
        and 0 < len(f._counters) == f.size and not f._total
        for f in filters
    )


def _probe_seeds(seeds: tuple) -> bool:
    """A filter's premixed probe seeds all fit a uint64."""
    return bool(seeds) and all(
        type(seed) is int and 0 <= seed <= _UINT64_MAX for seed in seeds
    )


# Per scheme type: ``schemes -> (fields, extras, owned)`` for a list of
# schemes of that type, or None when one's state is not as constructed.
# ``fields`` holds each scheme's half of its bank's fields
# (``_kernel.c``'s BF_SCHEME.. BF_PLUS: scheme, rows, capacity,
# threshold, interval, next, split, delay, blast radius, wrap window,
# counter bits, adaptive threshold, plus), ``extras`` each one's non-int
# input and ``owned`` the mutable objects the kernel writes, which no
# other bank may share.


def _pack_none(schemes):
    return [_NO_SCHEME] * len(schemes), [None] * len(schemes), schemes


def _wrap_window(table) -> int:
    """-1 when unchecked, or wider than any reachable spread."""
    window = table._wrap_window
    return -1 if window is None or window > _INT64_MAX else window


def _pack_mithril(schemes):
    tables = [scheme.table for scheme in schemes]
    summaries = [table._summary for table in tables]
    if not (
        _stock(tables) and _stock(summaries)
        and not any(table._max_spread_seen for table in tables)
        and not _any_set(_SUMMARY_STATE, summaries)
    ):
        return None
    fields = [
        (_SCHEME_MITHRIL, scheme.rows_per_bank, summary.capacity, 0, 0, 0,
         0, 0, scheme.blast_radius, _wrap_window(table),
         table.counter_bits or 0, scheme.adaptive_th, scheme.plus)
        for scheme, table, summary in zip(schemes, tables, summaries)
    ]
    return fields, [None] * len(schemes), [*schemes, *tables, *summaries]


def _pack_blockhammer(schemes):
    cbfs = [scheme.cbf for scheme in schemes]
    if not (
        _stock(cbfs) and not _any_set(_BLOCKHAMMER_STATE, schemes)
        and not _any_set(_DUAL_STATE, cbfs)
        and all(len(cbf._filters) == 2 for cbf in cbfs)
    ):
        return None
    filters = [f for cbf in cbfs for f in cbf._filters]
    seeds = [tuple(f._probe_seeds) for f in filters]
    if not (_fresh_filters(filters) and all(map(_probe_seeds, set(seeds)))):
        return None
    counters = [f._counters for f in filters]
    inputs = list(zip(counters, seeds))
    fields = [
        (_SCHEME_BLOCKHAMMER, 0, 0, scheme.n_bl, cbf.half_epoch, 0, 0,
         scheme.delay_cycles, 0, 0, 0, 0, 0)
        for scheme, cbf in zip(schemes, cbfs)
    ]
    return (
        fields, list(zip(inputs[0::2], inputs[1::2])),
        [*schemes, *cbfs, *filters, *counters],
    )


def _pack_graphene(schemes):
    tables = [scheme.table for scheme in schemes]
    if not (
        _stock(tables) and not _any_set(_GRAPHENE_STATE, schemes)
        and not _any_set(_SUMMARY_STATE, tables)
    ):
        return None
    fields = [
        (_SCHEME_GRAPHENE, scheme.rows_per_bank, table.capacity,
         scheme.threshold, scheme.reset_interval_cycles, scheme._next_reset,
         0, 0, 0, 0, 0, 0, 0)
        for scheme, table in zip(schemes, tables)
    ]
    return fields, [None] * len(schemes), [*schemes, *tables]


def _pack_para(schemes):
    if not all(
        _seed(scheme) and _double(scheme.probability) for scheme in schemes
    ):
        return None
    return (
        [(_SCHEME_PARA, scheme.rows_per_bank) + (0,) * 11
         for scheme in schemes],
        [(abs(scheme.seed), scheme.probability) for scheme in schemes],
        schemes,
    )


def _pack_parfm(schemes):
    if not all(
        _seed(scheme) and scheme._sample is None
        and not scheme._interval_acts
        for scheme in schemes
    ):
        return None
    return (
        [(_SCHEME_PARFM, scheme.rows_per_bank, 0, 0, 0, 0, 0, 0,
          scheme.blast_radius, 0, 0, 0, 0) for scheme in schemes],
        [(abs(scheme.seed),) for scheme in schemes],
        schemes,
    )


def _pack_twice(schemes):
    if _any_set(_TWICE_STATE, schemes) or not all(
        _double(scheme.prune_rate) for scheme in schemes
    ):
        return None
    return (
        [(_SCHEME_TWICE, scheme.rows_per_bank, 0, scheme.arr_threshold,
          scheme._trefi_cycles, scheme._next_checkpoint, 0, 0, 0, 0, 0, 0,
          0) for scheme in schemes],
        [(scheme.prune_rate,) for scheme in schemes],
        [*schemes, *(scheme._entries for scheme in schemes)],
    )


def _fresh_cbt(scheme) -> bool:
    root = scheme._root
    return (
        type(root) is _Node and root.left is None and root.right is None
        and not root.count and root.lo == 0
        and root.hi == scheme.rows_per_bank - 1
        and scheme._counters_used == 1
        and not scheme.refreshed_rows_histogram
    )


def _pack_cbt(schemes):
    if not all(map(_fresh_cbt, schemes)):
        return None
    return (
        [(_SCHEME_CBT, scheme.rows_per_bank, scheme.num_counters,
          scheme.refresh_threshold, 0, 0, scheme.split_threshold, 0, 0, 0, 0,
          0, 0) for scheme in schemes],
        [None] * len(schemes),
        [*schemes, *(scheme._root for scheme in schemes),
         *(scheme.refreshed_rows_histogram for scheme in schemes)],
    )


_PACKERS = {
    NoProtection: _pack_none,
    MithrilScheme: _pack_mithril,
    BlockHammerScheme: _pack_blockhammer,
    GrapheneScheme: _pack_graphene,
    ParaScheme: _pack_para,
    ParfmScheme: _pack_parfm,
    TwiceScheme: _pack_twice,
    CbtScheme: _pack_cbt,
}

#: Field positions ``pack`` validates beyond int64 (``_kernel.c``'s
#: BF_SCHEME, BF_SCHEME_ROWS, BF_INTERVAL, BF_BLAST_RADIUS).
_BF_SCHEME, _BF_SCHEME_ROWS, _BF_INTERVAL, _BF_BLAST_RADIUS = 18, 19, 22, 26


def _pristine_system(system) -> bool:
    """Nothing has run and nothing was injected at the system level."""
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
    return True


def _dedupe(objects) -> tuple:
    """(each object's index among the distinct ones, -1 for None; the
    distinct objects in order of first appearance), by identity."""
    distinct = {id(obj): obj for obj in objects if obj is not None}
    index = dict(zip(distinct, range(len(distinct))))
    index[id(None)] = -1
    return list(map(index.__getitem__, map(id, objects))), [*distinct.values()]


def _bank_fields(controllers, schemes, bank_channel,
                 policy) -> Optional[tuple]:
    """(each bank's fields up to BF_MRR_GATED in ``_kernel.c``'s order,
    the distinct channel states, the distinct tFAW windows), or None
    when a component is not stock or not pristine.  The tFAW windows,
    shared by a channel's banks, are checked by ``pack``."""
    (timing_models, refreshes, hammers, rfms, channels, policies,
     energies) = zip(*map(_BANK_PARTS, controllers))
    hammers_on = [hammer for hammer in hammers if hammer is not None]
    rfms_on = [rfm for rfm in rfms if rfm is not None]
    if not (
        all(bank_policy is policy for bank_policy in policies)
        and _stock(controllers) and _stock(timing_models)
        and _stock(refreshes) and _stock(hammers_on) and _stock(rfms_on)
        and _stock([rfm.raa for rfm in rfms_on])
        and all(hammer.blast_weights == (1.0,) for hammer in hammers_on)
    ):
        return None
    if not (
        _fresh(_CONTROLLER_STATE, _FRESH_CONTROLLER, controllers)
        and _fresh(_TIMING_STATE, _FRESH_TIMING, timing_models)
        and _fresh(_REFRESH_STATE, _FRESH_REFRESH, refreshes)
        and _fresh(_ENERGY_STATE, _FRESH_ENERGY, energies)
        and _fresh(_STATS_STATE, _FRESH_STATS,
                   [scheme.stats for scheme in schemes])
        and _fresh(_HAMMER_STATE, _FRESH_HAMMER, hammers_on)
        and _fresh(_RFM_STATE, _FRESH_RFM, rfms_on)
    ):
        return None
    channel_index, channel_states = _dedupe(channels)
    if any(state.bus_free_cycle for state in channel_states):
        return None
    faw_index, faws = _dedupe([bank.faw for bank in timing_models])
    fields = [
        (channel, faw, scheduler, *_CONTROLLER_FIELDS(controller),
         *(_NO_HAMMER if hammer is None
           else (True, hammer.flip_th, hammer.rows_per_bank)),
         *(_NO_RFM if rfm is None
           else (True, rfm.raa.rfm_th, rfm.mrr_gated)))
        for controller, channel, faw, scheduler, hammer, rfm in zip(
            controllers, channel_index, faw_index, bank_channel, hammers,
            rfms,
        )
    ]
    return fields, channel_states, faws


def _scheme_fields(schemes) -> Optional[tuple]:
    """(each bank's scheme half of its fields, extras, the objects the
    kernel writes), packing each scheme type's banks together; None
    when a scheme is not covered."""
    if not _stock(schemes):
        return None
    fields = [None] * len(schemes)
    extras = [None] * len(schemes)
    owned = []
    kinds = list(map(type, schemes))
    for kind in dict.fromkeys(kinds):
        banks = [index for index, other in enumerate(kinds) if other is kind]
        packed = _PACKERS[kind]([schemes[index] for index in banks])
        if packed is None:
            return None
        for index, bank_fields, extra in zip(banks, packed[0], packed[1]):
            fields[index] = bank_fields
            extras[index] = extra
        owned.extend(packed[2])
    return fields, extras, owned


def pack(system) -> Optional[tuple]:
    """The kernel's arguments for ``system``, or None when the kernel
    cannot run it exactly: a component of another type or with an
    instance-patched hook, a probe, a state other than as constructed
    (a PARA/PARFM random stream drawn from included), a tracker shared
    between banks, a parameter outside int64 (or a probability outside
    a C double), a seed the kernel cannot take, a trace row the kernel
    cannot take, or a host where the kernel does not build."""
    if (
        type(system) is not SimulatedSystem or system._probe is not None
        or not system.__dict__.keys().isdisjoint(_SYSTEM_HOOKS)
        or not _pristine_system(system)
    ):
        return None
    if not _stock(system._schedulers):
        return None
    schedulers = []
    for scheduler in system._schedulers:
        if type(scheduler) is BlissScheduler:
            if (
                scheduler._last_core is not None or scheduler._streak
                or scheduler._blacklist_until
            ):
                return None
            schedulers.append((True, scheduler.blacklist_threshold,
                               scheduler.blacklist_cycles))
        else:
            schedulers.append((False, 0, 0))
    controllers = system.banks
    policy = controllers[0].page_policy
    if policy is not None and not _stock([policy]):
        return None
    policy_mode = _POLICY_CODES[type(policy)]
    schemes = [controller.scheme for controller in controllers]
    bank_half = _bank_fields(controllers, schemes, system._bank_channel,
                             policy)
    scheme_half = _scheme_fields(schemes)
    if bank_half is None or scheme_half is None:
        return None
    bank_fields, channel_states, faws = bank_half
    scheme_fields, extras, owned = scheme_half
    # The kernel gives every bank its own tracker: one shared between
    # banks (or one filter's counters between filters) stays python.
    if len(set(map(id, owned))) != len(owned):
        return None
    if not (
        _stock(faws)
        and all(faw.window >= 1 and not faw._recent for faw in faws)
    ):
        return None
    banks = list(map(tuple.__add__, bank_fields, scheme_fields))
    timings = system.config.timings
    config = (  # the order of _kernel.c's CF_* enum
        system.num_banks,
        system._seq,
        timings.trp_cycles,
        timings.trcd_cycles,
        timings.tcl_cycles,
        timings.tbl_cycles,
        timings.trc_cycles,
        timings.tras_cycles,
        policy_mode,
        policy.burst_limit if policy_mode == 2 else 0,
    )
    # Banks mostly repeat each other's fields: one pass checks every
    # value's type, and ranges are checked on each distinct field set.
    if not set(map(type, chain.from_iterable(banks))) <= _INT_TYPES:
        return None
    distinct = set(banks)
    scalars = list(config)
    scalars.extend(core.mlp for core in system.cores)
    scalars.extend(value for fields in schedulers for value in fields)
    scalars.extend(value for fields in distinct for value in fields)
    if not _int64s(scalars):
        return None
    codes = set()
    cbt_rows = _ROW_LIMIT
    for fields in distinct:
        scheme = fields[_BF_SCHEME]
        codes.add(scheme)
        if (
            fields[_BF_BLAST_RADIUS] > _MAX_BLAST_RADIUS
            or (scheme in (_SCHEME_GRAPHENE, _SCHEME_TWICE)
                and fields[_BF_INTERVAL] < 1)
        ):
            return None
        if scheme == _SCHEME_CBT:
            cbt_rows = min(cbt_rows, fields[_BF_SCHEME_ROWS])
    # Trace rows: within the kernel's range; BlockHammer's hashed as
    # themselves; CBT's inside its tree (python raises otherwise).
    low, high = 0, 0
    cores = []
    for core in system.cores:
        trace = core.trace
        rows = np.ascontiguousarray(trace.row, dtype=np.int64)
        if len(rows):
            low = min(low, int(rows.min()))
            high = max(high, int(rows.max()))
        cores.append((
            np.ascontiguousarray(trace.gap_cycles, dtype=np.int64),
            np.ascontiguousarray(trace.bank_index, dtype=np.int64),
            rows,
            np.ascontiguousarray(trace.is_write, dtype=np.bool_),
            len(rows),
            core.mlp,
        ))
    if (
        low < -_ROW_LIMIT or high > _ROW_LIMIT
        or (_SCHEME_BLOCKHAMMER in codes
            and (low < 0 or high >= _HASH_MODULUS))
        or (_SCHEME_CBT in codes and (low < 0 or high >= cbt_rows))
    ):
        return None
    if load() is None:
        return None
    return config, cores, banks, channel_states, faws, schedulers, extras


# ----------------------------------------------------------------------
# run and write back
# ----------------------------------------------------------------------


def drain(system, packed: tuple, *, result_only: bool = False) -> None:
    """Run ``packed`` (from :func:`pack`) on the kernel and write the
    final state back onto ``system``'s objects; with ``result_only``,
    all but the tracker state and hammer disturbance dicts (see
    "Result only" above)."""
    config, cores, banks, channel_states, faws, schedulers, extras = packed
    (seq, row_hits, row_misses, core_states, bank_states, bus_free,
     faw_states, scheduler_states) = load().drain(
        config, cores, banks, len(channel_states),
        [(faw.window, faw.tfaw_cycles) for faw in faws], schedulers,
        extras, not result_only,
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
        (disturbance, flips, hammer.max_disturbance,
         hammer.max_disturbance_row) = hammer_state
        if disturbance is not None:
            hammer._disturbance = disturbance
        if flips:
            hammer.flips.extend(
                FlipEvent(cycle=cycle, row=row, disturbance=level,
                          aggressor=aggressor)
                for cycle, row, level, aggressor in flips
            )
    writer = _WRITERS.get(type(scheme))
    if writer is not None and tracker is not None:
        writer(scheme, tracker)


def _write_summary(summary, cbs_state) -> None:
    # the heap comes sorted, hence a valid heap
    (summary._counts, summary._buckets, summary._max_heap,
     summary._min_count, summary._total_observed,
     summary.evictions) = cbs_state


def _write_rng(scheme, state) -> None:
    """Give a scheme that drew the ``random.Random`` the python loop
    would have built at its first draw, in the kernel's advanced state
    (None: no draw, so it stays unbuilt).  ``setstate`` sets every state
    word, the index and ``gauss_next``, so the instance needs no seeding
    of its own."""
    if state is not None:
        rng = random.Random.__new__(random.Random)
        rng.setstate((rng.VERSION, state, None))
        scheme._rng = rng


def _write_mithril(scheme, tracker) -> None:
    cbs_state, scheme.table._max_spread_seen = tracker
    _write_summary(scheme.table._summary, cbs_state)


def _write_blockhammer(scheme, tracker) -> None:
    cbf = scheme.cbf
    (totals, cbf._active, cbf._since_swap, scheme._release,
     scheme.blacklisted_rows_seen) = tracker
    for cbf_filter, total in zip(cbf._filters, totals):
        cbf_filter._total = total  # counters were written in place


def _write_graphene(scheme, tracker) -> None:
    (cbs_state, scheme._next_trigger, scheme._next_reset,
     scheme.resets) = tracker
    _write_summary(scheme.table, cbs_state)


def _write_para(scheme, tracker) -> None:
    _write_rng(scheme, tracker[0])


def _write_parfm(scheme, tracker) -> None:
    state, scheme._sample, scheme._interval_acts = tracker
    _write_rng(scheme, state)


def _write_twice(scheme, tracker) -> None:
    (entries, scheme._next_checkpoint, scheme.max_entries_seen,
     scheme.pruned) = tracker
    scheme._entries.update(
        (row, _TwiceEntry(act_count=count, life=life))
        for row, count, life in entries
    )


def _write_cbt(scheme, tracker) -> None:
    nodes, scheme._counters_used, histogram = tracker
    scheme.refreshed_rows_histogram.extend(histogram)
    built = [scheme._root] + [
        _Node(lo=lo, hi=hi) for lo, hi, _count, _left, _right in nodes[1:]
    ]
    for node, (_lo, _hi, count, left, right) in zip(built, nodes):
        node.count = count
        if left >= 0:
            node.left = built[left]
            node.right = built[right]


_WRITERS = {
    MithrilScheme: _write_mithril,
    BlockHammerScheme: _write_blockhammer,
    GrapheneScheme: _write_graphene,
    ParaScheme: _write_para,
    ParfmScheme: _write_parfm,
    TwiceScheme: _write_twice,
    CbtScheme: _write_cbt,
}
