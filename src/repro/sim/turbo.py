"""The turbo simulation backend: windowed decode + epoch-batched fused drain.

:class:`TurboSimulatedSystem` runs the exact same co-simulation as
:class:`~repro.sim.system.SimulatedSystem` — the golden suite pins
every scheme × workload result byte for byte across both backends —
but restructures the event loop for CPython throughput:

* the issue path reads windows of the trace's own columns
  (:mod:`repro.sim.soa`) and never builds
  :class:`~repro.workloads.trace.TraceEntry` objects; it folds the
  ``TraceCore.issue`` bookkeeping inline, and recycles served
  :class:`~repro.types.MemoryRequest` objects through a pool;
* ``run`` drains all heap events sharing a cycle in one pass (an
  *epoch*), dispatching through a fused fast path that inlines the
  scalar backend's per-event call chain —
  ``_bank_event → BankController.serve → BankTimingModel.serve_access
  → _on_activated → HammerModel.on_activate`` — into straight-line
  code with no ``BankServiceResult`` allocation, plus per-flat context
  tuples and a cached refresh-tick horizon in place of repeated
  attribute/property loads;
* the per-ACT tracker updates of the *stock* schemes are specialized:
  ``NoProtection``, Mithril/Mithril+ (CbS update + spread check),
  Graphene (table update + ARR trigger) and BlockHammer (dual-CBF
  observe-and-estimate + blacklist + throttle probes) run inline,
  eliminating four to seven call frames per ACT while leaving the
  underlying data-structure operations
  (``CounterSummary._observe_one``, ``CountingBloomFilter._indices``,
  rotation) as the single source of truth.  Any other scheme — and
  ARR/RFM application, auto-refresh, FR-FCFS scheduling — stays a
  real call, so semantics are untouched.

The fused path is only taken when every cooperating component is the
stock implementation (checked by construction-time ``type(...) is``
snapshots — a subclassed controller, timing model, hammer model, page
policy or scheduler drops the whole system back to the scalar
handlers inside the same epoch-batched drain, and a subclassed or
instance-patched scheme merely drops its own inline specialization).
Unlike the scalar backend, fusability is snapshotted at construction:
monkeypatching a component *after* building the system is not honored
— build the system after patching, or pass ``backend="scalar"``.
Turbo is the default backend; its exactness against the scalar
reference is owned by the golden-equivalence suite, the cross-backend
battery and the probe-parity tests.

Native kernel: a run the kernel covers — every bank ``none``,
Mithril / Mithril+ or Graphene without throttling, or BlockHammer with
its own throttle, hammer and RFM logic on their fast paths, no probe,
no cycle limit, a pristine system (see
:meth:`TurboSimulatedSystem._kernel_args`) — is handed whole to the C
drain in :mod:`repro.sim.kernel`, which ports ``_drain_fused`` on
exactly those paths and writes the final state back onto the same
objects.  Every other run, and every run on a host where the kernel
cannot be built, goes through ``_drain_fused`` / ``_drain_generic``
below; ``drain_path`` and the ``sim.drain`` telemetry span record
which of the three ran.

Same-cycle bank events land on distinct banks (a bank schedules at
most one serve per cycle), so per-sketch batches within an epoch stay
tiny (~1.02 events measured).  Each bank's tracker update therefore
runs at its ACT on that bank's own objects, uniform or mixed schemes
alike.  The one cross-bank saving is BlockHammer's probe hashing:
just before ``_drain_fused`` runs, every trace row is hashed in one
vectorized pass into the filters' shared index caches (see
:func:`~repro.streaming.counting_bloom.prefill_index_caches`); a
kernel run hashes in C and skips it.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.core.mithril import MithrilScheme, MithrilTable
from repro.dram.bank import BankTimingModel, FawTracker
from repro.dram.hammer import FlipEvent, HammerModel
from repro.dram.refresh import AutoRefreshEngine
from repro.mc.controller import BankController
from repro.mc.rfm import RaaCounter, RfmIssueLogic
from repro.mc.pagepolicy import (
    ClosedPagePolicy,
    MinimalistOpenPolicy,
    OpenPagePolicy,
)
from repro.mc.scheduler import BlissScheduler, FrFcfsScheduler
from repro.mitigations.blockhammer import BlockHammerScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.protection import NoProtection
from repro.sim import kernel
from repro.sim.metrics import SimulationResult
from repro.sim.soa import TraceWindow
from repro.sim.system import (
    _BANK,
    _COMPLETE,
    _CYCLE_SHIFT,
    _IDENT_BITS,
    _IDENT_MASK,
    _ISSUE,
    _LOW_BITS,
    _SEQ_BITS,
    _SEQ_LIMIT,
    SimulatedSystem,
)
from repro.streaming.cbs import CounterSummary
from repro.streaming.counting_bloom import (
    CountingBloomFilter,
    DualCountingBloomFilter,
    prefill_index_caches,
)
from repro.types import MemoryRequest, RowAddress

#: Page-policy encodings for the fused path.
_POLICY_OPEN, _POLICY_CLOSED, _POLICY_MINIMALIST = 0, 1, 2

#: Per-ACT tracker-update specializations (see _snapshot_fusability).
_ACT_GENERIC, _ACT_NONE, _ACT_MITHRIL, _ACT_BLOCKHAMMER, _ACT_GRAPHENE = (
    0, 1, 2, 3, 4
)

#: Throttle-release specializations.
_THROTTLE_NEVER, _THROTTLE_BLOCKHAMMER, _THROTTLE_GENERIC = 0, 1, 2

#: (per-ACT, throttle) specializations the native kernel runs.
_KERNEL_MODES = {
    (_ACT_NONE, _THROTTLE_NEVER),
    (_ACT_MITHRIL, _THROTTLE_NEVER),
    (_ACT_GRAPHENE, _THROTTLE_NEVER),
    (_ACT_BLOCKHAMMER, _THROTTLE_BLOCKHAMMER),
}


def _unpatched(obj, base_class, *methods) -> bool:
    """``obj`` is exactly ``base_class`` with no method overrides."""
    if type(obj) is not base_class:
        return False
    for method in methods:
        if method in obj.__dict__:
            return False
    return True


class TurboSimulatedSystem(SimulatedSystem):
    """Vectorized-decode, fused-event-loop system (numpy required)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: per-core windowed column decode; the issue paths page
        #: through long traces via ``ensure``.
        self._soa = [
            TraceWindow(core.trace, self.num_banks) for core in self.cores
        ]
        #: served requests are recycled into new issues (the fused
        #: drain owns every reference, so reuse is invisible).
        self._request_pool = []
        #: one-unpack context for the issue path (stable objects).
        self._issue_ctx = (
            self.banks,
            self._queue_cores,
            self._queue_len,
            self._bank_scheduled,
            self._row_address,
            self._bank_address,
            self._heap,
            self._request_pool,
        )
        self._fused = self._snapshot_fusability()
        #: which drain the run took: "kernel" (native), "fused" or
        #: "generic" (python); None before run()
        self.drain_path: Optional[str] = None

    # ------------------------------------------------------------------

    def _build_core_flats(self):
        # The windowed decode supplies flats to the overridden issue
        # paths; the scalar tables would need every entry object.
        return [None] * len(self.cores)

    def _snapshot_fusability(self) -> bool:
        """True when every component is stock (fused path is exact)."""
        self._bliss_channel = []
        for scheduler in self._schedulers:
            if type(scheduler) not in (BlissScheduler, FrFcfsScheduler):
                return False
            if (
                "pick" in scheduler.__dict__
                or "on_served" in scheduler.__dict__
            ):
                return False
            self._bliss_channel.append(type(scheduler) is BlissScheduler)
        throttle_modes = []
        act_modes = []
        fast_hammer = []
        fast_rfm = []
        contexts = []
        policy_modes = set()
        for controller in self.banks:
            if (
                type(controller) is not BankController
                or type(controller.bank) is not BankTimingModel
                or type(controller.refresh) is not AutoRefreshEngine
                or (controller.bank.faw is not None
                    and type(controller.bank.faw) is not FawTracker)
            ):
                return False
            hammer = controller.hammer
            if hammer is not None and type(hammer) is not HammerModel:
                return False
            policy = controller.page_policy
            if policy is None or type(policy) is OpenPagePolicy:
                policy_modes.add((_POLICY_OPEN, 0))
            elif type(policy) is ClosedPagePolicy:
                policy_modes.add((_POLICY_CLOSED, 0))
            elif type(policy) is MinimalistOpenPolicy:
                policy_modes.add(
                    (_POLICY_MINIMALIST, policy.burst_limit)
                )
            else:
                return False
            scheme = controller.scheme
            # Throttle specialization: never / blockhammer-inline /
            # generic memoized call (the scalar path's behavior).
            if controller.never_throttles():
                throttle_modes.append(_THROTTLE_NEVER)
            elif (
                type(controller).throttle_release
                is BankController.throttle_release
                and "throttle_release" not in controller.__dict__
                and _unpatched(
                    scheme, BlockHammerScheme, "throttle_release"
                )
                and type(scheme).throttle_release
                is BlockHammerScheme.throttle_release
            ):
                throttle_modes.append(_THROTTLE_BLOCKHAMMER)
            else:
                throttle_modes.append(_THROTTLE_GENERIC)
            # Per-ACT tracker-update specialization.
            if _unpatched(scheme, NoProtection, "on_activate"):
                act_modes.append(_ACT_NONE)
            elif (
                _unpatched(scheme, MithrilScheme, "on_activate")
                and type(scheme).on_activate is MithrilScheme.on_activate
                and type(scheme.table) is MithrilTable
                and type(scheme.table._summary) is CounterSummary
            ):
                act_modes.append(_ACT_MITHRIL)
            elif (
                _unpatched(scheme, BlockHammerScheme, "on_activate")
                and type(scheme).on_activate
                is BlockHammerScheme.on_activate
                and type(scheme.cbf) is DualCountingBloomFilter
                and all(
                    type(f) is CountingBloomFilter
                    for f in scheme.cbf._filters
                )
            ):
                act_modes.append(_ACT_BLOCKHAMMER)
            elif (
                _unpatched(scheme, GrapheneScheme,
                           "on_activate", "_maybe_reset")
                and type(scheme).on_activate
                is GrapheneScheme.on_activate
                and type(scheme)._maybe_reset
                is GrapheneScheme._maybe_reset
                and type(scheme.table) is CounterSummary
            ):
                act_modes.append(_ACT_GRAPHENE)
            else:
                act_modes.append(_ACT_GENERIC)
            fast_hammer.append(
                hammer is not None
                and hammer.blast_weights == (1.0,)
            )
            rfm_logic = controller.rfm_logic
            fast_rfm.append(
                rfm_logic is not None
                and _unpatched(rfm_logic, RfmIssueLogic, "on_activate")
                and _unpatched(rfm_logic.raa, RaaCounter, "on_activate")
            )
            contexts.append([
                controller,
                controller.queue,
                controller.bank,
                controller.channel_state,
                controller.energy,
                controller.refresh,
                scheme,
                hammer,
            ])
        if len(policy_modes) != 1:
            return False  # mixed policies: not produced by any config
        (self._policy_mode, self._policy_burst), = policy_modes
        self._throttle_mode = throttle_modes
        self._act_mode = act_modes
        self._fast_hammer = fast_hammer
        self._fast_rfm = fast_rfm
        # One tuple unpack per bank event instead of six list reads:
        # fold the per-flat mode flags and channel scheduler in.
        for flat, ctx in enumerate(contexts):
            channel = self._bank_channel[flat]
            ctx.extend([
                throttle_modes[flat],
                act_modes[flat],
                fast_hammer[flat],
                fast_rfm[flat],
                self._schedulers[channel],
                self._bliss_channel[channel],
                channel,
            ])
        self._bank_ctx = [tuple(ctx) for ctx in contexts]
        return True

    # ------------------------------------------------------------------
    # windowed column issue path (overrides the scalar entry path)
    # ------------------------------------------------------------------

    def _try_issue(self, core, cycle: int) -> None:
        core_id = core.core_id
        soa = self._soa[core_id]
        total = soa.length
        (banks, queue_cores, queue_len, scheduled, row_address,
         bank_address, heap, pool) = self._issue_ctx
        heappush = heapq.heappush
        mlp = core.mlp
        index = core.index
        outstanding = core.outstanding_reads
        # Window-relative field access: a trace of at most one window
        # is decoded once (base 0, bound total), so the fast path pays
        # only the ``index - base`` subtraction; a longer trace pages
        # the next window in when ``index`` walks past ``bound``
        # (core.index never decreases, so windows only ever advance).
        base = soa.chunk_start
        bound = soa.chunk_end
        flats = soa.flats
        rows = soa.rows
        columns = soa.columns
        writes = soa.writes
        steps = soa.steps
        while index < total:
            if cycle < core.next_issue_cycle:
                seq = self._seq = self._seq + 1
                if seq >= _SEQ_LIMIT:
                    raise OverflowError(
                        f"event sequence exceeded {_SEQ_LIMIT} "
                        f"(heap-key seq field)"
                    )
                heappush(
                    heap,
                    (((core.next_issue_cycle << _SEQ_BITS) | seq)
                     << _LOW_BITS)
                    | (_ISSUE << _IDENT_BITS) | core_id,
                )
                break
            if index >= bound:
                soa.ensure(index)
                base = soa.chunk_start
                bound = soa.chunk_end
                flats = soa.flats
                rows = soa.rows
                columns = soa.columns
                writes = soa.writes
                steps = soa.steps
            local = index - base
            is_write = writes[local]
            if not is_write and outstanding >= mlp:
                core.stalled_on_mlp = True
                break
            flat = flats[local]
            row = rows[local]
            column = columns[local]
            if is_write:
                core.writes_issued += 1
            else:
                core.reads_issued += 1
                outstanding += 1
            core.next_issue_cycle = cycle + steps[local]
            index += 1
            interned = row_address[flat]
            address = interned.get(row)
            if address is None:
                address = RowAddress(bank_address[flat], row)
                interned[row] = address
            if pool:
                request = pool.pop()
                request.core = core_id
                request.arrival_cycle = cycle
                request.address = address
                request.column = column
                request.is_write = is_write
                request.completion_cycle = None
            else:
                request = MemoryRequest(
                    core=core_id,
                    arrival_cycle=cycle,
                    address=address,
                    column=column,
                    is_write=is_write,
                )
            controller = banks[flat]
            controller.queue.append(request)
            occupancy = queue_cores[flat]
            occupancy[core_id] = occupancy.get(core_id, 0) + 1
            queue_len[flat] += 1
            if not scheduled[flat]:
                scheduled[flat] = True
                ready = controller.bank.ready_cycle
                wake = ready if ready > cycle else cycle
                seq = self._seq = self._seq + 1
                if seq >= _SEQ_LIMIT:
                    raise OverflowError(
                        f"event sequence exceeded {_SEQ_LIMIT} "
                        f"(heap-key seq field)"
                    )
                heappush(
                    heap,
                    (((wake << _SEQ_BITS) | seq) << _LOW_BITS)
                    | (_BANK << _IDENT_BITS) | flat,
                )
        core.index = index
        core.outstanding_reads = outstanding

    def _complete_event(self, core_id: int, cycle: int) -> None:
        core = self.cores[core_id]
        outstanding = core.outstanding_reads - 1
        if outstanding < 0:
            raise RuntimeError(
                f"core {core.core_id}: read completion without "
                f"outstanding read"
            )
        core.outstanding_reads = outstanding
        if core.stalled_on_mlp:
            core.stalled_on_mlp = False
            self._try_issue(core, cycle)

    # ------------------------------------------------------------------
    # epoch-batched drain
    # ------------------------------------------------------------------

    def _kernel_args(self, max_cycles: Optional[int]) -> Optional[tuple]:
        """The native kernel's inputs when it covers this run, else None.

        Covered: the fused snapshot holds, every bank runs ``none``,
        Mithril / Mithril+ or Graphene with no throttling, or
        BlockHammer with its own throttle, each hammer and RFM logic
        (if any) is on its fast path, no probe is attached, there is
        no cycle limit, the kernel loaded (built on the first such run)
        and the system is pristine (:func:`kernel.pack`).  Anything
        else drains in python.
        """
        if (
            max_cycles is not None or not self._fused
            or self._probe is not None
        ):
            return None
        for flat, controller in enumerate(self.banks):
            if (
                (self._act_mode[flat], self._throttle_mode[flat])
                not in _KERNEL_MODES
                or (controller.hammer is not None
                    and not self._fast_hammer[flat])
                or (controller.rfm_logic is not None
                    and not self._fast_rfm[flat])
            ):
                return None
        if kernel.load() is None:
            return None
        return kernel.pack(self)

    def run(self, max_cycles: Optional[int] = None) -> SimulationResult:
        if self._ran:
            raise RuntimeError("a SimulatedSystem can only run once")
        self._ran = True
        # One telemetry branch per run — the drain loops stay untouched.
        from repro import telemetry

        tel = telemetry.get()
        packed = self._kernel_args(max_cycles)
        if packed is not None:
            self.drain_path = "kernel"
        else:
            self.drain_path = "fused" if self._fused else "generic"
        span = (
            tel.span("sim.drain", backend="turbo", path=self.drain_path)
            if tel is not None else telemetry.NOOP_SPAN
        )
        with span:
            if packed is not None:
                kernel.drain(self, packed)
            else:
                self._drain_python(max_cycles)
        if tel is not None:
            counts = {
                "soa.window_loads": sum(soa.loads for soa in self._soa)
            }
            for name, value in counts.items():
                tel.counter(name, value)
            tel.event("sim.run.done", backend="turbo",
                      path=self.drain_path, **counts)
        return self._collect()

    def _drain_python(self, max_cycles: Optional[int]) -> None:
        heap = self._heap
        for core in self.cores:
            self._seq += 1
            heap.append((self._seq << _LOW_BITS) | core.core_id)
        heapq.heapify(heap)
        if not self._fused:
            self._drain_generic(max_cycles)
            return
        # Stock BlockHammer banks find nearly every row's probes
        # pre-hashed: one vectorized pass over the traces' rows.
        prefill_index_caches(
            [
                cbf_filter
                for ctx, mode in zip(self._bank_ctx, self._act_mode)
                if mode == _ACT_BLOCKHAMMER
                for cbf_filter in ctx[6].cbf._filters
            ],
            [core.trace.row for core in self.cores],
        )
        # Pause cyclic GC for the drain: the pool removes nearly all
        # per-event allocation, so generational collections only scan
        # long-lived simulator state over and over.  Results are
        # GC-invariant; the flag is restored on exit.
        import gc

        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self._drain_fused(max_cycles)
        finally:
            if was_enabled:
                gc.enable()

    def _drain_generic(self, max_cycles: Optional[int]) -> None:
        """Epoch drain through the scalar handlers (fallback path)."""
        heap = self._heap
        heappop = heapq.heappop
        limit = float("inf") if max_cycles is None else max_cycles
        cores = self.cores
        try_issue = self._try_issue
        bank_event = self._bank_event
        complete_event = self._complete_event
        probe = self._probe
        probe_next = probe.next_cycle if probe is not None else float("inf")
        while heap:
            cycle = heap[0] >> _CYCLE_SHIFT
            if cycle > limit:
                break
            if cycle >= probe_next:
                # Same logical point as the scalar backend's per-pop
                # check: every event of cycles < cycle applied, none
                # of cycle itself — streams match byte for byte.
                probe.sample(self, cycle)
                probe_next = probe.next_cycle
            while heap:
                key = heap[0]
                if (key >> _CYCLE_SHIFT) != cycle:
                    break
                heappop(heap)
                kind = (key >> _IDENT_BITS) & 3
                ident = key & _IDENT_MASK
                if kind == _BANK:
                    bank_event(ident, cycle)
                elif kind == _ISSUE:
                    try_issue(cores[ident], cycle)
                else:
                    complete_event(ident, cycle)

    def _drain_fused(self, max_cycles: Optional[int]) -> None:
        """The fused fast path: one epoch-batched straight-line loop.

        Inlines (behavior-preserving, see the module docstring):
        ``_bank_event``, ``BankController.serve``,
        ``BankTimingModel.serve_access`` (+ ``FawTracker``),
        ``_on_activated`` with the single-distance ``HammerModel``
        fast path, the stock schemes' per-ACT updates, BLISS ``pick``
        / ``on_served``, and the event pushes.
        """
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        limit = float("inf") if max_cycles is None else max_cycles
        cores = self.cores
        contexts = self._bank_ctx
        bank_scheduled = self._bank_scheduled
        queue_cores = self._queue_cores
        core_served = self._core_served
        last_completion = self._core_last_completion
        soas = self._soa
        banks = self.banks
        scheduled = bank_scheduled
        row_address = self._row_address
        bank_address = self._bank_address
        pool = self._request_pool
        policy_mode = self._policy_mode
        policy_burst = self._policy_burst
        # All banks share one timing configuration.
        timings = self.config.timings
        trp = timings.cycles(timings.trp)
        trcd = timings.cycles(timings.trcd)
        tcl = timings.cycles(timings.tcl)
        tbl = timings.cycles(timings.tbl)
        trc = timings.cycles(timings.trc)
        tras = timings.cycles(timings.tras)
        #: cached refresh horizon per flat bank (next_tick_cycle is a
        #: property; re-read only after an actual refresh drain).
        refresh_next = [
            ctx[5].next_tick_cycle for ctx in contexts
        ]
        # NOTE: the fused drain deliberately abandons self._queue_len
        # (the scalar path's external-queue-mutation guard): nothing
        # can mutate a queue behind this loop's back under the
        # construction snapshot, no fused-path code reads it, and the
        # inline issue loop below skips the increment its generic twin
        # (_try_issue) performs.  Anything consulting _queue_len after
        # a fused run sees stale zeros.
        row_hits = 0
        row_misses = 0
        #: probes off ⇒ one inf-compare per distinct event cycle and
        #: one None-check per ACT; probes on ⇒ sample at the top of the
        #: epoch — the same logical point as the scalar backend's
        #: per-pop check, so streams match byte for byte.
        probe = self._probe
        probe_next = probe.next_cycle if probe is not None else float("inf")
        probe_acts = None if probe is None else probe.act_counts
        seq = self._seq
        while heap:
            cycle = heap[0] >> _CYCLE_SHIFT
            if cycle > limit:
                break
            if cycle >= probe_next:
                probe.sample(self, cycle)
                probe_next = probe.next_cycle
            while heap:
                key = heap[0]
                if (key >> _CYCLE_SHIFT) != cycle:
                    break
                heappop(heap)
                kind = (key >> _IDENT_BITS) & 3
                if kind != _BANK:
                    core_id = key & _IDENT_MASK
                    core = cores[core_id]
                    if kind == _ISSUE:
                        issuing = True
                    else:
                        # inline _complete_event
                        outstanding = core.outstanding_reads - 1
                        if outstanding < 0:
                            raise RuntimeError(
                                f"core {core.core_id}: read completion "
                                f"without outstanding read"
                            )
                        core.outstanding_reads = outstanding
                        issuing = core.stalled_on_mlp
                        if issuing:
                            core.stalled_on_mlp = False
                    if issuing:
                        # ---- inline _try_issue (window issue loop) ---
                        soa = soas[core_id]
                        total = soa.length
                        base = soa.chunk_start
                        bound = soa.chunk_end
                        flats = soa.flats
                        soa_rows = soa.rows
                        soa_columns = soa.columns
                        soa_writes = soa.writes
                        soa_steps = soa.steps
                        mlp = core.mlp
                        index = core.index
                        outstanding = core.outstanding_reads
                        while index < total:
                            if cycle < core.next_issue_cycle:
                                seq += 1
                                if seq >= _SEQ_LIMIT:
                                    raise OverflowError(
                                        f"event sequence exceeded "
                                        f"{_SEQ_LIMIT} (heap-key seq "
                                        f"field)"
                                    )
                                heappush(
                                    heap,
                                    (((core.next_issue_cycle
                                       << _SEQ_BITS) | seq)
                                     << _LOW_BITS)
                                    | (_ISSUE << _IDENT_BITS) | core_id,
                                )
                                break
                            if index >= bound:
                                # page the next window in
                                # (windows only advance)
                                soa.ensure(index)
                                base = soa.chunk_start
                                bound = soa.chunk_end
                                flats = soa.flats
                                soa_rows = soa.rows
                                soa_columns = soa.columns
                                soa_writes = soa.writes
                                soa_steps = soa.steps
                            local = index - base
                            is_write = soa_writes[local]
                            if not is_write and outstanding >= mlp:
                                core.stalled_on_mlp = True
                                break
                            flat = flats[local]
                            row = soa_rows[local]
                            column = soa_columns[local]
                            if is_write:
                                core.writes_issued += 1
                            else:
                                core.reads_issued += 1
                                outstanding += 1
                            core.next_issue_cycle = (
                                cycle + soa_steps[local]
                            )
                            index += 1
                            interned = row_address[flat]
                            address = interned.get(row)
                            if address is None:
                                address = RowAddress(
                                    bank_address[flat], row
                                )
                                interned[row] = address
                            if pool:
                                request = pool.pop()
                                request.core = core_id
                                request.arrival_cycle = cycle
                                request.address = address
                                request.column = column
                                request.is_write = is_write
                                request.completion_cycle = None
                            else:
                                request = MemoryRequest(
                                    core=core_id,
                                    arrival_cycle=cycle,
                                    address=address,
                                    column=column,
                                    is_write=is_write,
                                )
                            controller = banks[flat]
                            controller.queue.append(request)
                            occupancy = queue_cores[flat]
                            occupancy[core_id] = (
                                occupancy.get(core_id, 0) + 1
                            )
                            if not scheduled[flat]:
                                scheduled[flat] = True
                                ready = controller.bank.ready_cycle
                                wake = ready if ready > cycle else cycle
                                seq += 1
                                if seq >= _SEQ_LIMIT:
                                    raise OverflowError(
                                        f"event sequence exceeded "
                                        f"{_SEQ_LIMIT} (heap-key seq "
                                        f"field)"
                                    )
                                heappush(
                                    heap,
                                    (((wake << _SEQ_BITS) | seq)
                                     << _LOW_BITS)
                                    | (_BANK << _IDENT_BITS) | flat,
                                )
                        core.index = index
                        core.outstanding_reads = outstanding
                    continue
                # ---- fused bank event ---------------------------------
                flat = key & _IDENT_MASK
                bank_scheduled[flat] = False
                (controller, queue, bank, channel_state, energy,
                 refresh, scheme, hammer, t_mode, a_mode, f_hammer,
                 f_rfm, scheduler, is_bliss, channel) = contexts[flat]
                qlen = len(queue)
                if not qlen:
                    continue
                occupancy = queue_cores[flat]
                open_row = bank.open_row
                memo = None
                if qlen == 1:
                    index = 0
                    request = queue[0]
                    if t_mode:
                        if t_mode == _THROTTLE_BLOCKHAMMER:
                            qrow = request.address.row
                            if open_row == qrow:
                                release = cycle
                            else:
                                release = scheme._release.get(qrow)
                                if release is None or release <= cycle:
                                    release = cycle
                        else:
                            release = controller.throttle_release(
                                request, cycle
                            )
                        if release > cycle:
                            bank_scheduled[flat] = True
                            retry = (
                                release if release > cycle + 1
                                else cycle + 1
                            )
                            seq += 1
                            if seq >= _SEQ_LIMIT:
                                raise OverflowError(
                                    f"event sequence exceeded "
                                    f"{_SEQ_LIMIT} (heap-key seq field)"
                                )
                            heappush(
                                heap,
                                (((retry << _SEQ_BITS) | seq)
                                 << _LOW_BITS)
                                | (_BANK << _IDENT_BITS) | flat,
                            )
                            continue
                    contended = False
                elif is_bliss:
                    # Inline stock-BLISS tier scan (released-only
                    # candidates; same selection order as
                    # BlissScheduler.pick, which never returns a
                    # throttled request).  Throttled candidates feed
                    # the all-throttled fallback minimum on the fly.
                    blacklist = scheduler._blacklist_until
                    best_index = None
                    best_tier = 4
                    best_arrival = 0
                    bt_release = bt_arrival = bt_found = None
                    match_row = open_row is not None
                    if t_mode == _THROTTLE_BLOCKHAMMER:
                        release_map = scheme._release
                    elif t_mode == _THROTTLE_GENERIC:
                        throttle = controller.throttle_release
                    for i, queued in enumerate(queue):
                        if t_mode:
                            qrow = queued.address.row
                            if t_mode == _THROTTLE_BLOCKHAMMER:
                                if open_row == qrow:
                                    release = cycle
                                else:
                                    release = release_map.get(qrow)
                                    if (
                                        release is None
                                        or release <= cycle
                                    ):
                                        release = cycle
                            else:
                                release = throttle(queued, cycle)
                            if release > cycle:
                                arrival = queued.arrival_cycle
                                if (
                                    bt_found is None
                                    or release < bt_release
                                    or (release == bt_release
                                        and arrival < bt_arrival)
                                ):
                                    bt_found = i
                                    bt_release = release
                                    bt_arrival = arrival
                                continue
                        tier = (
                            2 if blacklist.get(queued.core, -1) > cycle
                            else 0
                        )
                        if not (
                            match_row and queued.address.row == open_row
                        ):
                            tier += 1
                        arrival = queued.arrival_cycle
                        if tier < best_tier or (
                            tier == best_tier and arrival < best_arrival
                        ):
                            best_index = i
                            best_tier = tier
                            best_arrival = arrival
                    if best_index is None:
                        # Every candidate throttled: retry at the
                        # earliest release (oldest on ties), exactly
                        # the scalar abstain fallback.
                        retry = (
                            bt_release if bt_release > cycle + 1
                            else cycle + 1
                        )
                        bank_scheduled[flat] = True
                        seq += 1
                        if seq >= _SEQ_LIMIT:
                            raise OverflowError(
                                f"event sequence exceeded "
                                f"{_SEQ_LIMIT} (heap-key seq field)"
                            )
                        heappush(
                            heap,
                            (((retry << _SEQ_BITS) | seq) << _LOW_BITS)
                            | (_BANK << _IDENT_BITS) | flat,
                        )
                        continue
                    index = best_index
                    request = queue[index]
                    contended = qlen > occupancy.get(request.core, 0)
                else:
                    # Non-BLISS channel (FR-FCFS): keep the scheduler
                    # call, with the scalar backend's memoized release
                    # hook.
                    if t_mode:
                        throttle = controller.throttle_release
                        memo = {}

                        def release_of(
                            queued, _throttle=throttle, _memo=memo,
                            _cycle=cycle,
                        ):
                            memo_key = id(queued)
                            release = _memo.get(memo_key)
                            if release is None:
                                release = _memo[memo_key] = _throttle(
                                    queued, _cycle
                                )
                            return release
                    else:
                        release_of = None
                    index = scheduler.pick(
                        queue, open_row, cycle, release_of
                    )
                    abstained = index is None
                    if abstained:
                        if release_of is None:
                            index = min(
                                range(qlen),
                                key=lambda i: queue[i].arrival_cycle,
                            )
                        else:
                            index = min(
                                range(qlen),
                                key=lambda i: (
                                    release_of(queue[i]),
                                    queue[i].arrival_cycle,
                                ),
                            )
                    request = queue[index]
                    if release_of is not None:
                        release = release_of(request)
                        if release > cycle:
                            earliest = (
                                release if abstained
                                else min(release_of(r) for r in queue)
                            )
                            retry = (
                                earliest if earliest > cycle + 1
                                else cycle + 1
                            )
                            bank_scheduled[flat] = True
                            seq += 1
                            if seq >= _SEQ_LIMIT:
                                raise OverflowError(
                                    f"event sequence exceeded "
                                    f"{_SEQ_LIMIT} (heap-key seq field)"
                                )
                            heappush(
                                heap,
                                (((retry << _SEQ_BITS) | seq)
                                 << _LOW_BITS)
                                | (_BANK << _IDENT_BITS) | flat,
                            )
                            continue
                    contended = qlen > occupancy.get(request.core, 0)
                core_id = request.core
                queue.pop(index)
                count = occupancy.get(core_id, 1) - 1
                if count:
                    occupancy[core_id] = count
                else:
                    occupancy.pop(core_id, None)
                # ---- inlined BankController.serve ---------------------
                if cycle >= refresh_next[flat]:
                    controller.advance_refresh(cycle)
                    refresh_next[flat] = refresh.next_tick_cycle
                    open_row = bank.open_row  # refresh precharges
                row = request.address.row
                if t_mode:
                    if t_mode == _THROTTLE_BLOCKHAMMER:
                        act_not_before = scheme._release.get(row)
                        if (
                            act_not_before is None
                            or act_not_before <= cycle
                        ):
                            act_not_before = cycle
                    else:
                        act_not_before = scheme.throttle_release(
                            row, cycle
                        )
                else:
                    act_not_before = cycle
                if policy_mode == _POLICY_OPEN:
                    close_after = False
                elif policy_mode == _POLICY_CLOSED:
                    close_after = True
                else:  # minimalist-open (exact should_close inline)
                    hits = (
                        controller._consecutive_hits
                        if open_row == row else 0
                    )
                    if hits >= policy_burst:
                        close_after = True
                    else:
                        close_after = True
                        for queued in queue:
                            if queued.address.row == row:
                                close_after = False
                                break
                # ---- inlined BankTimingModel.serve_access -------------
                ready = bank.ready_cycle
                start = cycle if cycle > ready else ready
                activated = False
                precharged = False
                if open_row == row:
                    row_hit = True
                    column_issue = start
                else:
                    row_hit = False
                    last_act = bank._last_act_cycle
                    if open_row is not None:
                        earliest_pre = last_act + tras
                        if earliest_pre > start:
                            start = earliest_pre
                        start += trp
                        precharged = True
                        bank.pre_count += 1
                    act_cycle = (
                        start if start > act_not_before
                        else act_not_before
                    )
                    earliest_act = last_act + trc
                    if earliest_act > act_cycle:
                        act_cycle = earliest_act
                    faw = bank.faw
                    if faw is not None:
                        recent = faw._recent
                        if len(recent) >= faw.window:
                            faw_ready = recent[0] + faw.tfaw_cycles
                            if faw_ready > act_cycle:
                                act_cycle = faw_ready
                        recent.append(act_cycle)
                    bank._last_act_cycle = act_cycle
                    bank.act_count += 1
                    activated = True
                    bank.open_row = row
                    column_issue = act_cycle + trcd
                data_start = column_issue + tcl
                if channel_state.bus_free_cycle > data_start:
                    data_start = channel_state.bus_free_cycle
                data_cycle = data_start + tbl
                bank.access_count += 1
                if close_after:
                    pre_at = bank._last_act_cycle + tras
                    if column_issue > pre_at:
                        pre_at = column_issue
                    bank.ready_cycle = pre_at + trp
                    bank.open_row = None
                    bank.pre_count += 1
                    precharged = True
                else:
                    bank.ready_cycle = column_issue + tbl
                # ---- post-access bookkeeping (serve, continued) -------
                channel_state.bus_free_cycle = data_cycle
                if row_hit:
                    controller._consecutive_hits += 1
                    row_hits += 1
                else:
                    controller._consecutive_hits = 1
                    row_misses += 1
                if request.is_write:
                    energy.writes += 1
                else:
                    energy.reads += 1
                if activated:
                    # ---- inlined _on_activated ------------------------
                    energy.acts += 1
                    if precharged:
                        energy.pres += 1
                    if probe_acts is not None:
                        # the serve-path wrap never runs here: feed the
                        # probe layer's exact ACT counts directly
                        bank_acts = probe_acts[flat]
                        bank_acts[row] = bank_acts.get(row, 0) + 1
                    if hammer is not None:
                        if f_hammer:
                            disturbance = hammer._disturbance
                            rows_per_bank = hammer.rows_per_bank
                            flip_th = hammer.flip_th
                            for victim in (row - 1, row + 1):
                                if not 0 <= victim < rows_per_bank:
                                    continue
                                level = (
                                    disturbance.get(victim, 0.0) + 1.0
                                )
                                disturbance[victim] = level
                                if level > hammer.max_disturbance:
                                    hammer.max_disturbance = level
                                    hammer.max_disturbance_row = victim
                                if level >= flip_th:
                                    hammer.flips.append(
                                        FlipEvent(
                                            cycle=start,
                                            row=victim,
                                            disturbance=level,
                                            aggressor=row,
                                        )
                                    )
                                    disturbance[victim] = 0.0
                        else:
                            hammer.on_activate(row, start)
                    # ---- per-ACT tracker update (specialized) ---------
                    if a_mode == _ACT_MITHRIL:
                        # inline MithrilScheme.on_activate +
                        # MithrilTable.record_activation (+ spread),
                        # with the CbS on-table hit (_observe_one +
                        # _move) and fresh-heap-top max_entry fast
                        # paths unrolled
                        scheme.stats.acts_observed += 1
                        table = scheme.table
                        summary = table._summary
                        counts = summary._counts
                        current = counts.get(row)
                        if current is None:
                            summary._observe_one(row)
                        else:
                            summary._total_observed += 1
                            new = current + 1
                            buckets = summary._buckets
                            bucket = buckets[current]
                            del bucket[row]
                            old_emptied = not bucket
                            if old_emptied:
                                del buckets[current]
                            counts[row] = new
                            bucket = buckets.get(new)
                            if bucket is None:
                                buckets[new] = {row: None}
                            else:
                                bucket[row] = None
                            heappush(
                                summary._max_heap, (-new, row)
                            )
                            if (
                                old_emptied
                                and current == summary._min_count
                            ):
                                # new > current: advance upward
                                # (inline _advance_min; buckets is
                                # non-empty, we just added to it)
                                floor = summary._min_count
                                while floor not in buckets:
                                    floor += 1
                                summary._min_count = floor
                            elif new < summary._min_count:
                                # a not-yet-full table's stale floor
                                # (exactly _move's branch)
                                summary._min_count = new
                        max_heap = summary._max_heap
                        if max_heap:
                            neg_count, element = max_heap[0]
                            if counts.get(element) == -neg_count:
                                max_count = -neg_count
                            else:
                                top = summary.max_entry()
                                max_count = (
                                    0 if top is None else top[1]
                                )
                        else:
                            max_count = 0
                        if len(counts) < summary.capacity:
                            min_count = 0
                        else:
                            min_count = summary._min_count
                        spread = max_count - min_count
                        if spread > table._max_spread_seen:
                            table._max_spread_seen = spread
                        window = table._wrap_window
                        if window is not None and spread >= window:
                            raise OverflowError(
                                f"counter spread {spread} exceeds "
                                f"wrapping window {window}; "
                                f"counter_bits={table.counter_bits} "
                                f"too small"
                            )
                    elif a_mode == _ACT_BLOCKHAMMER:
                        # inline BlockHammerScheme.on_activate +
                        # DualCountingBloomFilter.observe_and_estimate
                        scheme.stats.acts_observed += 1
                        cbf = scheme.cbf
                        filters = cbf._filters
                        first = filters[0]
                        second = filters[1]
                        indices_first = first._index_cache.get(row)
                        if indices_first is None:
                            indices_first = first._indices(row)
                        indices_second = second._index_cache.get(row)
                        if indices_second is None:
                            indices_second = second._indices(row)
                        counters = first._counters
                        for cell in indices_first:
                            counters[cell] += 1
                        first._total += 1
                        counters = second._counters
                        for cell in indices_second:
                            counters[cell] += 1
                        second._total += 1
                        cbf._since_swap += 1
                        if cbf._since_swap >= cbf.half_epoch:
                            cbf._rotate()
                        if cbf._active == 0:
                            counters = first._counters
                            cells = indices_first
                        else:
                            counters = second._counters
                            cells = indices_second
                        estimate = counters[cells[0]]
                        for cell in cells:
                            value = counters[cell]
                            if value < estimate:
                                estimate = value
                        if estimate >= scheme.n_bl:
                            release_map = scheme._release
                            if row not in release_map:
                                scheme.blacklisted_rows_seen += 1
                            release_map[row] = (
                                start + scheme.delay_cycles
                            )
                            scheme.stats.throttle_events += 1
                    elif a_mode == _ACT_GRAPHENE:
                        # inline GrapheneScheme.on_activate
                        # (+ _maybe_reset, CbS estimate)
                        scheme.stats.acts_observed += 1
                        if start >= scheme._next_reset:
                            scheme.table.reset()
                            scheme._next_trigger.clear()
                            scheme.resets += 1
                            while scheme._next_reset <= start:
                                scheme._next_reset += (
                                    scheme.reset_interval_cycles
                                )
                        table = scheme.table
                        counts = table._counts
                        current = counts.get(row)
                        if current is None:
                            table._observe_one(row)
                            found = counts.get(row)
                            if found is None:  # defensive; observe
                                # always tables the row
                                if len(counts) < table.capacity:
                                    found = 0
                                else:
                                    found = table._min_count
                        else:
                            # inline _observe_one on-table hit + _move
                            table._total_observed += 1
                            found = current + 1
                            buckets = table._buckets
                            bucket = buckets[current]
                            del bucket[row]
                            old_emptied = not bucket
                            if old_emptied:
                                del buckets[current]
                            counts[row] = found
                            bucket = buckets.get(found)
                            if bucket is None:
                                buckets[found] = {row: None}
                            else:
                                bucket[row] = None
                            heappush(
                                table._max_heap, (-found, row)
                            )
                            if (
                                old_emptied
                                and current == table._min_count
                            ):
                                floor = table._min_count
                                while floor not in buckets:
                                    floor += 1
                                table._min_count = floor
                            elif found < table._min_count:
                                table._min_count = found
                        trigger = scheme._next_trigger.get(
                            row, scheme.threshold
                        )
                        if found >= trigger:
                            scheme._next_trigger[row] = (
                                trigger + scheme.threshold
                            )
                            rows_per_bank = scheme.rows_per_bank
                            victims = [
                                v for v in (row - 1, row + 1)
                                if 0 <= v < rows_per_bank
                            ]
                            scheme.stats.preventive_refresh_rows += (
                                len(victims)
                            )
                            if victims:
                                controller._apply_arr(victims, start)
                    elif a_mode == _ACT_NONE:
                        # inline NoProtection.on_activate
                        scheme.stats.acts_observed += 1
                    else:
                        arr_victims = scheme.on_activate(row, start)
                        if arr_victims:
                            controller._apply_arr(arr_victims, start)
                    rfm_logic = controller.rfm_logic
                    if rfm_logic is not None:
                        if f_rfm:
                            # inline RfmIssueLogic.on_activate /
                            # RaaCounter fast path (below threshold)
                            raa = rfm_logic.raa
                            raa_th = raa.rfm_th
                            if raa_th > 0:
                                raa.value += 1
                                if raa.value >= raa_th:
                                    raa.value = 0
                                    issue = True
                                    if rfm_logic.mrr_gated:
                                        rfm_logic.mrr_reads += 1
                                        if not scheme.rfm_needed_flag():
                                            rfm_logic.rfm_elided += 1
                                            issue = False
                                    if issue:
                                        rfm_logic.rfm_issued += 1
                                        controller._apply_rfm(start)
                        elif rfm_logic.on_activate(
                            flag_reader=scheme.rfm_needed_flag
                        ):
                            controller._apply_rfm(start)
                        if rfm_logic.mrr_reads:
                            delta = (
                                rfm_logic.mrr_reads
                                - energy.mrr_commands
                            )
                            if delta > 0:
                                energy.mrr_commands += delta
                request.completion_cycle = data_cycle
                pool.append(request)  # recycled by _try_issue
                # ---- inlined scheduler.on_served (BLISS) --------------
                if contended and is_bliss:
                    if core_id == scheduler._last_core:
                        scheduler._streak += 1
                    else:
                        scheduler._last_core = core_id
                        scheduler._streak = 1
                    if scheduler._streak >= scheduler.blacklist_threshold:
                        scheduler._blacklist_until[core_id] = (
                            cycle + scheduler.blacklist_cycles
                        )
                        scheduler._streak = 0
                # ---- completion + rescheduling ------------------------
                if not request.is_write:
                    seq += 1
                    if seq >= _SEQ_LIMIT:
                        raise OverflowError(
                            f"event sequence exceeded {_SEQ_LIMIT} "
                            f"(heap-key seq field)"
                        )
                    heappush(
                        heap,
                        (((data_cycle << _SEQ_BITS) | seq) << _LOW_BITS)
                        | (_COMPLETE << _IDENT_BITS) | core_id,
                    )
                core_served[core_id] += 1
                if data_cycle > last_completion[core_id]:
                    last_completion[core_id] = data_cycle
                if qlen > 1:
                    bank_scheduled[flat] = True
                    ready = bank.ready_cycle
                    retry = ready if ready > cycle + 1 else cycle + 1
                    seq += 1
                    if seq >= _SEQ_LIMIT:
                        raise OverflowError(
                            f"event sequence exceeded {_SEQ_LIMIT} "
                            f"(heap-key seq field)"
                        )
                    heappush(
                        heap,
                        (((retry << _SEQ_BITS) | seq) << _LOW_BITS)
                        | (_BANK << _IDENT_BITS) | flat,
                    )
        self._seq = seq
        self.row_hits += row_hits
        self.row_misses += row_misses
