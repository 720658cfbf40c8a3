"""The simulated system: event-driven co-simulation of cores, MC, DRAM.

The event loop carries three event kinds:

* ``issue`` — a core is ready to issue its next trace entry;
* ``bank`` — a bank is (possibly) free; the channel scheduler picks the
  next queued request for it;
* ``complete`` — a read's data burst finished; the owning core retires
  it and may unstall.

Banks serve one request at a time; the per-bank
:class:`~repro.mc.controller.BankController` folds in auto-refresh,
RFM issue, ARR stalls, throttling and the RowHammer fault model.

Hot-path notes
--------------
Wall-clock per event bounds how many sweep points the reproduction can
cover, so the loop avoids per-event allocation and recomputation:

* heap entries are single integers — ``(cycle, seq)`` packed above a
  small kind/ident field — so ``heappush``/``heappop`` compare ints
  instead of tuples while preserving the exact (cycle, seq) FIFO order
  of the historical string-kind tuples;
* the per-flat-bank ``(channel, rank, bank)`` decode table and each
  trace's normalized flat bank indices are computed once in
  ``__init__``, and :class:`~repro.types.RowAddress` instances are
  interned per (bank, row) — ``_make_request`` does no organization
  math at all;
* ``_bank_event`` memoizes ``throttle_release`` per request for the
  duration of one event (the release cannot change until a request is
  served), serves single-request queues without consulting the
  scheduler, and tracks a per-queue core-occupancy count so BLISS's
  "contended" bit costs O(1) instead of an O(queue) scan.

All of this is behavior-preserving: the golden-equivalence suite pins
results to the pre-optimization simulator byte for byte.

Native kernel
-------------
On the ``native`` backend (the default, see :mod:`repro.sim.backend`)
``run`` first asks :func:`repro.sim.kernel.pack` whether the C drain
can run this system exactly; when it can, the whole run happens there
and the final state is written back onto the same objects.  Otherwise,
and always on the ``python`` backend, the event loop below runs.  The
per-entry issue tables it needs are built only then, so a kernel run
never pays for them.  ``drain_path`` (and the ``sim.drain`` telemetry
span) records which of the two ran.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence

from repro.dram.bank import FawTracker
from repro.mc.controller import BankController, ChannelState
from repro.mc.pagepolicy import make_page_policy
from repro.mc.scheduler import make_scheduler
from repro.params import DEFAULT_CONFIG, SystemConfig
from repro.protection import NoProtection, ProtectionScheme
from repro.sim import probes as _probes
from repro.sim.backend import NATIVE, resolve_backend
from repro.sim.core import TraceCore
from repro.sim.metrics import SimulationResult
from repro.types import BankAddress, EnergyCounts, MemoryRequest, RowAddress
from repro.workloads.trace import CoreTrace

#: Event kinds, encoded as integers in the heap key (historically the
#: strings "issue" / "bank" / "complete"; the unique ``seq`` means the
#: kind never participates in ordering, so the encoding is free).
_ISSUE, _BANK, _COMPLETE = 0, 1, 2

#: Heap-key layout: cycle | seq (40 bits) | kind (2 bits) | ident
#: (20 bits).  Python ints are unbounded, so large cycle counts simply
#: grow the key; ``seq`` at 40 bits allows ~10^12 events per run and
#: ``_push`` raises rather than letting it bleed into the cycle bits.
_SEQ_BITS = 40
_SEQ_LIMIT = 1 << _SEQ_BITS
_LOW_BITS = 22                     # kind + ident
_IDENT_BITS = 20
_IDENT_MASK = (1 << _IDENT_BITS) - 1
_CYCLE_SHIFT = _SEQ_BITS + _LOW_BITS


class SimulatedSystem:
    """One full system instance, runnable once."""

    def __init__(
        self,
        traces: Sequence[CoreTrace],
        scheme_factory: Optional[Callable[[], ProtectionScheme]] = None,
        config: SystemConfig = DEFAULT_CONFIG,
        rfm_th: int = 0,
        flip_th: int = 10_000,
        mlp: int = 4,
        track_hammer: bool = True,
        backend: Optional[str] = None,
    ):
        if not traces:
            raise ValueError("need at least one core trace")
        #: "native" or "python" (see repro.sim.backend)
        self.backend = resolve_backend(backend)
        self.config = config
        self.cores = [
            TraceCore(core_id=i, trace=trace, mlp=mlp)
            for i, trace in enumerate(traces)
        ]
        org = config.organization
        self.num_banks = org.total_banks
        if self.num_banks > _IDENT_MASK or len(self.cores) > _IDENT_MASK:
            raise ValueError(
                f"heap-key ident field supports up to {_IDENT_MASK} "
                f"banks/cores"
            )
        banks_per_channel = org.ranks_per_channel * org.banks_per_rank
        timings = config.timings
        self._channels = [
            ChannelState(faw=FawTracker(timings.tfaw_cycles))
            for _ in range(org.channels)
        ]
        self._schedulers = [
            make_scheduler(config.scheduler) for _ in range(org.channels)
        ]
        page_policy = make_page_policy(config.page_policy)
        self.banks: List[BankController] = []
        for flat in range(self.num_banks):
            channel = flat // banks_per_channel
            scheme = scheme_factory() if scheme_factory else NoProtection()
            self.banks.append(
                BankController(
                    config=config,
                    scheme=scheme,
                    rfm_th=rfm_th,
                    flip_th=flip_th,
                    channel_state=self._channels[channel],
                    page_policy=page_policy,
                    track_hammer=track_hammer,
                )
            )
        self._bank_channel = [
            flat // banks_per_channel for flat in range(self.num_banks)
        ]
        # Flat-index -> BankAddress decode table: the organization math
        # happens once here instead of once per request.
        self._bank_address = [
            BankAddress(
                flat // banks_per_channel,
                (flat % banks_per_channel) // org.banks_per_rank,
                flat % org.banks_per_rank,
            )
            for flat in range(self.num_banks)
        ]
        #: Interned RowAddress per (flat bank, row); rows repeat heavily
        #: (row-buffer locality), so most requests reuse an instance.
        self._row_address: List[Dict[int, RowAddress]] = [
            {} for _ in range(self.num_banks)
        ]
        # Per-trace normalized flat bank index, one entry per request:
        # `entry.bank_index % num_banks` is evaluated once per trace
        # entry, when the python loop first needs it, and never in the
        # issue path.
        self._core_flats: Optional[List[List[int]]] = None
        self._bank_scheduled = [False] * self.num_banks
        # Per-bank queue occupancy by core (the scheduler's "contended"
        # bit) plus the queue length it was built against; an external
        # queue mutation (tests do this) is caught by the length guard.
        self._queue_cores: List[Dict[int, int]] = [
            {} for _ in range(self.num_banks)
        ]
        self._queue_len = [0] * self.num_banks
        self._heap: List[int] = []
        self._seq = 0
        self._core_last_completion = [0] * len(self.cores)
        self._core_served = [0] * len(self.cores)
        self.row_hits = 0
        self.row_misses = 0
        self._ran = False
        #: which drain ran: "kernel" or "python"; None before run()
        self.drain_path: Optional[str] = None
        #: opt-in scheme-internals probe stream (REPRO_PROBES); None in
        #: the common case, and the run loops branch once on it so the
        #: probes-off hot path is unchanged.
        self._probe = _probes.attach(self)

    # ------------------------------------------------------------------

    def _build_core_flats(self) -> List[List[int]]:
        """The python loop's issue tables, over each core's entry
        objects (built on first use)."""
        num_banks = self.num_banks
        return [
            [entry.bank_index % num_banks for entry in core.entry_list()]
            for core in self.cores
        ]

    def _push(self, cycle: int, kind: int, ident: int) -> None:
        self._seq += 1
        if self._seq >= _SEQ_LIMIT:
            raise OverflowError(
                f"event sequence exceeded {_SEQ_LIMIT} (heap-key seq field)"
            )
        heapq.heappush(
            self._heap,
            (((cycle << _SEQ_BITS) | self._seq) << _LOW_BITS)
            | (kind << _IDENT_BITS)
            | ident,
        )

    def _make_request(
        self, core_id: int, cycle: int, entry, flat: int
    ) -> MemoryRequest:
        row = entry.row
        interned = self._row_address[flat]
        address = interned.get(row)
        if address is None:
            address = RowAddress(self._bank_address[flat], row)
            interned[row] = address
        return MemoryRequest(
            core=core_id,
            arrival_cycle=cycle,
            address=address,
            column=entry.column,
            is_write=entry.is_write,
        )

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _try_issue(self, core: TraceCore, cycle: int) -> None:
        core_id = core.core_id
        entries = core.entries
        total = len(entries)
        flats = self._core_flats[core_id]
        banks = self.banks
        queue_cores = self._queue_cores
        queue_len = self._queue_len
        scheduled = self._bank_scheduled
        mlp = core.mlp
        while core.index < total:
            if cycle < core.next_issue_cycle:
                self._push(core.next_issue_cycle, _ISSUE, core_id)
                return
            index = core.index
            entry = entries[index]
            if not entry.is_write and core.outstanding_reads >= mlp:
                core.stalled_on_mlp = True
                return
            flat = flats[index]
            entry = core.issue(cycle)
            request = self._make_request(core_id, cycle, entry, flat)
            controller = banks[flat]
            controller.queue.append(request)
            occupancy = queue_cores[flat]
            occupancy[core_id] = occupancy.get(core_id, 0) + 1
            queue_len[flat] += 1
            if not scheduled[flat]:
                scheduled[flat] = True
                ready = controller.bank.ready_cycle
                self._push(ready if ready > cycle else cycle, _BANK, flat)

    def _bank_event(self, flat: int, cycle: int) -> None:
        self._bank_scheduled[flat] = False
        controller = self.banks[flat]
        queue = controller.queue
        qlen = len(queue)
        if not qlen:
            return

        # One bank event consults the throttle release of each queued
        # request up to three times (scheduler pick, the chosen
        # request, the retry minimum).  The release cannot change
        # within the event, so memoize it — keyed by request identity,
        # not row, so an override that inspects other request fields
        # (the hook receives the full request) stays exact — and when
        # the scheme keeps the default no-op throttle hook
        # (``never_throttles()`` checks live, so monkeypatches at any
        # level are honored), skip the bookkeeping entirely by handing
        # the scheduler ``None`` ("everything is released").
        if controller.never_throttles():
            release_of = None
        else:
            throttle = controller.throttle_release
            memo: Dict[int, int] = {}

            def release_of(request: MemoryRequest) -> int:
                key = id(request)
                release = memo.get(key)
                if release is None:
                    release = memo[key] = throttle(request, cycle)
                return release

        # Resync the per-queue core-occupancy map when the queue was
        # mutated behind the issue path (tests inject or remove
        # requests directly); the length guard catches every external
        # edit except a same-length in-place swap, which nothing does.
        occupancy = self._queue_cores[flat]
        if self._queue_len[flat] != qlen:
            occupancy.clear()
            for queued in queue:
                occupancy[queued.core] = occupancy.get(queued.core, 0) + 1
            self._queue_len[flat] = qlen

        scheduler = self._schedulers[self._bank_channel[flat]]
        if qlen == 1:
            # Single-candidate fast path: any scheduler either picks it
            # or abstains, and the abstain fallback picks it anyway.
            index = 0
            request = queue[0]
            if release_of is not None:
                release = release_of(request)
                if release > cycle:
                    self._bank_scheduled[flat] = True
                    self._push(
                        release if release > cycle + 1 else cycle + 1,
                        _BANK, flat,
                    )
                    return
            contended = False
        else:
            index = scheduler.pick(
                queue, controller.bank.open_row, cycle, release_of
            )
            abstained = index is None
            if abstained:
                # Scheduler abstained: fall back to the candidate whose
                # throttle releases first (oldest on ties).  The shipped
                # schedulers abstain only when every candidate is
                # throttled, but the Scheduler contract allows
                # abstaining for any reason, so the fallback must still
                # be able to serve a released request.
                if release_of is None:
                    index = min(
                        range(qlen),
                        key=lambda i: queue[i].arrival_cycle,
                    )
                else:
                    index = min(
                        range(qlen),
                        key=lambda i: (release_of(queue[i]),
                                       queue[i].arrival_cycle),
                    )
            request = queue[index]
            if release_of is not None:
                release = release_of(request)
                if release > cycle:
                    # Every candidate is throttled; retry at the
                    # earliest release (on the abstain path the chosen
                    # request already holds the queue minimum).
                    earliest = (
                        release if abstained
                        else min(release_of(r) for r in queue)
                    )
                    self._bank_scheduled[flat] = True
                    self._push(max(earliest, cycle + 1), _BANK, flat)
                    return
            contended = qlen > occupancy.get(request.core, 0)
        core_id = request.core
        queue.pop(index)
        count = occupancy.get(core_id, 1) - 1
        if count:
            occupancy[core_id] = count
        else:
            occupancy.pop(core_id, None)
        self._queue_len[flat] = qlen - 1
        result = controller.serve(request, cycle)
        scheduler.on_served(core_id, cycle, contended=contended)
        if result.row_hit:
            self.row_hits += 1
        else:
            self.row_misses += 1
        data_cycle = result.data_cycle
        if not request.is_write:
            self._push(data_cycle, _COMPLETE, core_id)
        self._core_served[core_id] += 1
        if data_cycle > self._core_last_completion[core_id]:
            self._core_last_completion[core_id] = data_cycle
        if qlen > 1:
            self._bank_scheduled[flat] = True
            ready = controller.bank.ready_cycle
            self._push(
                ready if ready > cycle + 1 else cycle + 1, _BANK, flat
            )

    def _complete_event(self, core_id: int, cycle: int) -> None:
        core = self.cores[core_id]
        core.on_read_complete(cycle)
        if core.stalled_on_mlp:
            core.stalled_on_mlp = False
            self._try_issue(core, cycle)

    # ------------------------------------------------------------------

    def run(
        self, max_cycles: Optional[int] = None, *, result_only: bool = False
    ) -> SimulationResult:
        """Drain every event and collect the result.

        ``result_only`` lets a kernel drain skip writing back state the
        result does not read (see :mod:`repro.sim.kernel`); pass it only
        when nothing reads the system's objects after the run.
        """
        if self._ran:
            raise RuntimeError("a SimulatedSystem can only run once")
        self._ran = True
        from repro import telemetry
        from repro.sim import kernel

        packed = (
            kernel.pack(self)
            if self.backend == NATIVE and max_cycles is None else None
        )
        self.drain_path = "python" if packed is None else "kernel"
        tel = telemetry.get()
        with telemetry.span("sim.drain", path=self.drain_path):
            if packed is None:
                self._drain_python(max_cycles)
            else:
                kernel.drain(self, packed, result_only=result_only)
        if tel is not None:
            tel.event("sim.run.done", path=self.drain_path)
        return self._collect()

    def _drain_python(self, max_cycles: Optional[int]) -> None:
        """The reference event loop."""
        if self._core_flats is None:
            self._core_flats = self._build_core_flats()
        heap = self._heap
        # Batch the initial issue events: build the list once and
        # heapify instead of N pushes (same (cycle, seq) order).
        for core in self.cores:
            self._seq += 1
            heap.append((self._seq << _LOW_BITS) | core.core_id)
        heapq.heapify(heap)
        heappop = heapq.heappop
        limit = float("inf") if max_cycles is None else max_cycles
        cores = self.cores
        try_issue = self._try_issue
        bank_event = self._bank_event
        complete_event = self._complete_event
        probe = self._probe
        if probe is None:
            while heap:
                key = heappop(heap)
                cycle = key >> _CYCLE_SHIFT
                if cycle > limit:
                    break
                kind = (key >> _IDENT_BITS) & 3
                ident = key & _IDENT_MASK
                if kind == _BANK:
                    bank_event(ident, cycle)
                elif kind == _ISSUE:
                    try_issue(cores[ident], cycle)
                else:
                    complete_event(ident, cycle)
        else:
            # Probing twin of the loop above: sample on the first event
            # at or past the schedule — every prior cycle fully applied,
            # the triggering cycle untouched.
            next_probe = probe.next_cycle
            while heap:
                key = heappop(heap)
                cycle = key >> _CYCLE_SHIFT
                if cycle > limit:
                    break
                if cycle >= next_probe:
                    probe.sample(self, cycle)
                    next_probe = probe.next_cycle
                kind = (key >> _IDENT_BITS) & 3
                ident = key & _IDENT_MASK
                if kind == _BANK:
                    bank_event(ident, cycle)
                elif kind == _ISSUE:
                    try_issue(cores[ident], cycle)
                else:
                    complete_event(ident, cycle)

    def _collect(self) -> SimulationResult:
        energy = EnergyCounts()
        flips = 0
        max_disturbance = 0.0
        acts = 0
        rfm_commands = 0
        rfm_elided = 0
        rfms_skipped = 0
        arr_requests = 0
        preventive_rows = 0
        arr_stalls = 0
        rfm_stalls = 0
        refresh_stalls = 0
        throttle_events = 0
        for controller in self.banks:
            energy = energy.merged(controller.energy)
            acts += controller.bank.act_count
            if controller.hammer is not None:
                flips += controller.hammer.flip_count
                max_disturbance = max(
                    max_disturbance, controller.hammer.max_disturbance
                )
            stats = controller.scheme.stats
            rfms_skipped += stats.rfms_skipped
            arr_requests += stats.arr_requests
            preventive_rows += stats.preventive_refresh_rows
            throttle_events += stats.throttle_events
            arr_stalls += controller.arr_stall_cycles
            rfm_stalls += controller.rfm_stall_cycles
            refresh_stalls += controller.refresh_stall_cycles
            if controller.rfm_logic is not None:
                rfm_commands += controller.rfm_logic.rfm_issued
                rfm_elided += controller.rfm_logic.rfm_elided
        scheme_name = self.banks[0].scheme.name if self.banks else "none"
        finishes = [
            self._core_last_completion[core.core_id] for core in self.cores
        ]
        result = SimulationResult(
            scheme_name=scheme_name,
            total_cycles=max(finishes) if finishes else 0,
            per_core_instructions=[
                core.total_instructions for core in self.cores
            ],
            per_core_finish_cycles=finishes,
            energy=energy,
            flips=flips,
            max_disturbance=max_disturbance,
            acts=acts,
            row_hits=self.row_hits,
            row_misses=self.row_misses,
            rfm_commands=rfm_commands,
            rfm_elided=rfm_elided,
            rfms_skipped=rfms_skipped,
            arr_requests=arr_requests,
            preventive_refresh_rows=preventive_rows,
            arr_stall_cycles=arr_stalls,
            rfm_stall_cycles=rfm_stalls,
            refresh_stall_cycles=refresh_stalls,
            throttle_events=throttle_events,
        )
        if self._probe is not None:
            self._probe.finalize(self, result)
        return result


def make_system(
    traces: Sequence[CoreTrace],
    scheme_factory: Optional[Callable[[], ProtectionScheme]] = None,
    config: SystemConfig = DEFAULT_CONFIG,
    rfm_th: int = 0,
    flip_th: int = 10_000,
    mlp: int = 4,
    track_hammer: bool = True,
    backend: Optional[str] = None,
) -> "SimulatedSystem":
    """Build one system on the resolved backend (see repro.sim.backend).

    ``backend=None`` consults ``REPRO_SIM_BACKEND`` and defaults to
    ``native``.  Results are byte-identical across backends — the
    golden suite runs both.
    """
    return SimulatedSystem(
        traces,
        scheme_factory=scheme_factory,
        config=config,
        rfm_th=rfm_th,
        flip_th=flip_th,
        mlp=mlp,
        track_hammer=track_hammer,
        backend=backend,
    )


def simulate(
    traces: Sequence[CoreTrace],
    scheme_factory: Optional[Callable[[], ProtectionScheme]] = None,
    config: SystemConfig = DEFAULT_CONFIG,
    rfm_th: int = 0,
    flip_th: int = 10_000,
    mlp: int = 4,
    track_hammer: bool = True,
    max_cycles: Optional[int] = None,
    backend: Optional[str] = None,
    *,
    result_only: bool = False,
) -> SimulationResult:
    """Build and run one system; the one-call entry point for benches.

    Every object ``scheme_factory`` returns holds its post-run state
    (callers read trackers after the run); ``result_only`` gives that
    up for speed and is for callers that keep nothing from the
    factory, as the engine's ``execute_job`` does.
    """
    from repro import telemetry

    system = make_system(
        traces,
        scheme_factory=scheme_factory,
        config=config,
        rfm_th=rfm_th,
        flip_th=flip_th,
        mlp=mlp,
        track_hammer=track_hammer,
        backend=backend,
    )
    with telemetry.span(
        "sim.simulate",
        backend=system.backend,
        cores=len(system.cores),
    ):
        return system.run(max_cycles=max_cycles, result_only=result_only)
