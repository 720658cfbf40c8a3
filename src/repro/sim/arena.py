"""Cross-bank tracker arenas for the turbo backend.

When every bank of a fused :class:`~repro.sim.turbo.TurboSimulatedSystem`
runs the *same* stock mitigation scheme, the drain routes per-ACT
tracker work through one arena per scheme type spanning all banks:

* **BlockHammer** — the arena adopts every bank's two counting Bloom
  filters *in place*: it indexes each filter's own ``array('q')``
  counters through a memoryview and zeroes them on rotation / reset
  through a zero-copy numpy view, so the counters exist once.  Its
  gain is one merged probe-index cache: the probe family depends only
  on ``(seed, row)``, and every bank shares the factory's seeds, so
  one hash (vectorized up front over the traces' distinct rows) serves
  all banks and both filters.  The drain applies each ACT at once.
* **Mithril / Graphene** — the per-bank :class:`CounterSummary` tables
  stay the exact source of truth (Space-Saving eviction breaks minimum
  ties by bucket-set iteration order, which any rewrite must replay op
  for op anyway), so the arena owns the scalar-exact per-ACT update
  path and builds a stacked ``(banks, capacity)`` count matrix on
  demand for vectorized cross-bank min / max / spread / estimate
  scans.
* **RFM RAA counters** — one flat int64 vector indexed by the drain.

The per-bank scalars an arena keeps in its own lists (BlockHammer
filter totals and rotation phase, RAA values) are written back to the
per-bank objects when the run finishes, so post-run inspection
(``is_blacklisted``, filter counters, ``raa.value``) sees exactly what
the scalar backend would leave.  Byte-identity of every drained result
is pinned by the golden suite, the cross-backend battery, and the
property tests in tests/property/test_arena_properties.py.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.streaming.count_min import _MASK64, premix_seeds
from repro.streaming.vectorized import _finalize

#: Merged probe-cache bound (row ids, shared by all banks and both
#: filters — unlike the scalar per-filter caches, one entry covers
#: every probe of every bank).
_PROBE_CACHE_LIMIT = 1 << 17


class BlockHammerArena:
    """All banks' dual-CBF state, worked on in the filters' own arrays."""

    def __init__(self, schemes: Sequence):
        first_cbf = schemes[0].cbf
        f0 = first_cbf._filters[0]
        size = f0.size
        hashes = f0.num_hashes
        seeds = (f0._seed, first_cbf._filters[1]._seed)
        half_epoch = first_cbf.half_epoch
        for scheme in schemes:
            cbf = scheme.cbf
            g0, g1 = cbf._filters
            if (
                g0.size != size or g1.size != size
                or g0.num_hashes != hashes or g1.num_hashes != hashes
                or (g0._seed, g1._seed) != seeds
                or cbf.half_epoch != half_epoch
            ):
                raise ValueError(
                    "BlockHammer banks disagree on CBF geometry; "
                    "cannot share one arena"
                )
        self.schemes = list(schemes)
        self.size = size
        self.num_hashes = hashes
        self.half_epoch = half_epoch
        self.banks = len(self.schemes)
        filters = [scheme.cbf._filters for scheme in self.schemes]
        #: per bank: (first, second) filter counters as memoryviews
        #: (the drain's scalar reads and increments) and as int64 numpy
        #: views (in-place zeroing and scans) — both over the filters'
        #: own arrays, so nothing is copied in or out.
        self._mems = [
            tuple(memoryview(f._counters) for f in pair) for pair in filters
        ]
        self.views = [
            tuple(np.frombuffer(f._counters, dtype=np.int64) for f in pair)
            for pair in filters
        ]
        self.totals = [[f._total for f in pair] for pair in filters]
        self.active = [scheme.cbf._active for scheme in self.schemes]
        self.since_swap = [scheme.cbf._since_swap for scheme in self.schemes]
        #: premixed splitmix seed products, first filter then second.
        self._probe_seeds = np.array(
            premix_seeds(seeds[0], hashes) + premix_seeds(seeds[1], hashes),
            dtype=np.uint64,
        )
        #: row -> (first-filter probes, second-filter probes), each an
        #: index into its own filter.  Identical for every bank (shared
        #: seeds).
        self._probe_cache: Dict[
            int, Tuple[Tuple[int, ...], Tuple[int, ...]]
        ] = {}

    # ------------------------------------------------------------------
    # probe hashing (one family for all banks)
    # ------------------------------------------------------------------

    def prefill(self, rows: Iterable[int]) -> int:
        """Hash every distinct row in one vectorized pass.

        Called at construction with each trace's whole row column, so
        the per-ACT path nearly always finds its probes with a single
        dict lookup — the scalar backend's per-filter ``_indices``
        hashing (20% of a BlockHammer pair's drain time) disappears.
        Returns how many rows were added.
        """
        cache = self._probe_cache
        # return_index keeps np.unique off its masked-array check, which
        # would import numpy.ma (~2 MB) into every simulating process.
        distinct = np.unique(rows, return_index=True)[0].tolist()
        fresh = [row for row in distinct if row not in cache]
        room = _PROBE_CACHE_LIMIT - len(cache)
        if room <= 0 or not fresh:
            return 0
        fresh = fresh[:room]
        bases = np.fromiter(
            (hash(row) & _MASK64 for row in fresh),
            dtype=np.uint64,
            count=len(fresh),
        )
        mixed = _finalize(bases[:, None] ^ self._probe_seeds[None, :])
        local = (mixed % np.uint64(self.size)).astype(np.int64)
        k = self.num_hashes
        for row, probes in zip(fresh, local.tolist()):
            cache[row] = (tuple(probes[:k]), tuple(probes[k:]))
        return len(fresh)

    def _probes_for(
        self, row: int
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Cached (or lazily hashed) probe indices for ``row``."""
        cache = self._probe_cache
        entry = cache.get(row)
        if entry is None:
            base = hash(row) & _MASK64
            size = self.size
            probes: List[int] = []
            for premixed in self._probe_seeds.tolist():
                x = base ^ premixed
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
                x ^= x >> 31
                probes.append(x % size)
            k = self.num_hashes
            entry = (tuple(probes[:k]), tuple(probes[k:]))
            if len(cache) < _PROBE_CACHE_LIMIT:
                cache[row] = entry
        return entry

    # ------------------------------------------------------------------
    # observe paths (exact twins of DualCountingBloomFilter)
    # ------------------------------------------------------------------

    def observe_one(self, flat: int, row: int, start: int) -> None:
        """One ACT: ``BlockHammerScheme.on_activate`` on arena state."""
        scheme = self.schemes[flat]
        scheme.stats.acts_observed += 1
        first, second = self._probes_for(row)
        mem_first, mem_second = self._mems[flat]
        for probe in first:
            mem_first[probe] += 1
        for probe in second:
            mem_second[probe] += 1
        totals = self.totals[flat]
        totals[0] += 1
        totals[1] += 1
        since = self.since_swap[flat] + 1
        if since >= self.half_epoch:
            older = self.active[flat]
            self.views[flat][older].fill(0)
            totals[older] = 0
            self.active[flat] = 1 - older
            self.since_swap[flat] = 0
        else:
            self.since_swap[flat] = since
        if self.active[flat] == 0:
            mem, probes = mem_first, first
        else:
            mem, probes = mem_second, second
        estimate = mem[probes[0]]
        for probe in probes:
            value = mem[probe]
            if value < estimate:
                estimate = value
        if estimate >= scheme.n_bl:
            release_map = scheme._release
            if row not in release_map:
                scheme.blacklisted_rows_seen += 1
            release_map[row] = start + scheme.delay_cycles
            scheme.stats.throttle_events += 1

    # ------------------------------------------------------------------
    # cross-bank queries and maintenance
    # ------------------------------------------------------------------

    def estimate(self, flat: int, row: int) -> int:
        """Active-filter estimate for one (bank, row)."""
        active = self.active[flat]
        probes = self._probes_for(row)[active]
        mem = self._mems[flat][active]
        return min(mem[probe] for probe in probes)

    def estimate_many(self, rows: Sequence[int]) -> np.ndarray:
        """(banks, len(rows)) matrix of active-filter estimates."""
        rows = list(rows)
        result = np.zeros((self.banks, len(rows)), dtype=np.int64)
        if not rows:
            return result
        probe_rows = [self._probes_for(row) for row in rows]
        side_idx = [
            np.array([p[side] for p in probe_rows], dtype=np.int64)
            for side in (0, 1)
        ]
        for flat, views in enumerate(self.views):
            active = self.active[flat]
            result[flat] = views[active][side_idx[active]].min(axis=1)
        return result

    def decrement(self, flat: int, row: int, count: int = 1) -> None:
        """``CountingBloomFilter.decrement`` applied to both filters."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        totals = self.totals[flat]
        for side, (mem, probes) in enumerate(
            zip(self._mems[flat], self._probes_for(row))
        ):
            for probe in probes:
                value = mem[probe] - count
                mem[probe] = value if value > 0 else 0
            totals[side] -= count
            if totals[side] < 0:
                totals[side] = 0

    def reset(self, flat: int) -> None:
        """``DualCountingBloomFilter.reset`` for one bank."""
        for view in self.views[flat]:
            view.fill(0)
        self.totals[flat] = [0, 0]
        self.active[flat] = 0
        self.since_swap[flat] = 0

    def write_back(self) -> None:
        """Restore the per-bank scalars (the counters are the filters'
        own arrays and need no copy)."""
        for flat, scheme in enumerate(self.schemes):
            cbf = scheme.cbf
            cbf._active = self.active[flat]
            cbf._since_swap = self.since_swap[flat]
            for side, cbf_filter in enumerate(cbf._filters):
                cbf_filter._total = self.totals[flat][side]


class CbsArena:
    """Stacked view over all banks' Space-Saving (CbS) tables.

    The python :class:`CounterSummary` objects stay authoritative —
    off-table replacement evicts ``next(iter(bucket))``, an iteration
    order any faithful rewrite must replay op for op — so this arena
    owns the scalar-exact per-ACT update code (hoisted from the drain)
    and adds cross-bank numpy scans over an on-demand
    ``(banks, capacity)`` snapshot.
    """

    def __init__(self, schemes: Sequence, summaries: Sequence, kind: str):
        capacity = summaries[0].capacity
        for summary in summaries:
            if summary.capacity != capacity:
                raise ValueError(
                    "CbS banks disagree on table capacity; "
                    "cannot share one arena"
                )
        self.kind = kind
        self.schemes = list(schemes)
        self.summaries = list(summaries)
        self.banks = len(self.summaries)
        self.capacity = capacity
        self._rows_buf = np.full((self.banks, capacity), -1, np.int64)
        self._counts_buf = np.full((self.banks, capacity), -1, np.int64)
        #: stacked-snapshot rebuilds (see :attr:`BlockHammerArena.flushes`).
        self.syncs = 0

    @classmethod
    def for_mithril(cls, schemes: Sequence) -> "CbsArena":
        return cls(
            schemes, [s.table._summary for s in schemes], kind="mithril"
        )

    @classmethod
    def for_graphene(cls, schemes: Sequence) -> "CbsArena":
        return cls(schemes, [s.table for s in schemes], kind="graphene")

    # ------------------------------------------------------------------
    # per-ACT paths (exact scheme twins, shared with the fused drain)
    # ------------------------------------------------------------------

    def mithril_observe(self, flat: int, row: int) -> None:
        """``MithrilScheme.on_activate``: CbS update + spread check,
        with the on-table hit (+ ``_move``) and fresh-heap-top
        ``max_entry`` fast paths unrolled."""
        scheme = self.schemes[flat]
        scheme.stats.acts_observed += 1
        table = scheme.table
        summary = self.summaries[flat]
        counts = summary._counts
        current = counts.get(row)
        if current is None:
            summary._observe_one(row)
        else:
            summary._total_observed += 1
            new = current + 1
            buckets = summary._buckets
            bucket = buckets[current]
            bucket.discard(row)
            old_emptied = not bucket
            if old_emptied:
                del buckets[current]
            counts[row] = new
            bucket = buckets.get(new)
            if bucket is None:
                buckets[new] = {row}
            else:
                bucket.add(row)
            heappush(summary._max_heap, (-new, row))
            if old_emptied and current == summary._min_count:
                # new > current: advance upward (inline _advance_min;
                # buckets is non-empty, we just added to it)
                probe = summary._min_count
                while probe not in buckets:
                    probe += 1
                summary._min_count = probe
        max_heap = summary._max_heap
        if max_heap:
            neg_count, element = max_heap[0]
            if counts.get(element) == -neg_count:
                max_count = -neg_count
            else:
                top = summary.max_entry()
                max_count = 0 if top is None else top[1]
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
                f"counter spread {spread} exceeds wrapping window "
                f"{window}; counter_bits={table.counter_bits} too small"
            )

    def graphene_observe(
        self, flat: int, row: int, start: int
    ) -> Optional[List[int]]:
        """``GrapheneScheme.on_activate`` (+ ``_maybe_reset``); returns
        the ARR victim rows, or None when no refresh triggers."""
        scheme = self.schemes[flat]
        scheme.stats.acts_observed += 1
        if start >= scheme._next_reset:
            scheme.table.reset()
            scheme._next_trigger.clear()
            scheme.resets += 1
            while scheme._next_reset <= start:
                scheme._next_reset += scheme.reset_interval_cycles
        table = self.summaries[flat]
        counts = table._counts
        current = counts.get(row)
        if current is None:
            table._observe_one(row)
            found = counts.get(row)
            if found is None:  # defensive; observe always tables the row
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
            bucket.discard(row)
            old_emptied = not bucket
            if old_emptied:
                del buckets[current]
            counts[row] = found
            bucket = buckets.get(found)
            if bucket is None:
                buckets[found] = {row}
            else:
                bucket.add(row)
            heappush(table._max_heap, (-found, row))
            if old_emptied and current == table._min_count:
                probe = table._min_count
                while probe not in buckets:
                    probe += 1
                table._min_count = probe
        trigger = scheme._next_trigger.get(row, scheme.threshold)
        if found < trigger:
            return None
        scheme._next_trigger[row] = trigger + scheme.threshold
        rows_per_bank = scheme.rows_per_bank
        victims = [
            v for v in (row - 1, row + 1) if 0 <= v < rows_per_bank
        ]
        scheme.stats.preventive_refresh_rows += len(victims)
        return victims or None

    def observe_epoch(
        self, batch: Sequence[Tuple[int, int, int]]
    ) -> List[Tuple[int, Optional[List[int]]]]:
        """Apply one ``(flat, row, start)`` batch in event order.

        CbS updates cannot defer past their own event (ARR / RFM may
        block the bank mid-event), so the drain calls the per-ACT
        methods directly; this batch form serves the property tests
        and analysis sweeps.  Returns ``(flat, victims)`` per item
        (victims always None for Mithril).
        """
        results: List[Tuple[int, Optional[List[int]]]] = []
        if self.kind == "mithril":
            for flat, row, _start in batch:
                self.mithril_observe(flat, row)
                results.append((flat, None))
        else:
            for flat, row, start in batch:
                results.append(
                    (flat, self.graphene_observe(flat, row, start))
                )
        return results

    # ------------------------------------------------------------------
    # stacked snapshot + vectorized scans
    # ------------------------------------------------------------------

    def sync(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rebuild the stacked (rows, counts) snapshot matrices.

        Slots are filled in table insertion order; unused slots hold
        -1 (a live CbS count is always >= 1).  Rebuilt on every call:
        RFM demotes mutate the summaries behind the arena's back, so a
        version-stamped cache would go stale silently.
        """
        self.syncs += 1
        rows_buf = self._rows_buf
        counts_buf = self._counts_buf
        rows_buf.fill(-1)
        counts_buf.fill(-1)
        for flat, summary in enumerate(self.summaries):
            counts = summary._counts
            if counts:
                n = len(counts)
                rows_buf[flat, :n] = list(counts.keys())
                counts_buf[flat, :n] = list(counts.values())
        return rows_buf, counts_buf

    def min_counts(self) -> np.ndarray:
        """Per-bank table minimum (0 while not full), one masked scan."""
        _rows, counts = self.sync()
        filled = counts >= 0
        n_filled = filled.sum(axis=1)
        masked = np.where(filled, counts, np.iinfo(np.int64).max)
        mins = masked.min(axis=1)
        return np.where(n_filled >= self.capacity, mins, 0)

    def max_counts(self) -> np.ndarray:
        """Per-bank table maximum (0 for an empty table)."""
        _rows, counts = self.sync()
        return np.maximum(counts.max(axis=1), 0)

    def spreads(self) -> np.ndarray:
        """Per-bank max - min: the adaptive-refresh signal, every bank
        in one vectorized pass."""
        _rows, counts = self.sync()
        filled = counts >= 0
        n_filled = filled.sum(axis=1)
        masked = np.where(filled, counts, np.iinfo(np.int64).max)
        mins = np.where(
            n_filled >= self.capacity, masked.min(axis=1), 0
        )
        maxs = np.maximum(counts.max(axis=1), 0)
        return maxs - mins

    def estimate_many(self, rows: Sequence[int]) -> np.ndarray:
        """(banks, len(rows)) CbS estimates: tabled count, else the
        bank's minimum."""
        rows = list(rows)
        mins = self.min_counts()
        result = np.empty((self.banks, len(rows)), dtype=np.int64)
        for flat, summary in enumerate(self.summaries):
            counts = summary._counts
            floor = int(mins[flat])
            result[flat] = [counts.get(row, floor) for row in rows]
        return result

    def write_back(self) -> None:
        """No-op: the per-bank summaries were authoritative all along."""


class RaaArena:
    """Every bank's RFM RAA counter as one flat int64 vector."""

    def __init__(self, rfm_logics: Sequence):
        self.logics = list(rfm_logics)
        self.values = np.zeros(len(self.logics), dtype=np.int64)
        for flat, logic in enumerate(self.logics):
            self.values[flat] = logic.raa.value
        #: scalar view for the drain's per-ACT increment.
        self.mem = memoryview(self.values)

    def write_back(self) -> None:
        for flat, logic in enumerate(self.logics):
            logic.raa.value = int(self.values[flat])


class TrackerArenas:
    """The per-system bundle of arenas the fused drain consults."""

    def __init__(
        self,
        blockhammer: Optional[BlockHammerArena] = None,
        cbs: Optional[CbsArena] = None,
        raa: Optional[RaaArena] = None,
    ):
        self.blockhammer = blockhammer
        self.cbs = cbs
        self.raa = raa

    def write_back(self) -> None:
        if self.blockhammer is not None:
            self.blockhammer.write_back()
        if self.cbs is not None:
            self.cbs.write_back()
        if self.raa is not None:
            self.raa.write_back()

    def counters(self) -> Dict[str, int]:
        """Cheap always-on activity counts for the telemetry event."""
        out: Dict[str, int] = {}
        if self.cbs is not None:
            out["arena.cbs_syncs"] = self.cbs.syncs
        return out
