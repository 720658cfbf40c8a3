"""Counter-based Summary (CbS) algorithm (Misra-Gries / Space-Saving).

This is the tracking mechanism of both Graphene and Mithril (Table I of
the paper).  The table holds ``capacity`` (address, counter) entries:

* on-table address: its counter is incremented;
* off-table address: it *replaces* the address of a minimum-counter
  entry and that counter is incremented (Space-Saving replacement).

The resulting estimates obey the paper's inequalities (1) and (2):

    actual  <=  estimate                      (lower bound)
    estimate <= actual + table_minimum        (upper bound)

where the estimate of an off-table address is the table minimum.

The implementation keeps counters in count-indexed buckets so that every
operation — including minimum lookup — is amortized O(1), and the
maximum lookup (needed by Mithril's greedy selection) is amortized
O(log n) through a lazy max-heap.

Victim order is specified, not left to the container: each bucket is an
insertion-ordered dict used as an ordered set, so an eviction replaces
the entry that has sat longest at the minimum count (FIFO within the
minimum bucket, the Space-Saving stream-summary order), and ties for the
maximum go to the smallest address (the lazy heap's ``(-count, addr)``
order).  The native drain kernel reproduces both orders exactly.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.streaming.base import FrequencyEstimator


class CounterSummary(FrequencyEstimator):
    """Space-Saving summary with O(1) min and lazy-heap max tracking."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._counts: Dict[Hashable, int] = {}
        #: bucket structure: counter value -> addresses at that value, an
        #: insertion-ordered dict used as an ordered set (values None)
        self._buckets: Dict[int, Dict[Hashable, None]] = {}
        self._min_count = 0
        #: lazy max-heap of (-count, addr); stale entries skipped on pop
        self._max_heap: List[Tuple[int, Hashable]] = []
        self._total_observed = 0
        #: cumulative Space-Saving replacements (off-table arrivals that
        #: evicted a minimum entry) — the "spillover" the probe layer
        #: reports.  Survives :meth:`reset` so it counts the whole run.
        self.evictions = 0

    # ------------------------------------------------------------------
    # core stream operations
    # ------------------------------------------------------------------

    def observe(self, element: Hashable, count: int = 1) -> None:
        """Record ``count`` occurrences of ``element`` (CbS update rule)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        for _ in range(count):
            self._observe_one(element)

    def _observe_one(self, element: Hashable) -> None:
        self._total_observed += 1
        counts = self._counts
        current = counts.get(element)
        if current is not None:
            self._move(element, current, current + 1)
            return
        if len(counts) < self.capacity:
            self._insert(element, 1)
            if len(counts) == self.capacity:
                self._min_count = min(self._buckets)
            return
        # Off-table replacement: evict the oldest minimum-counter entry.
        self.evictions += 1
        victim = next(iter(self._buckets[self._min_count]))
        self._remove(victim, self._min_count)
        self._insert(element, self._min_count + 1)
        if not self._buckets.get(self._min_count):
            self._advance_min()

    def estimate(self, element: Hashable) -> int:
        """Estimated count: written counter if on-table, else table min."""
        found = self._counts.get(element)
        if found is not None:
            return found
        return self.min_count

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, element: Hashable) -> bool:
        return element in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def total_observed(self) -> int:
        return self._total_observed

    @property
    def min_count(self) -> int:
        """Smallest counter in the table (0 while the table is not full)."""
        if len(self._counts) < self.capacity:
            return 0
        return self._min_count

    def max_entry(self) -> Optional[Tuple[Hashable, int]]:
        """The (address, counter) entry with the largest counter, if any."""
        while self._max_heap:
            neg_count, element = self._max_heap[0]
            if self._counts.get(element) == -neg_count:
                return element, -neg_count
            heapq.heappop(self._max_heap)
        return None

    def min_entry(self) -> Optional[Tuple[Hashable, int]]:
        """The oldest (address, counter) entry at the smallest counter."""
        if not self._counts:
            return None
        low = min(self._buckets) if len(self._counts) < self.capacity else self._min_count
        return next(iter(self._buckets[low])), low

    def items(self) -> Iterable[Tuple[Hashable, int]]:
        return self._counts.items()

    def entries_at_least(self, threshold: int) -> List[Tuple[Hashable, int]]:
        """All entries whose counter is >= ``threshold``."""
        return [(a, c) for a, c in self._counts.items() if c >= threshold]

    # ------------------------------------------------------------------
    # mutation beyond the classic algorithm (used by RH schemes)
    # ------------------------------------------------------------------

    def demote_to_min(self, element: Hashable) -> None:
        """Set ``element``'s counter down to the current table minimum.

        This is the Mithril post-refresh decrement: by inequality (2) the
        estimate may exceed the actual count by at most the table
        minimum, so after a preventive refresh (actual count = 0) the
        minimum remains a safe overestimate.
        """
        current = self._counts.get(element)
        if current is None:
            raise KeyError(element)
        target = self.min_count
        if target >= current:
            return
        self._move(element, current, target)

    def reset(self) -> None:
        """Clear the table (Graphene-style periodic reset)."""
        self._counts.clear()
        self._buckets.clear()
        self._max_heap.clear()
        self._min_count = 0

    # ------------------------------------------------------------------
    # internal bucket bookkeeping
    # ------------------------------------------------------------------

    def _insert(self, element: Hashable, count: int) -> None:
        self._counts[element] = count
        buckets = self._buckets
        bucket = buckets.get(count)
        if bucket is None:
            buckets[count] = {element: None}
        else:
            bucket[element] = None
        heapq.heappush(self._max_heap, (-count, element))

    def _remove(self, element: Hashable, count: int) -> None:
        del self._counts[element]
        bucket = self._buckets[count]
        del bucket[element]
        if not bucket:
            del self._buckets[count]

    def _move(self, element: Hashable, old: int, new: int) -> None:
        buckets = self._buckets
        bucket = buckets[old]
        del bucket[element]
        old_emptied = not bucket
        if old_emptied:
            del buckets[old]
        self._counts[element] = new
        bucket = buckets.get(new)
        if bucket is None:
            buckets[new] = {element: None}
        else:
            bucket[element] = None
        heapq.heappush(self._max_heap, (-new, element))
        if old_emptied and old == self._min_count:
            if new < old:
                self._min_count = new
            else:
                self._advance_min()
        elif new < self._min_count:
            self._min_count = new

    def _advance_min(self) -> None:
        if not self._buckets:
            self._min_count = 0
            return
        probe = self._min_count
        while probe not in self._buckets:
            probe += 1
        self._min_count = probe
