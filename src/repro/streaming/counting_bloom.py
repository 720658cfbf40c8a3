"""Counting Bloom filters, including BlockHammer's dual interleaved pair.

BlockHammer tracks per-row activation counts with two counting Bloom
filters (CBFs) whose lifetimes are staggered by half an epoch: at any
moment one filter is "active" (its content covers at least the last
half epoch) while the other warms up.  Estimates are taken from the
older filter, so a row's estimate covers the window relevant to the
blacklist decision, and a full reset never forgets recent history.

This is the single hottest tracker in the repo — BlockHammer probes
both filters on *every* ACT — so the counters live in one flat
``array('q')``, the per-probe seed products are precomputed, and the
splitmix finalizer is inlined into the observe/estimate loops.  The
dual filter additionally hashes each element once and reuses the probe
indices across both filters and the estimate
(:meth:`DualCountingBloomFilter.observe_and_estimate`).

Probe indices depend only on ``(seed, size, num_hashes, element)``,
so :func:`probe_index_matrix` hashes a whole batch in one numpy pass:
the BlockHammer-adversarial attack builder probes its 65,536-row
search space as one ``np.arange`` of hash bases (a small int hashes
to itself), and the native drain kernel hashes in C.
"""

from __future__ import annotations

from array import array
from typing import Hashable, List

import numpy as np

from repro.streaming.base import FrequencyEstimator

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

#: Probe-index cache bound per filter for lazy growth.  Hot rows (the
#: ones BlockHammer exists to catch) are re-probed constantly and win
#: the cache; a scan-heavy workload past the bound just computes
#: indices inline, capping worst-case memory at a few hundred KB per
#: filter.
_INDEX_CACHE_LIMIT = 8192

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)


def premix_seeds(seed: int, count: int) -> List[int]:
    """``seed * golden-ratio`` products for ``count`` consecutive seeds.

    Probe ``i`` of an element is the splitmix64 finalizer applied to
    ``hash(element) ^ premix_seeds(seed, n)[i]``; precomputing the
    products hoists one multiply out of every per-ACT probe.
    """
    return [((seed + i) * _GOLDEN) & _MASK64 for i in range(count)]


def _finalize(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (same bits as the scalar probe
    loop in :meth:`CountingBloomFilter._indices`)."""
    x = (x ^ (x >> np.uint64(30))) * _C1
    x = (x ^ (x >> np.uint64(27))) * _C2
    return x ^ (x >> np.uint64(31))


def probe_index_matrix(
    seed: int, size: int, num_hashes: int, num_rows: int
) -> np.ndarray:
    """(num_rows, num_hashes) int64 probe indices of the rows
    ``0 .. num_rows - 1``, one vectorized hash pass.

    Row ``r`` equals ``CountingBloomFilter(size, num_hashes, seed)
    ._indices(r)``.  An int in ``[0, 2**61 - 1)`` (python's int hash
    modulus) hashes to itself, so the hash bases are one ``np.arange``.
    """
    bases = np.arange(num_rows, dtype=np.uint64)
    seeds = np.array(premix_seeds(seed, num_hashes), dtype=np.uint64)
    mixed = _finalize(bases[:, None] ^ seeds[None, :])
    return (mixed % np.uint64(size)).astype(np.int64)


class CountingBloomFilter(FrequencyEstimator):
    """A single counting Bloom filter: k hashed counters per element.

    The estimate is the minimum of the element's counters, identical in
    spirit to a Count-Min sketch with ``k`` probes into one shared row.
    Provides the lower bound ``actual <= estimate`` only.
    """

    def __init__(self, size: int, num_hashes: int = 4, seed: int = 0xB10F):
        if size <= 0 or num_hashes <= 0:
            raise ValueError(
                f"size and num_hashes must be positive, got {size}/{num_hashes}"
            )
        self.size = size
        self.num_hashes = num_hashes
        self._seed = seed
        self._counters = array("q", bytes(8 * size))
        self._probe_seeds = premix_seeds(seed, num_hashes)
        #: element -> probe indices.  Indices depend only on (element,
        #: seed, size, num_hashes), never on counter state, so entries
        #: survive resets; lazy growth stops at
        #: :data:`_INDEX_CACHE_LIMIT` entries.
        self._index_cache: dict = {}
        self._total = 0

    def _indices(self, element: Hashable) -> List[int]:
        cache = self._index_cache
        indices = cache.get(element)
        if indices is None:
            base = hash(element) & _MASK64
            size = self.size
            indices = []
            for premixed in self._probe_seeds:
                x = base ^ premixed
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
                x ^= x >> 31
                indices.append(x % size)
            if len(cache) < _INDEX_CACHE_LIMIT:
                cache[element] = indices
        return indices

    def observe(self, element: Hashable, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._total += count
        counters = self._counters
        for index in self._indices(element):
            counters[index] += count

    def estimate(self, element: Hashable) -> int:
        counters = self._counters
        return min(counters[index] for index in self._indices(element))

    @property
    def total_observed(self) -> int:
        return self._total

    def nonzero_counters(self) -> int:
        """Occupied (non-zero) counters — the probe layer's saturation
        numerator for this filter."""
        return self.size - self._counters.count(0)

    def saturation(self) -> float:
        """Fraction of counters that are non-zero, in [0, 1]."""
        return self.nonzero_counters() / self.size

    def reset(self) -> None:
        self._counters = array("q", bytes(8 * self.size))
        self._total = 0


class DualCountingBloomFilter(FrequencyEstimator):
    """BlockHammer's pair of interleaved CBFs.

    ``epoch_length`` observations make up one filter lifetime (tCBF in
    ACT terms).  Both filters are updated; every half epoch the older
    one is cleared and the roles swap.  Estimates come from the filter
    that has been accumulating longer, guaranteeing coverage of at
    least the last half epoch.
    """

    def __init__(
        self,
        size: int,
        epoch_length: int,
        num_hashes: int = 4,
        seed: int = 0xB10F,
    ):
        if epoch_length <= 1:
            raise ValueError(f"epoch_length must be > 1, got {epoch_length}")
        self.epoch_length = epoch_length
        self.half_epoch = max(1, epoch_length // 2)
        self._filters = [
            CountingBloomFilter(size, num_hashes, seed),
            CountingBloomFilter(size, num_hashes, seed + 1),
        ]
        self._active = 0  #: index of the older (authoritative) filter
        self._since_swap = 0

    def observe(self, element: Hashable, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        first, second = self._filters
        # The probe indices depend only on the element, so hash once
        # and reuse them for every repetition and both filters (a
        # rotation clears counters but never moves cells).
        indices_first = first._indices(element)
        indices_second = second._indices(element)
        for _ in range(count):
            counters = first._counters
            for index in indices_first:
                counters[index] += 1
            first._total += 1
            counters = second._counters
            for index in indices_second:
                counters[index] += 1
            second._total += 1
            self._since_swap += 1
            if self._since_swap >= self.half_epoch:
                self._rotate()

    def observe_and_estimate(self, element: Hashable) -> int:
        """One observation plus the post-observation estimate.

        Semantically ``observe(element); return estimate(element)``,
        but the element is hashed once instead of three times — this
        is BlockHammer's per-ACT hot path.
        """
        first, second = self._filters
        indices_first = first._indices(element)
        indices_second = second._indices(element)
        counters = first._counters
        for index in indices_first:
            counters[index] += 1
        first._total += 1
        counters = second._counters
        for index in indices_second:
            counters[index] += 1
        second._total += 1
        self._since_swap += 1
        if self._since_swap >= self.half_epoch:
            self._rotate()
        if self._active == 0:
            counters, indices = first._counters, indices_first
        else:
            counters, indices = second._counters, indices_second
        return min(counters[index] for index in indices)

    def _rotate(self) -> None:
        self._since_swap = 0
        young = 1 - self._active
        self._filters[self._active].reset()
        self._active = young

    def estimate(self, element: Hashable) -> int:
        return self._filters[self._active].estimate(element)

    def nonzero_counters(self) -> List[int]:
        """Per-filter occupied-counter counts, index-aligned with the
        internal filter pair (not active-first)."""
        return [cbf.nonzero_counters() for cbf in self._filters]

    def reset(self) -> None:
        for cbf in self._filters:
            cbf.reset()
        self._active = 0
        self._since_swap = 0
