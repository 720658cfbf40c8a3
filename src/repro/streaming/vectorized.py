"""numpy-backed sketch engines: batch-probe twins of the scalar sketches.

The scalar sketches (:mod:`~repro.streaming.count_min`,
:mod:`~repro.streaming.counting_bloom`) pay k python-loop hash probes
per observation.  The engines here keep the *identical* hash family,
counter layout and estimates — same seed ⇒ same numbers, pinned by
tests/property/test_vectorized_sketches.py — but store counters in one
``numpy`` int64 array and precompute per-element probe-index vectors,
so an observation is a single gather/scatter and the batch APIs
(:meth:`observe_many` / :meth:`estimate_many`) amortize hashing across
a whole batch via one vectorized index matrix.

Per-element probe indices are cached as *(unique indices,
multiplicities)*: scatters through unique indices are plain fancy
assignments (no ``np.add.at`` needed), and aliasing probes (two hashes
of one element landing on the same counter) still add their full
weight, exactly like the scalar probe loop.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

import numpy as np

from repro.streaming.base import FrequencyEstimator
from repro.streaming.count_min import _MASK64, premix_seeds

#: Same probe-index cache bound as the scalar filters.
_INDEX_CACHE_LIMIT = 8192

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)


def _finalize(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (same bits as ``count_min._mix``)."""
    x = (x ^ (x >> np.uint64(30))) * _C1
    x = (x ^ (x >> np.uint64(27))) * _C2
    return x ^ (x >> np.uint64(31))


def _element_bases(elements: Sequence[Hashable]) -> np.ndarray:
    return np.fromiter(
        (hash(element) & _MASK64 for element in elements),
        dtype=np.uint64,
        count=len(elements),
    )


class _ProbeTable:
    """Precomputed probe machinery shared by the engines.

    ``seeds`` are the premixed per-probe seed products; ``modulus`` is
    the per-probe counter-space size; ``offsets`` shifts each probe
    into its region of the flat counter array (row-major rows for the
    count-min sketch, all-zero for a Bloom filter's shared region).
    """

    def __init__(self, seed: int, probes: int, modulus: int,
                 offsets: Sequence[int]):
        self.seeds = np.array(premix_seeds(seed, probes), dtype=np.uint64)
        self.modulus = np.uint64(modulus)
        self.offsets = np.array(offsets, dtype=np.int64)
        self._cache: dict = {}

    def index_matrix(self, elements: Sequence[Hashable]) -> np.ndarray:
        """(n, probes) int64 matrix of flat counter indices."""
        bases = _element_bases(elements)
        mixed = _finalize(bases[:, None] ^ self.seeds[None, :])
        return (mixed % self.modulus).astype(np.int64) + self.offsets

    def cached(self, element: Hashable) -> Tuple[np.ndarray, np.ndarray]:
        """(unique indices, multiplicities) for one element."""
        entry = self._cache.get(element)
        if entry is None:
            row = self.index_matrix([element])[0]
            unique, mult = np.unique(row, return_counts=True)
            entry = (unique, mult)
            if len(self._cache) < _INDEX_CACHE_LIMIT:
                self._cache[element] = entry
        return entry


class NumpyCountMinSketch(FrequencyEstimator):
    """Drop-in :class:`~repro.streaming.count_min.CountMinSketch` twin."""

    def __init__(self, width: int, depth: int = 4, seed: int = 0x5EED):
        if width <= 0 or depth <= 0:
            raise ValueError(
                f"width and depth must be positive, got {width}x{depth}"
            )
        self.width = width
        self.depth = depth
        self._seed = seed
        self._cells = np.zeros(width * depth, dtype=np.int64)
        self._probes = _ProbeTable(
            seed, depth, width,
            [row * width for row in range(depth)],
        )
        self._total = 0

    def observe(self, element: Hashable, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._total += count
        unique, mult = self._probes.cached(element)
        self._cells[unique] += mult * count

    def observe_many(self, elements, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        elements = list(elements)
        if not elements:
            return
        self._total += count * len(elements)
        np.add.at(self._cells, self._probes.index_matrix(elements), count)

    def estimate(self, element: Hashable) -> int:
        unique, _ = self._probes.cached(element)
        return int(self._cells[unique].min())

    def estimate_many(self, elements) -> List[int]:
        elements = list(elements)
        if not elements:
            return []
        matrix = self._probes.index_matrix(elements)
        return self._cells[matrix].min(axis=1).tolist()

    @property
    def total_observed(self) -> int:
        return self._total

    def nonzero_cells(self) -> int:
        """Occupied cells — equals the scalar sketch's value exactly."""
        return int(np.count_nonzero(self._cells))

    def saturation(self) -> float:
        """Fraction of cells that are non-zero, in [0, 1]."""
        return self.nonzero_cells() / (self.width * self.depth)

    def reset(self) -> None:
        self._cells[:] = 0
        self._total = 0


class NumpyCountingBloomFilter(FrequencyEstimator):
    """Drop-in :class:`~repro.streaming.counting_bloom.CountingBloomFilter`
    twin (same seed ⇒ same probe indices, counters and estimates)."""

    def __init__(self, size: int, num_hashes: int = 4, seed: int = 0xB10F):
        if size <= 0 or num_hashes <= 0:
            raise ValueError(
                f"size and num_hashes must be positive, "
                f"got {size}/{num_hashes}"
            )
        self.size = size
        self.num_hashes = num_hashes
        self._seed = seed
        self._counters = np.zeros(size, dtype=np.int64)
        self._probes = _ProbeTable(seed, num_hashes, size, [0] * num_hashes)
        self._total = 0

    def observe(self, element: Hashable, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._total += count
        unique, mult = self._probes.cached(element)
        self._counters[unique] += mult * count

    def observe_many(self, elements, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        elements = list(elements)
        if not elements:
            return
        self._total += count * len(elements)
        np.add.at(
            self._counters, self._probes.index_matrix(elements), count
        )

    def estimate(self, element: Hashable) -> int:
        unique, _ = self._probes.cached(element)
        return int(self._counters[unique].min())

    def estimate_many(self, elements) -> List[int]:
        elements = list(elements)
        if not elements:
            return []
        matrix = self._probes.index_matrix(elements)
        return self._counters[matrix].min(axis=1).tolist()

    def probe_indices_many(self, elements) -> np.ndarray:
        """(n, num_hashes) probe-index matrix, one vectorized pass.

        Row ``i`` equals the scalar filter's ``_indices(elements[i])``
        for the same (size, num_hashes, seed).
        """
        return self._probes.index_matrix(list(elements))

    def decrement(self, element: Hashable, count: int = 1) -> None:
        """Clamped deletion, bit-identical to the scalar filter.

        The scalar loop clamps each probe counter at zero per
        subtraction; with per-element multiplicities that collapses to
        ``max(0, counter - mult * count)`` (a clamped intermediate
        stays clamped under further positive subtraction).
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        unique, mult = self._probes.cached(element)
        self._counters[unique] = np.maximum(
            self._counters[unique] - mult * count, 0
        )
        self._total -= count
        if self._total < 0:
            self._total = 0

    @property
    def total_observed(self) -> int:
        return self._total

    def nonzero_counters(self) -> int:
        """Occupied counters — equals the scalar filter's value exactly."""
        return int(np.count_nonzero(self._counters))

    def saturation(self) -> float:
        """Fraction of counters that are non-zero, in [0, 1]."""
        return self.nonzero_counters() / self.size

    def reset(self) -> None:
        self._counters[:] = 0
        self._total = 0


class NumpyDualCountingBloomFilter(FrequencyEstimator):
    """Drop-in
    :class:`~repro.streaming.counting_bloom.DualCountingBloomFilter`
    twin: same staggered-lifetime rotation, same estimates."""

    def __init__(
        self,
        size: int,
        epoch_length: int,
        num_hashes: int = 4,
        seed: int = 0xB10F,
    ):
        if epoch_length <= 1:
            raise ValueError(
                f"epoch_length must be > 1, got {epoch_length}"
            )
        self.epoch_length = epoch_length
        self.half_epoch = max(1, epoch_length // 2)
        self._filters = [
            NumpyCountingBloomFilter(size, num_hashes, seed),
            NumpyCountingBloomFilter(size, num_hashes, seed + 1),
        ]
        self._active = 0
        self._since_swap = 0

    def _observe_chunk(self, element: Hashable, repetitions: int) -> None:
        for cbf in self._filters:
            unique, mult = cbf._probes.cached(element)
            cbf._counters[unique] += mult * repetitions
            cbf._total += repetitions

    def observe(self, element: Hashable, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        while count:
            chunk = min(count, self.half_epoch - self._since_swap)
            self._observe_chunk(element, chunk)
            count -= chunk
            self._since_swap += chunk
            if self._since_swap >= self.half_epoch:
                self._rotate()

    def observe_many(self, elements, count: int = 1) -> None:
        """One vectorized scatter per rotation-free run of the batch."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        elements = list(elements)
        if count != 1:
            for element in elements:  # rotation may interleave per element
                self.observe(element, count)
            return
        start = 0
        while start < len(elements):
            run = min(
                len(elements) - start, self.half_epoch - self._since_swap
            )
            chunk = elements[start:start + run]
            for cbf in self._filters:
                np.add.at(
                    cbf._counters, cbf._probes.index_matrix(chunk), 1
                )
                cbf._total += run
            start += run
            self._since_swap += run
            if self._since_swap >= self.half_epoch:
                self._rotate()

    def observe_and_estimate(self, element: Hashable) -> int:
        """One observation plus the post-observation estimate."""
        first, second = self._filters
        unique_first, mult_first = first._probes.cached(element)
        unique_second, mult_second = second._probes.cached(element)
        first._counters[unique_first] += mult_first
        first._total += 1
        second._counters[unique_second] += mult_second
        second._total += 1
        self._since_swap += 1
        if self._since_swap >= self.half_epoch:
            self._rotate()
        if self._active == 0:
            return int(first._counters[unique_first].min())
        return int(second._counters[unique_second].min())

    def _rotate(self) -> None:
        self._since_swap = 0
        young = 1 - self._active
        self._filters[self._active].reset()
        self._active = young

    def estimate(self, element: Hashable) -> int:
        return self._filters[self._active].estimate(element)

    def estimate_many(self, elements) -> List[int]:
        return self._filters[self._active].estimate_many(elements)

    def nonzero_counters(self) -> List[int]:
        """Per-filter occupied-counter counts, filter-pair order."""
        return [cbf.nonzero_counters() for cbf in self._filters]

    def reset(self) -> None:
        for cbf in self._filters:
            cbf.reset()
        self._active = 0
        self._since_swap = 0
