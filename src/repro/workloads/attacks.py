"""Adversarial access patterns.

* :func:`double_sided_trace` — the classic double-sided hammer: both
  neighbours of one victim are activated alternately; each neighbour
  needs only FlipTH/2 ACTs to flip the victim.
* :func:`multi_sided_trace` — the TRRespass-style multi-sided attack of
  Section VI-A (typically 32 victims): many aggressor pairs hammered in
  a rotation, defeating trackers with too few counters.
* :func:`rotation_attack_trace` — round-robin over ``num_rows`` rows;
  with ``num_rows > Nentry`` this is the concentration pattern the
  Theorem-1 proof bounds (it maximizes estimated-count growth).
* :func:`blockhammer_adversarial_trace` — the performance attack of
  Section VI-A: activate rows that alias with a benign thread's rows in
  BlockHammer's counting Bloom filter just enough to blacklist them,
  throttling the *benign* thread.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.streaming.counting_bloom import (
    CountingBloomFilter,
    probe_index_matrix,
)
from repro.workloads.trace import CoreTrace

#: Rows the attacker's offline CBF profiling sweep covers.
PROFILE_SEARCH_SPACE = 65536


def _act_trace(
    name: str,
    rows: Sequence[int],
    bank_index: int,
    total_requests: int,
) -> CoreTrace:
    """Cycle over ``rows`` with row-miss accesses (every access ACTs)."""
    i = np.arange(total_requests)
    return CoreTrace(
        name,
        gap_cycles=np.zeros(total_requests, dtype=np.int64),
        bank_index=np.full(total_requests, bank_index, dtype=np.int64),
        row=np.asarray(rows, dtype=np.int64)[i % len(rows)],
        column=i % 128,
        is_write=np.zeros(total_requests, dtype=bool),
        instructions=np.ones(total_requests, dtype=np.int64),
        memory_intensive=True,
    )


def double_sided_trace(
    victim_row: int = 1000,
    bank_index: int = 0,
    total_requests: int = 8000,
    name: str = "double-sided",
) -> CoreTrace:
    """Alternate ACTs on victim_row-1 and victim_row+1."""
    rows = [victim_row - 1, victim_row + 1]
    return _act_trace(name, rows, bank_index, total_requests)


def multi_sided_trace(
    num_victims: int = 32,
    base_row: int = 2000,
    bank_index: int = 0,
    total_requests: int = 8000,
    name: str = "multi-sided",
) -> CoreTrace:
    """TRRespass pattern: aggressor rows interleaved with many victims.

    Aggressors sit at even offsets, victims at odd offsets between
    them, so every aggressor hammers two victims and every interior
    victim is double-sided.
    """
    aggressors = [base_row + 2 * i for i in range(num_victims + 1)]
    return _act_trace(name, aggressors, bank_index, total_requests)


def rotation_attack_trace(
    num_rows: int,
    base_row: int = 4000,
    row_stride: int = 2,
    bank_index: int = 0,
    total_requests: int = 8000,
    name: str = "rotation",
) -> CoreTrace:
    """Round-robin over many distinct rows (tracker-thrashing pattern)."""
    if num_rows <= 0:
        raise ValueError(f"num_rows must be positive, got {num_rows}")
    rows = [base_row + row_stride * i for i in range(num_rows)]
    return _act_trace(name, rows, bank_index, total_requests)


def _vectorized_probe_matrix(cbf: CountingBloomFilter, search_space: int):
    """(search_space, k) probe-index matrix of ``cbf``'s hash family.

    The attacker's profiling sweep batch-probes the whole search space
    in one vectorized hash pass
    (:func:`~repro.streaming.counting_bloom.probe_index_matrix`); row
    ``r`` equals ``cbf._indices(r)``, asserted by
    tests/unit/test_attacks.py.
    """
    return probe_index_matrix(
        cbf._seed, cbf.size, cbf.num_hashes, search_space
    )


def _target_hits(cbf: CountingBloomFilter, matrix, target_rows):
    """Boolean mask over ``matrix``: which probes land on a CBF counter
    of any of ``target_rows``.

    This is the attacker's whole profiling pass: one lookup of every
    probe of the search space in a per-counter table of the targets'
    counters (an ``np.isin`` against them).
    """
    targeted = np.zeros(cbf.size, dtype=bool)
    for row in target_rows:
        targeted[cbf._indices(row)] = True
    return targeted[matrix]


def find_aliasing_rows(
    cbf: CountingBloomFilter,
    target_row: int,
    count: int,
    search_space: int = PROFILE_SEARCH_SPACE,
    min_shared: int = 1,
) -> List[int]:
    """Rows sharing at least ``min_shared`` CBF counters with the target.

    This is the attacker's offline profiling step: BlockHammer's hash
    functions are not secret, so rows colliding with a benign thread's
    hot rows can be precomputed (batch-probed over the search space).
    """
    matrix = _vectorized_probe_matrix(cbf, search_space)
    shared = _target_hits(cbf, matrix, [target_row]).sum(axis=1)
    aliases = np.flatnonzero(shared >= min_shared)
    return [row for row in aliases.tolist() if row != target_row][:count]


def find_covering_rows(
    cbf: CountingBloomFilter,
    target_row: int,
    search_space: int = PROFILE_SEARCH_SPACE,
) -> List[int]:
    """One alias row per CBF counter of the target.

    The blacklist estimate is the *minimum* of the target's counters,
    so the attacker must inflate all of them.  For each counter index
    of the target, pick a different row that also hashes there —
    hammering the set raises every counter and thus the minimum.
    """
    matrix = _vectorized_probe_matrix(cbf, search_space)
    return _covering_rows(cbf, [target_row], matrix)[0]


def _covering_rows(
    cbf: CountingBloomFilter, target_rows: Sequence[int], matrix
) -> List[List[int]]:
    """:func:`find_covering_rows` of each target over one probe matrix.

    ``matrix`` is :func:`_vectorized_probe_matrix` of the same filter
    and search space, so one profiling pass serves every target row of
    an attacker build.  For each counter of a target, the cover is the
    lowest row probing that counter that is neither the target nor
    already one of its covers.
    """
    rows, probes = np.nonzero(_target_hits(cbf, matrix, target_rows))
    counters = matrix[rows, probes]
    # Group the hits by counter, rows ascending within each counter.
    order = np.argsort(counters, kind="stable")
    counters, rows = counters[order], rows[order]
    keys, starts = np.unique(counters, return_index=True)
    stops = np.append(starts[1:], len(rows))
    spans = dict(zip(keys.tolist(), zip(starts.tolist(), stops.tolist())))
    groups: List[List[int]] = []
    for target_row in target_rows:
        covers: List[int] = []
        for index in dict.fromkeys(cbf._indices(target_row)):
            start, stop = spans.get(index, (0, 0))
            for row in map(int, rows[start:stop]):
                if row != target_row and row not in covers:
                    covers.append(row)
                    break
        groups.append(covers)
    return groups


def blockhammer_adversarial_trace(
    benign_rows: Sequence[int],
    cbf_size: int,
    blacklist_threshold: int,
    bank_index: int = 0,
    total_requests: int = 8000,
    num_hashes: int = 4,
    seed: int = 0xB10F,
    name: str = "bh-adversarial",
) -> CoreTrace:
    """Blacklist benign rows by hammering their CBF aliases.

    The attacker activates rows covering every CBF counter of the
    benign thread's rows — pushing the shared counters over N_BL so
    that the *benign* accesses get throttled (Section VI-A).
    """
    probe = CountingBloomFilter(cbf_size, num_hashes=num_hashes, seed=seed)
    matrix = _vectorized_probe_matrix(probe, PROFILE_SEARCH_SPACE)
    cover_groups = [
        covers for covers in _covering_rows(probe, benign_rows, matrix)
        if covers
    ]
    if not cover_groups:
        cover_groups = [[row + 1, row + 3] for row in benign_rows]
    # Budget-aware: fully blacklist one benign row's cover group before
    # moving to the next.  Cycling within a group forces a row miss
    # (hence an ACT and a CBF count) on every access.
    margin = max(2, blacklist_threshold // 8)
    rows: List[int] = []
    for covers in cover_groups:
        if len(covers) == 1:
            covers = covers + [covers[0] + 2]
        per_alias = blacklist_threshold + margin
        for i in range(per_alias * len(covers)):
            rows.append(covers[i % len(covers)])
        if len(rows) >= total_requests:
            break
    if not rows:
        rows = [benign_rows[0] + 1, benign_rows[0] + 3]
    # Spend any remaining budget keeping the blacklists warm.
    recycle = [covers[i % len(covers)]
               for covers in cover_groups
               for i in range(len(covers))]
    while len(rows) < total_requests:
        rows.extend(recycle)
    return _act_trace(name, rows[:total_requests], bank_index,
                      total_requests)
