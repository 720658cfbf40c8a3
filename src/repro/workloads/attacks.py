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

from typing import List, Optional, Sequence

from repro.streaming.counting_bloom import CountingBloomFilter
from repro.workloads.trace import CoreTrace, TraceEntry

#: Rows the attacker's offline CBF profiling sweep covers.
PROFILE_SEARCH_SPACE = 65536


def _act_entries(
    rows: Sequence[int],
    bank_index: int,
    total_requests: int,
    gap_cycles: int = 0,
) -> List[TraceEntry]:
    """Cycle over ``rows`` with row-miss accesses (every access ACTs)."""
    entries = []
    n = len(rows)
    for i in range(total_requests):
        entries.append(
            TraceEntry(
                gap_cycles=gap_cycles,
                bank_index=bank_index,
                row=rows[i % n],
                column=i % 128,
                is_write=False,
                instructions=1,
            )
        )
    return entries


def double_sided_trace(
    victim_row: int = 1000,
    bank_index: int = 0,
    total_requests: int = 8000,
    name: str = "double-sided",
) -> CoreTrace:
    """Alternate ACTs on victim_row-1 and victim_row+1."""
    rows = [victim_row - 1, victim_row + 1]
    return CoreTrace(
        name=name,
        entries=_act_entries(rows, bank_index, total_requests),
        memory_intensive=True,
    )


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
    return CoreTrace(
        name=name,
        entries=_act_entries(aggressors, bank_index, total_requests),
        memory_intensive=True,
    )


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
    return CoreTrace(
        name=name,
        entries=_act_entries(rows, bank_index, total_requests),
        memory_intensive=True,
    )


def _vectorized_probe_matrix(cbf: CountingBloomFilter, search_space: int):
    """(search_space, k) probe-index matrix, or None without numpy.

    The attacker's profiling sweep batch-probes the whole search space
    in one vectorized hash pass
    (:meth:`~repro.streaming.vectorized.NumpyCountingBloomFilter.probe_indices_many`);
    a numpy-less environment keeps the scalar filter's lazy per-row
    loops below — identical rows either way (same hash family and
    seed), asserted by tests/unit/test_attacks.py.
    """
    try:
        from repro.streaming.vectorized import NumpyCountingBloomFilter
    except ImportError:
        return None
    twin = NumpyCountingBloomFilter(cbf.size, cbf.num_hashes, cbf._seed)
    return twin.probe_indices_many(range(search_space))


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
    target_indices = set(cbf._indices(target_row))
    matrix = _vectorized_probe_matrix(cbf, search_space)
    if matrix is None:
        shared_of = lambda row: sum(  # noqa: E731
            1 for idx in cbf._indices(row) if idx in target_indices
        )
    else:
        import numpy as np

        targets = np.fromiter(
            target_indices, dtype=np.int64, count=len(target_indices)
        )
        counts = np.isin(matrix, targets).sum(axis=1)
        shared_of = counts.__getitem__
    aliases = []
    for row in range(search_space):
        if row == target_row:
            continue
        if shared_of(row) >= min_shared:
            aliases.append(row)
            if len(aliases) >= count:
                break
    return aliases


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
    return _covering_rows(
        cbf, target_row, search_space,
        _vectorized_probe_matrix(cbf, search_space),
    )


def _covering_rows(
    cbf: CountingBloomFilter, target_row: int, search_space: int, matrix
) -> List[int]:
    """:func:`find_covering_rows` over a precomputed probe matrix.

    ``matrix`` is :func:`_vectorized_probe_matrix` of the same filter
    and search space (None selects the scalar sweep), so one profiling
    pass serves every target row of an attacker build.
    """
    needed = list(dict.fromkeys(cbf._indices(target_row)))
    covers: List[int] = []
    if matrix is not None:
        import numpy as np

        for index in needed:
            for row in np.flatnonzero((matrix == index).any(axis=1)):
                row = int(row)
                if row != target_row and row not in covers:
                    covers.append(row)
                    break
        return covers
    for index in needed:
        for row in range(search_space):
            if row == target_row or row in covers:
                continue
            if index in cbf._indices(row):
                covers.append(row)
                break
    return covers


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
    cover_groups: List[List[int]] = []
    for row in benign_rows:
        covers = _covering_rows(probe, row, PROFILE_SEARCH_SPACE, matrix)
        if covers:
            cover_groups.append(covers)
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
    return CoreTrace(
        name=name,
        entries=_act_entries(rows[:total_requests], bank_index,
                             total_requests),
        memory_intensive=True,
    )
