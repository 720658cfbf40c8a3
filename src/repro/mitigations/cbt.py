"""CBT (Seyedzadeh et al.): counter-based tree of grouped counters.

A binary tree over the row-address space starts as a single counter
covering the whole bank.  Hot subtrees split — both children inherit
the parent's count, keeping every count a safe overestimate — until the
counter budget is exhausted.  When a leaf's count crosses the refresh
threshold, every row the leaf covers (plus the two boundary neighbours)
receives a preventive refresh and the leaf's count resets.

Section III-D explains why this family does not carry over to RFM:
during tree construction a refresh covers enormous row ranges, and a
mature leaf spanning more than ~8 rows still cannot be refreshed within
a single tRFM window.  The class supports both ARR mode (faithful CBT)
and the measurement of those over-refresh row counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.params import DramTimings
from repro.protection import ProtectionScheme, arr_trigger
from repro.types import SchemeLocation


def cbt_counters(flip_th: int, timings: Optional[DramTimings] = None) -> int:
    """Counter budget: two tree nodes per leaf, with enough leaves that
    no leaf reaches the refresh threshold untracked within tREFW."""
    timings = timings or DramTimings()
    leaves = math.ceil(timings.acts_per_trefw() / arr_trigger(flip_th))
    return 2 * max(1, leaves)


@dataclass
class _Node:
    lo: int                      #: first row covered (inclusive)
    hi: int                      #: last row covered (inclusive)
    count: int = 0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def span(self) -> int:
        return self.hi - self.lo + 1


class CbtScheme(ProtectionScheme):
    """Counter-based tree with conservative split inheritance."""

    location = SchemeLocation.MC
    uses_rfm = False

    def __init__(
        self,
        flip_th: int = 10_000,
        rows_per_bank: int = 65536,
        num_counters: Optional[int] = None,
        split_divisor: int = 8,
    ):
        super().__init__()
        self.flip_th = flip_th
        self.rows_per_bank = rows_per_bank
        self.refresh_threshold = arr_trigger(flip_th)
        self.split_threshold = max(1, flip_th // split_divisor)
        if num_counters is None:
            num_counters = cbt_counters(flip_th)
        self.num_counters = num_counters
        self._root = _Node(lo=0, hi=rows_per_bank - 1)
        self._counters_used = 1
        self.refreshed_rows_histogram: List[int] = []

    # ------------------------------------------------------------------

    def _find_leaf(self, row: int) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.left if row <= node.left.hi else node.right
        return node

    def _maybe_split(self, leaf: _Node) -> None:
        if leaf.span <= 1:
            return
        if leaf.count < self.split_threshold:
            return
        if self._counters_used + 1 > self.num_counters:
            return
        mid = (leaf.lo + leaf.hi) // 2
        # Children inherit the parent's count: a conservative upper
        # bound that preserves the deterministic guarantee.
        leaf.left = _Node(lo=leaf.lo, hi=mid, count=leaf.count)
        leaf.right = _Node(lo=mid + 1, hi=leaf.hi, count=leaf.count)
        self._counters_used += 1

    def on_activate(self, row: int, cycle: int) -> List[int]:
        self.stats.acts_observed += 1
        if not 0 <= row < self.rows_per_bank:
            raise ValueError(f"row {row} out of range")
        leaf = self._find_leaf(row)
        leaf.count += 1
        self._maybe_split(leaf)
        leaf = self._find_leaf(row)
        if leaf.count < self.refresh_threshold:
            return []
        leaf.count = 0
        victims = [
            r
            for r in range(leaf.lo - 1, leaf.hi + 2)
            if 0 <= r < self.rows_per_bank
        ]
        self.refreshed_rows_histogram.append(len(victims))
        self.stats.preventive_refresh_rows += len(victims)
        return victims

    def table_entries(self) -> int:
        return self.num_counters

    @property
    def tree_depth(self) -> int:
        def depth(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self._root)

    @property
    def leaf_count(self) -> int:
        def leaves(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return leaves(node.left) + leaves(node.right)

        return leaves(self._root)
