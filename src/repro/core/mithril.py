"""Mithril: the per-bank tracker table and protection scheme (Section IV).

The hardware holds, per DRAM bank, a table of ``Nentry`` (row address,
counter) pairs in two CAMs, plus MaxPtr / MinPtr index registers:

* **ACT**: on-table rows increment their counter; off-table rows
  replace a minimum-counter entry (Counter-based Summary update).
* **RFM**: the MaxPtr entry is greedily selected, its adjacent victim
  rows receive a preventive refresh inside the tRFM window, and its
  counter is demoted to the table minimum (safe by inequality (2)).
* **Adaptive refresh** (Section V-A): when ``max - min <= AdTH`` the
  preventive refresh is skipped — benign access patterns never build a
  large spread, so the common case costs no refresh energy.
* **Mithril+** (Section V-B): the same condition is exposed through a
  mode register; the MC reads it (MRR) when the RAA counter saturates
  and skips issuing the RFM command entirely, removing the tRFM
  performance penalty too.

Counters wrap (Section IV-E): because only counter *differences* within
a bounded spread matter, a short modular counter replaces the unbounded
one, removing the periodic table reset that costs prior schemes a
two-fold threshold degradation.  The Python model keeps exact integers
for efficiency but continuously checks the wrapping-representability
invariant and provides :class:`WrappingCounter` to demonstrate the
modular comparison rule itself.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.protection import ProtectionScheme
from repro.streaming.cbs import CounterSummary
from repro.types import SchemeLocation


class WrappingCounter:
    """A b-bit modular counter with order defined relative to a window.

    Two wrapped values can be ordered correctly as long as their true
    difference is less than 2**(bits-1): the signed interpretation of
    ``(a - b) mod 2**bits`` recovers the sign of ``a - b``.
    """

    def __init__(self, bits: int, value: int = 0):
        if bits < 2:
            raise ValueError(f"bits must be >= 2, got {bits}")
        self.bits = bits
        self.modulus = 1 << bits
        self.value = value % self.modulus

    def increment(self, amount: int = 1) -> None:
        self.value = (self.value + amount) % self.modulus

    def set_to(self, other: "WrappingCounter") -> None:
        self.value = other.value

    def difference(self, other: "WrappingCounter") -> int:
        """Signed difference self - other, valid within the half-window."""
        raw = (self.value - other.value) % self.modulus
        if raw >= self.modulus // 2:
            return raw - self.modulus
        return raw

    def __ge__(self, other: "WrappingCounter") -> bool:
        return self.difference(other) >= 0

    def __gt__(self, other: "WrappingCounter") -> bool:
        return self.difference(other) > 0

    def __repr__(self) -> str:
        return f"WrappingCounter(bits={self.bits}, value={self.value})"


class MithrilTable:
    """The per-bank Mithril counter table with greedy RFM selection."""

    def __init__(self, n_entries: int, counter_bits: Optional[int] = None):
        if n_entries <= 0:
            raise ValueError(f"n_entries must be positive, got {n_entries}")
        self.n_entries = n_entries
        self.counter_bits = counter_bits
        #: hardware wrapping-counter window (None = unchecked); hoisted
        #: out of the per-ACT path.
        self._wrap_window = (
            None if counter_bits is None else 1 << (counter_bits - 1)
        )
        self._summary = CounterSummary(capacity=n_entries)
        self._max_spread_seen = 0

    # -- ACT path -------------------------------------------------------

    def record_activation(self, row: int) -> None:
        """CbS update for one ACT command."""
        self._summary.observe(row)
        spread = self.spread()
        if spread > self._max_spread_seen:
            self._max_spread_seen = spread
        window = self._wrap_window
        if window is not None and spread >= window:
            # Hardware-implementability invariant for the wrapping counter.
            raise OverflowError(
                f"counter spread {spread} exceeds wrapping window "
                f"{window}; counter_bits={self.counter_bits} too small"
            )

    # -- RFM path -------------------------------------------------------

    def greedy_select(self) -> Optional[Tuple[int, int]]:
        """The MaxPtr entry: (row, counter), or None for an empty table."""
        return self._summary.max_entry()

    def demote_max(self) -> Optional[int]:
        """Demote the MaxPtr entry's counter to the minimum; return row."""
        top = self._summary.max_entry()
        if top is None:
            return None
        row, _count = top
        self._summary.demote_to_min(row)
        return row

    # -- queries --------------------------------------------------------

    def estimate(self, row: int) -> int:
        return self._summary.estimate(row)

    def min_count(self) -> int:
        return self._summary.min_count

    def max_count(self) -> int:
        top = self._summary.max_entry()
        return 0 if top is None else top[1]

    def spread(self) -> int:
        """MaxPtr count minus MinPtr count (the adaptive-refresh signal)."""
        return self.max_count() - self.min_count()

    @property
    def max_spread_seen(self) -> int:
        return self._max_spread_seen

    def __len__(self) -> int:
        return len(self._summary)

    def items(self):
        return self._summary.items()


class MithrilScheme(ProtectionScheme):
    """Mithril (and Mithril+ when ``plus=True``) per-bank scheme.

    Parameters
    ----------
    n_entries:
        Mithril table size (chosen via :mod:`repro.core.config`).
    rfm_th:
        The RAA threshold the MC uses for this DRAM; kept here for the
        wrapping-counter sizing and reporting only.
    adaptive_th:
        AdTH of Section V-A.  0 disables the adaptive refresh policy and
        every RFM triggers a preventive refresh.
    plus:
        Enable Mithril+ — the MC consults :meth:`rfm_needed_flag` (an
        MRR read) and skips the whole RFM command when the spread is
        small.
    blast_radius:
        How many rows on each side of the aggressor get refreshed
        (1 = double-sided handling; 3 covers the non-adjacent RH of
        Section V-C).
    rows_per_bank:
        Used to clip victim rows at the edge of the array.
    """

    location = SchemeLocation.DRAM
    uses_rfm = True

    def __init__(
        self,
        n_entries: int = 512,
        rfm_th: int = 64,
        adaptive_th: int = 0,
        plus: bool = False,
        blast_radius: int = 1,
        rows_per_bank: int = 65536,
        counter_bits: Optional[int] = None,
    ):
        super().__init__()
        if blast_radius < 1:
            raise ValueError(f"blast_radius must be >= 1, got {blast_radius}")
        if counter_bits is None:
            spread_cap = adaptive_th + 2 * rfm_th
            counter_bits = max(2, math.ceil(math.log2(spread_cap + 1)) + 2)
        self.table = MithrilTable(n_entries, counter_bits=counter_bits)
        self.rfm_th = rfm_th
        self.adaptive_th = adaptive_th
        self.plus = plus
        self.blast_radius = blast_radius
        self.rows_per_bank = rows_per_bank
        self.uses_mrr_gating = plus

    # -- ProtectionScheme interface --------------------------------------

    def on_activate(self, row: int, cycle: int) -> List[int]:
        self.stats.acts_observed += 1
        self.table.record_activation(row)
        return []

    def on_rfm(self, cycle: int) -> List[int]:
        self.stats.rfms_received += 1
        if self.adaptive_th and self.table.spread() <= self.adaptive_th:
            self.stats.rfms_skipped += 1
            return []
        selected = self.table.greedy_select()
        if selected is None:
            return []
        row, _count = selected
        self.table.demote_max()
        victims = self._victims(row)
        self.stats.preventive_refresh_rows += len(victims)
        return victims

    def rfm_needed_flag(self) -> bool:
        """Mithril+ MRR flag: issue the RFM only when spread is large."""
        self.stats.mrr_reads += 1
        if not self.plus:
            return True
        return self.table.spread() > self.adaptive_th

    def table_entries(self) -> int:
        return self.table.n_entries

    # -- helpers ----------------------------------------------------------

    def _victims(self, aggressor: int) -> List[int]:
        victims = []
        for offset in range(1, self.blast_radius + 1):
            for sign in (-1, 1):
                victim = aggressor + sign * offset
                if 0 <= victim < self.rows_per_bank:
                    victims.append(victim)
        return victims
