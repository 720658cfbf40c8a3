"""PARFM (Section III-E): the PARA-inspired probabilistic RFM scheme.

The DRAM-side logic reservoir-samples one aggressor among the ACTs of
the current RFM interval; when the RFM command arrives, the sampled
row's neighbours get a preventive refresh.  Protection is probabilistic
and depends solely on RFM_TH — Appendix C's recurrence (implemented in
:mod:`repro.analysis.parfm_failure`) picks the largest RFM_TH meeting a
failure-probability target.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.protection import ProtectionScheme
from repro.types import SchemeLocation


class ParfmScheme(ProtectionScheme):
    """Reservoir-sampling probabilistic RFM responder."""

    location = SchemeLocation.DRAM
    uses_rfm = True

    def __init__(
        self,
        rows_per_bank: int = 65536,
        blast_radius: int = 1,
        seed: int = 0xF00D,
    ):
        super().__init__()
        self.rows_per_bank = rows_per_bank
        self.blast_radius = blast_radius
        self.seed = seed
        #: ``random.Random(seed)``, built at the first draw.
        self._rng: Optional[random.Random] = None
        self._sample: Optional[int] = None
        self._interval_acts = 0

    def on_activate(self, row: int, cycle: int) -> List[int]:
        self.stats.acts_observed += 1
        self._interval_acts += 1
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        # Reservoir sampling: the i-th ACT replaces the sample w.p. 1/i.
        if rng.random() < 1.0 / self._interval_acts:
            self._sample = row
        return []

    def on_rfm(self, cycle: int) -> List[int]:
        self.stats.rfms_received += 1
        aggressor = self._sample
        self._sample = None
        self._interval_acts = 0
        if aggressor is None:
            return []
        victims = []
        for offset in range(1, self.blast_radius + 1):
            for sign in (-1, 1):
                victim = aggressor + sign * offset
                if 0 <= victim < self.rows_per_bank:
                    victims.append(victim)
        self.stats.preventive_refresh_rows += len(victims)
        return victims
