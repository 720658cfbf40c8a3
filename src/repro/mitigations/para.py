"""PARA (Kim et al., ISCA 2014): probabilistic adjacent-row refresh.

On every ACT the MC refreshes one neighbour of the activated row with
probability ``p`` (p/2 per side).  No counters at all — but only a
probabilistic guarantee, and the refresh rate (energy) scales with
``p``, which must grow as FlipTH shrinks.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.protection import ProtectionScheme
from repro.types import SchemeLocation


def para_probability(flip_th: int, target_failure: float = 1e-15) -> float:
    """Per-ACT refresh probability meeting the failure target.

    A victim whose aggressor receives ``flip_th / 2`` ACTs survives
    unprotected with probability ``(1 - p/2) ** (flip_th / 2)``; solve
    for the ``p`` that pushes this below ``target_failure``.
    """
    if flip_th <= 0:
        raise ValueError(f"flip_th must be positive, got {flip_th}")
    if not 0 < target_failure < 1:
        raise ValueError(f"target_failure must be in (0,1), got {target_failure}")
    acts = flip_th / 2.0
    p = 2.0 * (1.0 - target_failure ** (1.0 / acts))
    return min(1.0, p)


class ParaScheme(ProtectionScheme):
    """Stateless probabilistic ARR."""

    location = SchemeLocation.MC
    uses_rfm = False

    def __init__(
        self,
        flip_th: int = 10_000,
        target_failure: float = 1e-15,
        rows_per_bank: int = 65536,
        seed: int = 0xAAA,
        probability: float = None,
    ):
        super().__init__()
        self.flip_th = flip_th
        self.probability = (
            probability
            if probability is not None
            else para_probability(flip_th, target_failure)
        )
        self.rows_per_bank = rows_per_bank
        self.seed = seed
        #: ``random.Random(seed)``, built at the first draw.
        self._rng: Optional[random.Random] = None

    def on_activate(self, row: int, cycle: int) -> List[int]:
        self.stats.acts_observed += 1
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        if rng.random() >= self.probability:
            return []
        side = -1 if rng.random() < 0.5 else 1
        victim = row + side
        if not 0 <= victim < self.rows_per_bank:
            victim = row - side
        self.stats.preventive_refresh_rows += 1
        return [victim]
