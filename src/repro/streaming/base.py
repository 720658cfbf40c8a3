"""Common interface for the frequent-items estimators."""

from __future__ import annotations

import abc
from typing import Hashable


class FrequencyEstimator(abc.ABC):
    """Estimates per-element occurrence counts of a data stream.

    Subclasses document which of the two bounds they provide:

    * lower bound:  ``actual <= estimate``  (conservative overestimate),
      required for deterministic RowHammer safety;
    * upper bound:  ``estimate <= actual + slack`` for a known ``slack``,
      required to *decrement* an estimate safely after a refresh.
    """

    @abc.abstractmethod
    def observe(self, element: Hashable, count: int = 1) -> None:
        """Record ``count`` occurrences of ``element``."""

    @abc.abstractmethod
    def estimate(self, element: Hashable) -> int:
        """Estimated occurrence count of ``element`` so far."""
