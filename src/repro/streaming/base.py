"""Common interface for the frequent-items estimators."""

from __future__ import annotations

import abc
from typing import Hashable, List


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

    def observe_many(self, elements, count: int = 1) -> None:
        """Record ``count`` occurrences of each element of an iterable.

        Semantically ``for e in elements: observe(e, count)``.
        """
        for element in elements:
            self.observe(element, count)

    def estimate_many(self, elements) -> List[int]:
        """Estimates for each element, as a list.

        Semantically ``[estimate(e) for e in elements]``.
        """
        return [self.estimate(element) for element in elements]
