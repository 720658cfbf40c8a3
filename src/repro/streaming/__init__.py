"""Streaming (frequent-items) structures the RowHammer trackers build on.

The Mithril paper classifies deterministic RH trackers by the streaming
algorithm they build on (Table I).  This package holds the two that
trackers in this repo use, each documenting the estimated-count bounds
it guarantees:

* Counter-based Summary (Misra-Gries / Space-Saving,
  :class:`CounterSummary`) — Mithril, Mithril+, Graphene and
  RFM-Graphene
* Dual counting Bloom filters (:class:`DualCountingBloomFilter`) —
  BlockHammer

TWiCe keeps its own pruned table (:mod:`repro.mitigations.twice`) and
CBT its counter tree (:mod:`repro.mitigations.cbt`); Figure 6's
Lossy-Counting rows come from the analytic
:func:`repro.core.config.lossy_counting_entries`.
"""

from repro.streaming.base import FrequencyEstimator
from repro.streaming.cbs import CounterSummary
from repro.streaming.counting_bloom import (
    CountingBloomFilter,
    DualCountingBloomFilter,
)

__all__ = [
    "FrequencyEstimator",
    "CounterSummary",
    "CountingBloomFilter",
    "DualCountingBloomFilter",
]
