"""ACT-stream characterization of traces and workloads.

The metrics that decide how a workload stresses a RowHammer mitigation
(BlockHammer and Graphene both rank differently at the extremes of
these axes):

* **row locality** — burst lengths (consecutive same-(bank, row)
  requests) and their CDF: what fraction of requests live in bursts of
  at most 1, 2, 4, ... accesses.  Short bursts mean every access is an
  ACT; long bursts amortize one ACT over a whole row sweep.
* **ACT-per-access** — the idealized open-row-buffer miss rate of the
  merged stream (the amplification Figure 8 reasons about).
* **bank pressure** — per-bank imbalance (busiest bank over the mean
  of the banks touched) and the busiest channel's request share under
  the active organization's flat-bank-to-channel fold.
* **hot-row skew** — the top-1 and top-8 (bank, row) shares of the
  stream; what per-row trackers and blacklists key on.
* **MPKI proxy** — memory requests per kilo-instruction from the
  traces' own instruction counts (generated traces carry real gap
  proxies; ingested CSV traces inherit gap-derived counts).

:func:`characterize_workload` merges per-core traces round-robin
(:func:`~repro.workloads.trace.interleave_round_robin`, an arrival
interleaving approximation) so aggregate numbers describe what the
memory controller sees, while :func:`characterize_trace` scores a
single core in isolation.  :func:`expected_tracker_spread` turns a
characterization into the first-order Mithril-table spread prediction
of Section V-A (Figure 8).

The new stress families (:mod:`repro.traces.families`) assert their
design targets against these exact metrics, so the characterization
doubles as the families' regression harness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.params import DEFAULT_CONFIG, DramOrganization
from repro.workloads.trace import (
    CoreTrace,
    TraceEntry,
    interleave_round_robin,
)

#: Burst-length buckets of the row-locality CDF.
CDF_POINTS = (1, 2, 4, 8, 16, 32)


@dataclass
class TraceCharacterization:
    """Characterization of one request stream (a core or a merge)."""

    name: str
    requests: int
    write_fraction: float
    total_instructions: int
    mpki_proxy: float               #: requests per 1000 instructions
    footprint_rows: int             #: distinct (bank, row) locations
    banks_touched: int
    bank_imbalance: float           #: max/mean requests per touched bank
    channel_share_top: float        #: busiest channel's request share
    act_per_access: float           #: open-row-model miss rate
    mean_burst_length: float
    max_burst_length: int
    row_locality_cdf: Dict[int, float]  #: P(request in burst <= k)
    hot_row_top1_share: float
    hot_row_top8_share: float

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "requests": self.requests,
            "write_fraction": round(self.write_fraction, 4),
            "total_instructions": self.total_instructions,
            "mpki_proxy": round(self.mpki_proxy, 2),
            "footprint_rows": self.footprint_rows,
            "banks_touched": self.banks_touched,
            "bank_imbalance": round(self.bank_imbalance, 3),
            "channel_share_top": round(self.channel_share_top, 4),
            "act_per_access": round(self.act_per_access, 4),
            "mean_burst_length": round(self.mean_burst_length, 2),
            "max_burst_length": self.max_burst_length,
            "row_locality_cdf": {
                k: round(v, 4) for k, v in self.row_locality_cdf.items()
            },
            "hot_row_top1_share": round(self.hot_row_top1_share, 4),
            "hot_row_top8_share": round(self.hot_row_top8_share, 4),
        }


def _characterize_entries(
    name: str,
    entries: Sequence[TraceEntry],
    total_instructions: int,
    organization: Optional[DramOrganization] = None,
) -> TraceCharacterization:
    if not entries:
        raise ValueError(f"stream {name!r} contains no requests")
    org = organization or DEFAULT_CONFIG.organization
    total_banks = org.total_banks
    banks_per_channel = org.ranks_per_channel * org.banks_per_rank

    locations = [(e.bank_index % total_banks, e.row) for e in entries]
    row_counts = Counter(locations)
    bank_counts = Counter(bank for bank, _row in locations)
    channel_counts = Counter(
        bank // banks_per_channel for bank in bank_counts.elements()
    )

    # burst lengths over the merged stream, then the request-weighted
    # CDF: a burst of length L contributes L requests to every bucket
    # k >= L.
    bursts: List[int] = []
    run = 1
    for previous, location in zip(locations, locations[1:]):
        if location == previous:
            run += 1
        else:
            bursts.append(run)
            run = 1
    bursts.append(run)
    total = len(entries)
    cdf = {
        k: sum(length for length in bursts if length <= k) / total
        for k in CDF_POINTS
    }

    open_row: Dict[int, int] = {}
    misses = 0
    for bank, row in locations:
        if open_row.get(bank) != row:
            misses += 1
        open_row[bank] = row

    top = row_counts.most_common(8)
    writes = sum(1 for e in entries if e.is_write)
    mean_per_bank = total / max(1, len(bank_counts))
    return TraceCharacterization(
        name=name,
        requests=total,
        write_fraction=writes / total,
        total_instructions=total_instructions,
        mpki_proxy=1000.0 * total / max(1, total_instructions),
        footprint_rows=len(row_counts),
        banks_touched=len(bank_counts),
        bank_imbalance=max(bank_counts.values()) / mean_per_bank,
        channel_share_top=max(channel_counts.values()) / total,
        act_per_access=misses / total,
        mean_burst_length=sum(bursts) / len(bursts),
        max_burst_length=max(bursts),
        row_locality_cdf=cdf,
        hot_row_top1_share=top[0][1] / total,
        hot_row_top8_share=sum(count for _loc, count in top) / total,
    )


def characterize_trace(
    trace: CoreTrace,
    organization: Optional[DramOrganization] = None,
) -> TraceCharacterization:
    """Characterize one core's stream in isolation."""
    return _characterize_entries(
        trace.name, list(trace), trace.total_instructions, organization
    )


def characterize_workload(
    traces: Iterable[CoreTrace],
    organization: Optional[DramOrganization] = None,
    name: str = "workload",
) -> TraceCharacterization:
    """Characterize the round-robin merge of a multi-core workload."""
    traces = list(traces)
    return _characterize_entries(
        name,
        interleave_round_robin(traces),
        sum(t.total_instructions for t in traces),
        organization,
    )


def characterize_traceset(
    traceset,
    organization: Optional[DramOrganization] = None,
) -> Tuple[TraceCharacterization, List[TraceCharacterization]]:
    """(aggregate, per-core) characterizations of a TraceSet."""
    aggregate = characterize_workload(
        traceset.traces, organization, name=traceset.name
    )
    per_core = [
        characterize_trace(trace, organization) for trace in traceset.traces
    ]
    return aggregate, per_core


def expected_tracker_spread(
    char: TraceCharacterization, rfm_th: int
) -> float:
    """First-order prediction of the Mithril-table spread a workload
    builds between RFMs: bounded by its burst concentration.

    A benign workload's spread stays near its typical per-row burst
    (the Section V-A observation that ~128-access sweeps keep spread
    under AdTH ~ 200); a hot-row workload's spread grows toward
    ``hot_row_top1_share * rfm_th`` per interval, accumulating if the
    row stays resident.
    """
    return max(char.mean_burst_length, char.hot_row_top1_share * rfm_th)
