"""Figure 8: the lbm-style large-object-sweep pattern.

Reproduces the three panels as data series:

(a) accessed logical row over a large request window;
(b) the same over a small window (showing row-burst concentration);
(c) the *activated* rows in that small window after the row buffer
    filters hits (activations are what the RH tracker sees).

The summary statistics quantify the phenomenon Section V-A leans on:
accesses concentrate ~row-burst-sized runs on each row, so the
Mithril-table spread of benign workloads stays below ~100-200.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.synthetic import streaming_sweep_trace


def run(
    num_requests: int = 4_096,
    accesses_per_row: int = 128,
    small_window: int = 512,
    scale: float = 1.0,
) -> Dict:
    trace = streaming_sweep_trace(
        name="lbm-like",
        num_requests=int(num_requests * scale),
        accesses_per_row=accesses_per_row,
        footprint_rows=2_048,
        mean_gap=8.0,
        seed=8,
    )
    accessed = list(zip(trace.bank_index.tolist(), trace.row.tolist()))
    # Reconstruct the logical (pre-interleaving) row id for plotting,
    # matching the paper's y-axis of Figure 8(a).
    large_window = [row * 64 + bank for bank, row in accessed]
    small = accessed[:small_window]
    # Row-buffer filtering: an ACT happens when (bank, row) changes.
    activations = [
        pair for prev, pair in zip([None] + small[:-1], small) if pair != prev
    ]
    run_lengths = _run_lengths(small)
    return {
        "accessed_rows_large_window": large_window,
        "accessed_rows_small_window": [row for _b, row in small],
        "activated_rows_small_window": [row for _b, row in activations],
        "accesses_per_activation": (
            len(small) / max(1, len(activations))
        ),
        "mean_burst_length": (
            sum(run_lengths) / max(1, len(run_lengths))
        ),
        "max_burst_length": max(run_lengths) if run_lengths else 0,
        "distinct_rows_small_window": len(set(small)),
    }


def _run_lengths(pairs: List) -> List[int]:
    """Lengths of consecutive same-(bank, row) access runs."""
    lengths = []
    current = 1
    for previous, pair in zip(pairs, pairs[1:]):
        if pair == previous:
            current += 1
        else:
            lengths.append(current)
            current = 1
    lengths.append(current)
    return lengths


def print_rows(result: Dict) -> None:
    print(f"accesses per activation: {result['accesses_per_activation']:.1f}")
    print(f"mean access burst per row: {result['mean_burst_length']:.1f}")
    print(f"max access burst per row: {result['max_burst_length']}")
    print(
        "distinct rows in small window: "
        f"{result['distinct_rows_small_window']}"
    )
