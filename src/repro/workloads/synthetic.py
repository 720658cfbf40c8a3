"""Base synthetic trace generators.

Three access primitives cover the behaviours the paper's workloads
exhibit:

* :func:`streaming_sweep_trace` — the lbm-style "large object sweep"
  of Figure 8: sequential sweep over a big footprint, concentrated
  per-row bursts, bank-interleaved;
* :func:`random_access_trace` — PageRank-style irregular accesses with
  almost no row locality (every access is an ACT);
* :func:`strided_trace` — FFT/RADIX-style strided phases.

All generators are deterministic in their ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.trace import CoreTrace


def _gaps(rng, n: int, mean_gap: float) -> np.ndarray:
    """Integer inter-request gaps with an exponential distribution.

    One sized ``exponential`` draw, truncated toward zero per element,
    clamped at zero.  ``mean_gap <= 0`` draws nothing.
    """
    if mean_gap <= 0:
        return np.zeros(n, dtype=np.int64)
    return np.maximum(rng.exponential(mean_gap, size=n).astype(np.int64), 0)


def streaming_sweep_trace(
    name: str = "sweep",
    num_requests: int = 4000,
    num_banks: int = 64,
    rows_per_bank: int = 65536,
    accesses_per_row: int = 16,
    footprint_rows: int = 2048,
    mean_gap: float = 24.0,
    write_fraction: float = 0.3,
    start_row: int = 0,
    seed: int = 1,
) -> CoreTrace:
    """Sequential sweep: bursts of accesses per row, rows striped on banks."""
    if accesses_per_row <= 0:
        raise ValueError("accesses_per_row must be positive")
    rng = np.random.default_rng(seed)
    gaps = _gaps(rng, num_requests, mean_gap)
    writes = rng.random(num_requests) < write_fraction
    i = np.arange(num_requests)
    logical_row = start_row + (i // accesses_per_row) % footprint_rows
    return CoreTrace(
        name,
        gap_cycles=gaps,
        bank_index=logical_row % num_banks,
        row=(logical_row // num_banks) % rows_per_bank,
        column=i % accesses_per_row,
        is_write=writes,
        instructions=gaps + 1,
        memory_intensive=mean_gap < 64,
    )


def random_access_trace(
    name: str = "random",
    num_requests: int = 4000,
    num_banks: int = 64,
    rows_per_bank: int = 65536,
    footprint_rows: int = 65536,
    mean_gap: float = 32.0,
    write_fraction: float = 0.2,
    seed: int = 2,
) -> CoreTrace:
    """Uniform random rows: near-zero locality, one ACT per access."""
    rng = np.random.default_rng(seed)
    gaps = _gaps(rng, num_requests, mean_gap)
    logical = rng.integers(0, footprint_rows, size=num_requests)
    columns = rng.integers(0, 128, size=num_requests)
    writes = rng.random(num_requests) < write_fraction
    return CoreTrace(
        name,
        gap_cycles=gaps,
        bank_index=logical % num_banks,
        row=(logical // num_banks) % rows_per_bank,
        column=columns,
        is_write=writes,
        instructions=gaps + 1,
        memory_intensive=mean_gap < 64,
    )


def strided_trace(
    name: str = "strided",
    num_requests: int = 4000,
    num_banks: int = 64,
    rows_per_bank: int = 65536,
    stride_rows: int = 8,
    phase_length: int = 512,
    footprint_rows: int = 4096,
    mean_gap: float = 28.0,
    write_fraction: float = 0.4,
    seed: int = 3,
) -> CoreTrace:
    """Strided phases: FFT butterflies / radix-sort scatter behaviour.

    Every phase after the first restarts the stride at a random
    position, drawn with one scalar ``integers`` call per phase (a
    sized draw would not reproduce that stream).
    """
    rng = np.random.default_rng(seed)
    gaps = _gaps(rng, num_requests, mean_gap)
    writes = rng.random(num_requests) < write_fraction
    phases = -(-num_requests // phase_length)
    starts = [0] + [
        int(rng.integers(0, footprint_rows)) for _ in range(1, phases)
    ]
    i = np.arange(num_requests)
    logical = (
        np.array(starts, dtype=np.int64)[i // phase_length]
        + (i % phase_length) * stride_rows
    ) % footprint_rows
    return CoreTrace(
        name,
        gap_cycles=gaps,
        bank_index=logical % num_banks,
        row=(logical // num_banks) % rows_per_bank,
        column=i % 64,
        is_write=writes,
        instructions=gaps + 1,
        memory_intensive=mean_gap < 64,
    )
