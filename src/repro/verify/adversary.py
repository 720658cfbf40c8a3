"""Adversarial ACT-stream generators for the safety checker.

These are *streams of row indices*, not timed traces: the safety
checker assumes the attacker activates at the maximum rate.

The patterns cover the attack space the paper's proofs address:

* :func:`double_sided_stream` — the strongest attack on one victim;
* :func:`many_sided_stream` — TRRespass-style rotations;
* :func:`round_robin_stream` — tracker-thrashing with more rows than
  table entries (the concentration scenario behind Theorem 1);
* :func:`feinting_stream` — builds up many near-threshold rows, then
  hammers them all (the pattern that breaks RFM-Graphene, Figure 2);
* :func:`random_stream` — baseline noise.
"""

from __future__ import annotations

import random
from typing import Iterator


def double_sided_stream(
    victim_row: int, total_acts: int
) -> Iterator[int]:
    for i in range(total_acts):
        yield victim_row - 1 if i % 2 == 0 else victim_row + 1


def many_sided_stream(
    num_aggressors: int,
    total_acts: int,
    base_row: int = 2000,
    spacing: int = 2,
) -> Iterator[int]:
    rows = [base_row + spacing * i for i in range(num_aggressors)]
    for i in range(total_acts):
        yield rows[i % num_aggressors]


def round_robin_stream(
    num_rows: int,
    total_acts: int,
    base_row: int = 4000,
    spacing: int = 2,
) -> Iterator[int]:
    rows = [base_row + spacing * i for i in range(num_rows)]
    for i in range(total_acts):
        yield rows[i % num_rows]


def feinting_stream(
    num_rows: int,
    acts_per_round: int,
    rounds: int,
    base_row: int = 8000,
    spacing: int = 2,
) -> Iterator[int]:
    """Raise ``num_rows`` rows in lockstep: ``acts_per_round`` each, in
    row-major rounds — every round ends with all rows equally hot, the
    worst case for threshold-buffered schemes."""
    rows = [base_row + spacing * i for i in range(num_rows)]
    for _ in range(rounds):
        for row in rows:
            for _ in range(acts_per_round):
                yield row


def half_double_stream(
    victim_row: int,
    total_acts: int,
    far_fraction: float = 0.9,
) -> Iterator[int]:
    """Half-Double-style pattern (Google, 2021): hammer the rows at
    distance 2 from the victim hard, with occasional distance-1
    accesses.  Only matters under a blast range >= 2 — the pattern the
    paper's Section V-C configuration must absorb."""
    far = (victim_row - 2, victim_row + 2)
    near = (victim_row - 1, victim_row + 1)
    period = max(2, int(1.0 / max(1e-9, 1.0 - far_fraction)))
    for i in range(total_acts):
        if i % period == period - 1:
            yield near[i % 2]
        else:
            yield far[i % 2]


def random_stream(
    num_rows: int,
    total_acts: int,
    base_row: int = 0,
    seed: int = 99,
) -> Iterator[int]:
    rng = random.Random(seed)
    for _ in range(total_acts):
        yield base_row + rng.randrange(num_rows)
