"""Adversary fuzzer: randomized search for protection-breaking patterns.

Rather than trusting a fixed attack zoo, the fuzzer samples structured
random ACT patterns — mixtures of hammering bursts, rotations, feints
and noise — replays each against a scheme, and keeps the pattern that
maximized victim disturbance.  The integration suite runs it against
Mithril to probe the Theorem-1 guarantee from many angles; downstream
users can point it at their own schemes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.params import DramTimings
from repro.protection import ProtectionScheme
from repro.verify.safety import SafetyReport, run_safety_trace


@dataclass(frozen=True)
class FuzzPattern:
    """A generated attack pattern (reproducible from its genome)."""

    name: str
    rows: Tuple[int, ...]
    schedule: str          #: "round-robin" | "bursts" | "weighted"
    burst_length: int = 1
    weights: Tuple[float, ...] = ()

    def stream(self, total_acts: int) -> Iterator[int]:
        if self.schedule == "round-robin":
            for i in range(total_acts):
                yield self.rows[i % len(self.rows)]
        elif self.schedule == "bursts":
            emitted = 0
            while emitted < total_acts:
                for row in self.rows:
                    for _ in range(self.burst_length):
                        if emitted >= total_acts:
                            return
                        yield row
                        emitted += 1
        elif self.schedule == "weighted":
            rng = random.Random(hash(self.rows) & 0xFFFF)
            population = list(self.rows)
            weights = list(self.weights) or [1.0] * len(population)
            for _ in range(total_acts):
                yield rng.choices(population, weights=weights, k=1)[0]
        else:
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass
class FuzzResult:
    pattern: FuzzPattern
    report: SafetyReport

    @property
    def disturbance_ratio(self) -> float:
        return self.report.max_disturbance / self.report.flip_th


def _random_pattern(rng: random.Random, rows_per_bank: int) -> FuzzPattern:
    base = rng.randrange(16, rows_per_bank - 4096)
    num_rows = rng.choice([2, 3, 8, 33, 129, 512, 1025])
    spacing = rng.choice([1, 2, 3, 8])
    rows = tuple(
        (base + spacing * i) % (rows_per_bank - 2) + 1
        for i in range(num_rows)
    )
    schedule = rng.choice(["round-robin", "bursts", "weighted"])
    burst = rng.choice([1, 4, 16, 64, 128])
    weights: Tuple[float, ...] = ()
    if schedule == "weighted":
        weights = tuple(rng.random() + 0.01 for _ in rows)
    return FuzzPattern(
        name=f"{schedule}-{num_rows}rows-s{spacing}-b{burst}",
        rows=rows,
        schedule=schedule,
        burst_length=burst,
        weights=weights,
    )


def fuzz_scheme(
    scheme_factory: Callable[[], ProtectionScheme],
    flip_th: int,
    rfm_th: int,
    iterations: int = 20,
    acts_per_pattern: int = 60_000,
    seed: int = 1337,
    rows_per_bank: int = 65536,
    timings: Optional[DramTimings] = None,
    blast_weights=(1.0,),
) -> List[FuzzResult]:
    """Replay ``iterations`` random patterns; worst disturbance first."""
    rng = random.Random(seed)
    results = []
    for _ in range(iterations):
        pattern = _random_pattern(rng, rows_per_bank)
        scheme = scheme_factory()
        report = run_safety_trace(
            scheme,
            pattern.stream(acts_per_pattern),
            flip_th,
            rfm_th=rfm_th,
            timings=timings,
            blast_weights=blast_weights,
        )
        results.append(FuzzResult(pattern=pattern, report=report))
    results.sort(key=lambda r: -r.report.max_disturbance)
    return results


def worst_case(results: List[FuzzResult]) -> FuzzResult:
    if not results:
        raise ValueError("no fuzz results")
    return results[0]
