"""Ablations of Mithril's design choices (DESIGN.md's list).

* greedy (MaxPtr) selection vs random vs round-robin victim choice;
* demote-to-min vs reset-to-zero after a preventive refresh;
* BLISS vs FR-FCFS interaction with RFM stalls;
* AdTH sensitivity beyond the paper's range.

Each ablation reports the safety headroom (max disturbance under a
worst-case adversary) or the performance cost, demonstrating *why* the
paper's choices are the right ones.
"""

import random

import pytest

from benchmarks.conftest import run_once
from repro.core.config import min_entries_for
from repro.core.mithril import MithrilScheme
from repro.verify.adversary import many_sided_stream, round_robin_stream
from repro.verify.safety import run_safety_trace

FLIP_TH = 3_125
RFM_TH = 64
ACTS = 120_000


class RandomSelectMithril(MithrilScheme):
    """Ablation: pick a random table entry instead of the maximum."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rng = random.Random(7)

    def on_rfm(self, cycle):
        self.stats.rfms_received += 1
        entries = list(self.table.items())
        if not entries:
            return []
        row, _count = entries[self._rng.randrange(len(entries))]
        self.table._summary.demote_to_min(row)
        victims = self._victims(row)
        self.stats.preventive_refresh_rows += len(victims)
        return victims


class RoundRobinSelectMithril(MithrilScheme):
    """Ablation: rotate through table slots instead of greedy max."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cursor = 0

    def on_rfm(self, cycle):
        self.stats.rfms_received += 1
        entries = sorted(self.table.items())
        if not entries:
            return []
        row, _count = entries[self._cursor % len(entries)]
        self._cursor += 1
        self.table._summary.demote_to_min(row)
        victims = self._victims(row)
        self.stats.preventive_refresh_rows += len(victims)
        return victims


def _headroom(scheme_cls, stream_factory):
    n = min_entries_for(FLIP_TH, RFM_TH)
    scheme = scheme_cls(n_entries=n, rfm_th=RFM_TH, counter_bits=62)
    report = run_safety_trace(
        scheme, stream_factory(), FLIP_TH, rfm_th=RFM_TH
    )
    return report


def test_ablation_greedy_selection_is_necessary(benchmark, save_rows):
    """Greedy MaxPtr selection beats random and round-robin selection
    against the tracker-thrashing adversary."""

    def study():
        stream = lambda: many_sided_stream(33, ACTS)
        return {
            "greedy": _headroom(MithrilScheme, stream).max_disturbance,
            "random": _headroom(RandomSelectMithril, stream).max_disturbance,
            "round-robin": _headroom(
                RoundRobinSelectMithril, stream
            ).max_disturbance,
        }

    result = run_once(benchmark, study)
    save_rows("ablation_selection", result)
    print(result)
    assert result["greedy"] < FLIP_TH
    assert result["greedy"] <= result["random"]
    assert result["greedy"] <= result["round-robin"]
    # Greedy should win by a wide margin against the concentrated attack.
    assert result["random"] > 2 * result["greedy"]


class ResetToZeroMithril(MithrilScheme):
    """Ablation: zero the refreshed entry instead of demote-to-min.

    Violates inequality (2): the entry's estimate drops below the bound
    needed to stay conservative for the *other* rows that shared its
    slot history, and the entry itself becomes the table minimum,
    letting an attacker cycle it out cheaply.
    """

    def on_rfm(self, cycle):
        self.stats.rfms_received += 1
        selected = self.table.greedy_select()
        if selected is None:
            return []
        row, count = selected
        summary = self.table._summary
        bucket_move = count  # force to zero via internal move
        summary._move(row, count, 0)
        victims = self._victims(row)
        self.stats.preventive_refresh_rows += len(victims)
        return victims


def test_ablation_demote_to_min_vs_reset_to_zero(benchmark, save_rows):
    """Why demote-to-min and not reset-to-zero (Section IV-B)?

    Zeroing pins the table minimum at 0, so the adaptive-refresh signal
    (max - min) stays artificially large on benign traffic and the
    energy-saving skip of Section V-A stops firing.  Demote-to-min
    keeps the minimum rising with the stream, letting benign runs skip
    almost every preventive refresh.  Both variants stay safe.
    """

    def study():
        from repro.verify.adversary import random_stream

        n = min_entries_for(FLIP_TH, RFM_TH, adaptive_th=200)
        rows = {}
        for name, cls in (
            ("demote-to-min", MithrilScheme),
            ("reset-to-zero", ResetToZeroMithril),
        ):
            scheme = cls(
                n_entries=n, rfm_th=RFM_TH, adaptive_th=200,
                counter_bits=62,
            )
            report = run_safety_trace(
                scheme,
                random_stream(4 * n, ACTS, seed=13),
                FLIP_TH,
                rfm_th=RFM_TH,
            )
            total = scheme.stats.rfms_received or 1
            rows[name] = {
                "max_disturbance": report.max_disturbance,
                "preventive_rows": report.preventive_refresh_rows,
                "skip_rate": scheme.stats.rfms_skipped / total,
            }
        return rows

    result = run_once(benchmark, study)
    save_rows("ablation_decrement", result)
    print(result)
    for variant in result.values():
        assert variant["max_disturbance"] < FLIP_TH
    # Demote-to-min preserves the adaptive skip on benign traffic...
    assert result["demote-to-min"]["skip_rate"] > 0.5
    # ...and therefore refreshes far less than the zeroing variant.
    assert (
        result["demote-to-min"]["preventive_rows"]
        < result["reset-to-zero"]["preventive_rows"]
    )


def test_ablation_adth_sensitivity(benchmark, save_rows):
    """Pushing AdTH far above the paper's range erodes the bound:
    Theorem 2's required table grows quickly."""

    def study():
        return {
            adth: min_entries_for(FLIP_TH, RFM_TH, adth)
            for adth in (0, 100, 200, 400, 800, 1600)
        }

    result = run_once(benchmark, study)
    save_rows("ablation_adth", result)
    print(result)
    sizes = [v for v in result.values() if v is not None]
    assert sizes == sorted(sizes)
    assert result[1600] is None or result[1600] > 1.5 * result[0]


def test_ablation_scheduler_interaction(benchmark, save_rows, repro_scale):
    """RFM stalls cost more under FR-FCFS than BLISS-style batching is
    not guaranteed; what matters is both stay small (< a few %)."""
    from repro.params import SystemConfig
    from repro.schemes import paper_config, scheme_factory
    from repro.sim.system import simulate
    from repro.workloads.spec_like import mix_high

    def study():
        params, rfm_th = paper_config("mithril", 3_125)
        traces = mix_high(4, int(1200 * repro_scale) + 64, 16, seed=77)
        rows = {}
        for scheduler in ("bliss", "frfcfs"):
            system_config = SystemConfig(scheduler=scheduler)
            base = simulate(traces, config=system_config)
            result = simulate(
                traces,
                scheme_factory=scheme_factory("mithril", **params),
                rfm_th=rfm_th,
                flip_th=3_125,
                config=system_config,
            )
            rows[scheduler] = round(result.relative_performance(base), 3)
        return rows

    result = run_once(benchmark, study)
    save_rows("ablation_scheduler", result)
    print(result)
    for scheduler, rel in result.items():
        assert rel > 93.0, f"{scheduler}: {rel}"
