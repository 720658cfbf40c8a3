"""Integration: every experiment driver runs end-to-end at tiny scale.

The benches assert the paper's shapes at full size; these tests only
verify the drivers execute, return well-formed rows, and stay wired to
the registry and the CLI.
"""

import pytest

from repro.engine import build_workload, normal_workload_specs
from repro.experiments import (
    appendix_parfm,
    fig2,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    nonadjacent,
    table4,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    geo_mean,
    run_experiment,
)

TINY = 0.1


class TestDrivers:
    def test_fig2(self):
        rows = fig2.run(thresholds=(2_000, 500))
        assert len(rows) == 2
        assert all("arr_graphene_safe_flip_th" in row for row in rows)

    def test_fig6(self):
        rows = fig6.run(flip_thresholds=(6_250,), rfm_th_values=(64, 128))
        assert any(row["algorithm"] == "lossy-counting" for row in rows)

    def test_fig7(self):
        rows = fig7.run(configs=((6_250, 64),), adth_values=(0, 200),
                        scale=TINY)
        assert len(rows) == 2
        assert rows[0]["adth"] == 0

    def test_fig8(self):
        result = fig8.run(num_requests=1_024)
        assert result["accesses_per_activation"] > 1

    def test_fig9(self):
        rows = fig9.run(sweep=((6_250, 128),), scale=TINY)
        assert rows[0]["feasible"]

    def test_fig10(self):
        rows = fig10.run(
            flip_thresholds=(6_250,), schemes=("mithril",), scale=TINY,
            attack_seeds=(31,),
        )
        assert rows[0]["scheme"] == "mithril"
        assert 0 < rows[0]["normal_rel_perf_pct"] <= 110

    def test_fig11(self):
        rows = fig11.run(
            flip_thresholds=(6_250,), schemes=("graphene",), scale=TINY
        )
        assert rows[0]["scheme"] == "graphene"

    def test_table4(self):
        table = table4.run()
        assert "Graphene @ MC" in table

    def test_appendix(self):
        rows = appendix_parfm.run(flip_thresholds=(6_250,))
        assert rows[0]["parfm_rfm_th"] is not None

    def test_nonadjacent(self):
        rows = nonadjacent.run(flip_thresholds=(6_250,), acts=20_000)
        assert rows[0]["nonadjacent_entries"] > rows[0]["adjacent_entries"]


class TestRegistry:
    def test_all_experiments_registered(self):
        for name in ("fig2", "fig6", "fig7", "fig8", "fig9", "fig10",
                     "fig11", "table4", "appendix_parfm", "nonadjacent"):
            assert name in EXPERIMENTS

    def test_run_experiment_dispatch(self):
        rows = run_experiment("fig2")
        assert rows

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestRunnerHelpers:
    def test_geo_mean(self):
        assert geo_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geo_mean([]) == 0.0
        assert geo_mean([0.0, 5.0]) == pytest.approx(5.0)

    def test_normal_workload_specs_shape(self):
        workloads = {
            name: build_workload(spec)
            for name, spec in normal_workload_specs(
                scale=TINY, num_cores=2
            ).items()
        }
        assert set(workloads) == {
            "mix-high", "mix-blend", "fft", "radix", "pagerank",
        }
        assert all(len(traces) == 2 for traces in workloads.values())
