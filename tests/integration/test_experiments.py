"""Integration: every experiment driver runs end-to-end at tiny scale.

The benches assert the paper's shapes at full size; these tests only
verify the drivers execute, return well-formed rows, and stay wired to
the registry and the CLI.
"""

import inspect

import pytest

from repro.engine import build_workload, normal_workload_specs
from repro.experiments import (
    appendix_parfm,
    fig2,
    fig6,
    fig8,
    fig9,
    fig11,
    nonadjacent,
    table4,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    driver,
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
        rows = run_experiment("fig7", configs=((6_250, 64),),
                              adth_values=(0, 200), scale=TINY)
        assert len(rows) == 2
        assert rows[0]["adth"] == 0

    def test_fig8(self):
        result = fig8.run(num_requests=1_024)
        assert result["accesses_per_activation"] > 1

    def test_fig9(self):
        rows = run_experiment("fig9", sweep=((6_250, 128),), scale=TINY)
        assert rows[0]["feasible"]

    def test_fig10(self):
        rows = run_experiment(
            "fig10", flip_thresholds=(6_250,), schemes=("mithril",),
            scale=TINY, attack_seeds=(31,),
        )
        assert rows[0]["scheme"] == "mithril"
        assert 0 < rows[0]["normal_rel_perf_pct"] <= 110

    def test_fig11(self):
        rows = run_experiment(
            "fig11", flip_thresholds=(6_250,), schemes=("graphene",),
            scale=TINY,
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


class TestDriverProtocol:
    """A driver is a plan plus its row reduction, or an analytic run."""

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_driver_exports_one_kind_of_entry(self, name):
        module = driver(name)
        planned = hasattr(module, "build_plan")
        assert planned == hasattr(module, "rows")
        assert planned != hasattr(module, "run")
        assert callable(module.print_rows)
        if not planned:
            params = inspect.signature(module.run).parameters
            assert "n_jobs" not in params
            assert "use_cache" not in params

    def test_analytic_driver_ignores_engine_knobs(self):
        assert run_experiment(
            "fig6", n_jobs=4, use_cache=False,
            flip_thresholds=(6250,), rfm_th_values=(64,),
        ) == fig6.run(flip_thresholds=(6250,), rfm_th_values=(64,))


#: Synthetic rows in the drivers' own order: main rows, then two panels.
FIG9_ROWS = [
    {"flip_th": 6250, "rfm_th": 128, "feasible": True, "n_entries": 411,
     "table_kb": 1.027, "mithril_rel_perf_pct": 99.412,
     "mithril_plus_rel_perf_pct": 100.0},
    {"flip_th": 1500, "rfm_th": 256, "feasible": False},
    {"flip_th": 6250, "rfm_th": 128, "panel": "capacity-pressure",
     "mithril_rel_perf_pct": 98.5, "mithril_plus_rel_perf_pct": 99.9},
    {"flip_th": 6250, "rfm_th": 128, "panel": "row-conflict-heavy",
     "mithril_rel_perf_pct": 97.25, "mithril_plus_rel_perf_pct": 100.0},
]
FIG11_ROWS = [
    {"flip_th": 6250, "scheme": "graphene", "normal_rel_perf_pct": 99.8,
     "multi_sided_rel_perf_pct": 97.1, "normal_energy_overhead_pct": 0.12},
    {"flip_th": 6250, "scheme": "mithril", "normal_rel_perf_pct": 99.4,
     "multi_sided_rel_perf_pct": 95.25, "normal_energy_overhead_pct": 0.5},
    {"flip_th": 6250, "scheme": "graphene", "panel": "capacity-pressure",
     "rel_perf_pct": 99.0, "energy_overhead_pct": 0.2},
    {"flip_th": 6250, "scheme": "mithril", "panel": "capacity-pressure",
     "rel_perf_pct": 98.0, "energy_overhead_pct": 0.3},
    {"flip_th": 6250, "scheme": "graphene", "panel": "row-conflict-heavy",
     "rel_perf_pct": 96.5, "energy_overhead_pct": 1.25},
    {"flip_th": 6250, "scheme": "mithril", "panel": "row-conflict-heavy",
     "rel_perf_pct": 95.0, "energy_overhead_pct": 0.75},
]


class TestPrintRows:
    """The terminal tables: main rows first, then one panel table."""

    def test_fig9(self, capsys):
        fig9.print_rows(FIG9_ROWS)
        assert capsys.readouterr().out == (
            " FlipTH  RFM_TH       KB  Mithril%  Mithril+%\n"
            "   6250     128    1.027    99.412      100.0\n"
            "   1500     256 infeasible\n"
            "\n"
            "panel                       FlipTH  RFM_TH  Mithril%  Mithril+%\n"
            "capacity-pressure             6250     128      98.5       99.9\n"
            "row-conflict-heavy            6250     128     97.25      100.0\n"
        )

    def test_fig11(self, capsys):
        fig11.print_rows(FIG11_ROWS)
        assert capsys.readouterr().out == (
            " FlipTH     scheme   normal%  multiRH%   E-ovh%\n"
            "   6250   graphene      99.8      97.1     0.12\n"
            "   6250    mithril      99.4     95.25      0.5\n"
            "\n"
            "panel                       FlipTH     scheme    perf%   E-ovh%\n"
            "capacity-pressure             6250   graphene     99.0      0.2\n"
            "capacity-pressure             6250    mithril     98.0      0.3\n"
            "row-conflict-heavy            6250   graphene     96.5     1.25\n"
            "row-conflict-heavy            6250    mithril     95.0     0.75\n"
        )


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
