"""Experiment drivers: one module per table/figure of the paper.

Each module is imported on first use: :func:`driver` looks one up by
id, and :func:`run_experiment` runs one (the driver protocol is in
:mod:`repro.experiments.runner`) and returns plain dict/list rows that
the benchmark harness prints and EXPERIMENTS.md records.  All but the
three analytic tables (fig6, table4, appendix_parfm) take a ``scale``
knob: 1.0 reproduces the default (CI-sized) runs; larger values
lengthen traces for tighter statistics.
"""

from repro.experiments.runner import (
    EXPERIMENTS,
    driver,
    geo_mean,
    run_experiment,
)

__all__ = ["EXPERIMENTS", "driver", "run_experiment", "geo_mean"]
