"""Experiment drivers: one module per table/figure of the paper.

Each module exposes a ``run(...)`` returning plain dict/list rows that
the benchmark harness prints and EXPERIMENTS.md records.  All drivers
accept a ``scale`` knob: 1.0 reproduces the default (CI-sized) runs;
larger values lengthen traces for tighter statistics.
"""

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

__all__ = [
    "fig2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table4",
    "appendix_parfm",
    "nonadjacent",
    "EXPERIMENTS",
    "run_experiment",
    "geo_mean",
]
