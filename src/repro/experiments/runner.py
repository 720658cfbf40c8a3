"""Shared machinery for the experiment drivers.

Workload construction and the per-(scheme, FlipTH) factories live in
the engine catalog (:mod:`repro.engine.catalog`); this module keeps the
aggregation helper and holds the experiment registry the CLI
dispatches through.
"""

from __future__ import annotations

import math
from typing import Sequence


def geo_mean(values: Sequence[float]) -> float:
    """Geometric mean, the paper's aggregation over workloads."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(v) for v in filtered) / len(filtered))


#: Experiment registry used by the CLI: id -> (module path, description).
EXPERIMENTS = {
    "fig2": ("repro.experiments.fig2", "RFM-Graphene vs ARR-Graphene safe FlipTH"),
    "fig6": ("repro.experiments.fig6", "Mithril configuration space"),
    "fig7": ("repro.experiments.fig7", "Adaptive refresh energy/AdTH sweep"),
    "fig8": ("repro.experiments.fig8", "lbm-style sweep access pattern"),
    "fig9": ("repro.experiments.fig9", "Mithril vs Mithril+ trade-off"),
    "fig10": ("repro.experiments.fig10", "RFM-compatible scheme comparison"),
    "fig11": ("repro.experiments.fig11", "Non-RFM scheme comparison"),
    "table4": ("repro.experiments.table4", "Per-bank table sizes"),
    "appendix_parfm": (
        "repro.experiments.appendix_parfm",
        "PARFM failure probability",
    ),
    "nonadjacent": (
        "repro.experiments.nonadjacent",
        "Section V-C non-adjacent RowHammer",
    ),
}


def run_experiment(name: str, **kwargs):
    """Run an experiment by id (the CLI entry point)."""
    import importlib

    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        )
    module = importlib.import_module(EXPERIMENTS[name][0])
    return module.run(**kwargs)
