"""repro — reproduction of Mithril (HPCA 2022).

Mithril is the first RFM-interface-compatible, deterministic RowHammer
protection scheme.  This package implements the scheme, its analytical
safety bounds, every baseline the paper compares against, and the DDR5
memory-system simulator the evaluation needs.

Quickstart (Mithril at its paper configuration for FlipTH 6.25K)::

    from repro import simulate
    from repro.engine.catalog import scheme_under_test
    from repro.workloads import mix_high

    factory, rfm_th = scheme_under_test("mithril", flip_th=6_250)
    result = simulate(mix_high(num_requests=2000), scheme_factory=factory,
                      rfm_th=rfm_th, flip_th=6_250)
    print(result.summary())
"""

from repro.core.bounds import adaptive_bound, estimated_growth_bound
from repro.core.config import MithrilConfig, min_entries_for, paper_default_config
from repro.core.mithril import MithrilScheme, MithrilTable
from repro.params import (
    DEFAULT_CONFIG,
    DramOrganization,
    DramTimings,
    PAPER_FLIP_THRESHOLDS,
    SystemConfig,
)
from repro.protection import ProtectionScheme
from repro.schemes import build_scheme, scheme_names
from repro.sim import SimulationResult, simulate
from repro.verify import run_safety_trace

__version__ = "1.0.0"

__all__ = [
    "MithrilScheme",
    "MithrilTable",
    "MithrilConfig",
    "ProtectionScheme",
    "build_scheme",
    "scheme_names",
    "estimated_growth_bound",
    "adaptive_bound",
    "min_entries_for",
    "paper_default_config",
    "simulate",
    "SimulationResult",
    "run_safety_trace",
    "DramTimings",
    "DramOrganization",
    "SystemConfig",
    "DEFAULT_CONFIG",
    "PAPER_FLIP_THRESHOLDS",
    "__version__",
]
