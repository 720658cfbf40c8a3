"""Simulation backend selection: ``scalar`` (default) vs ``turbo``.

The two backends are *byte-identical in results* — the golden suite
runs every scheme × workload pair under both — and differ only in how
the event loop executes:

* ``scalar`` — the reference implementation in
  :class:`repro.sim.system.SimulatedSystem`; pure python, runs
  anywhere, the patch-friendly path every unit test exercises.
* ``turbo`` — :class:`repro.sim.turbo.TurboSimulatedSystem`;
  pre-decodes traces into numpy structure-of-arrays and fuses the
  per-event call chain into an epoch-batched drain loop.

Selection: the ``backend=`` argument of
:func:`repro.sim.system.simulate` wins, else the
``REPRO_SIM_BACKEND`` environment variable, else ``scalar``.

The backend is an implementation detail, **not** a result dimension:
job hashes and cache payloads are independent of it (asserted by
tests/unit/test_backend.py).
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "REPRO_SIM_BACKEND"

SCALAR = "scalar"
TURBO = "turbo"
BACKENDS = (SCALAR, TURBO)


def resolve_backend(requested: Optional[str] = None) -> str:
    """The backend to run: explicit request > env var > scalar.

    Unknown names raise.
    """
    name = requested or os.environ.get(BACKEND_ENV) or SCALAR
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"use one of {', '.join(BACKENDS)}"
        )
    return name
