"""Simulation backend selection: ``turbo`` (default) vs ``scalar``.

The two backends are *byte-identical in results* — the golden suite
runs every scheme × workload pair under both — and differ only in how
the event loop executes:

* ``turbo`` — :class:`repro.sim.turbo.TurboSimulatedSystem`, the one
  that runs unless asked otherwise; reads windows of the trace
  columns instead of entry objects, fuses the per-event call chain
  into an epoch-batched drain loop, and inlines the stock trackers'
  per-ACT updates on each bank's own objects.  Systems whose banks
  all run ``none`` or Mithril / Mithril+ on stock components drain in
  the native C kernel (:mod:`repro.sim.kernel`) instead; the python
  drains run everything else, and every system when the kernel cannot
  be built.
* ``scalar`` — the reference implementation in
  :class:`repro.sim.system.SimulatedSystem`; the plain event loop the
  golden and cross-backend tests compare turbo against, and the
  patch-friendly path (it honors components monkeypatched after the
  system is built).

Selection: the ``backend=`` argument of
:func:`repro.sim.system.simulate` wins, else the
``REPRO_SIM_BACKEND`` environment variable, else ``turbo``.

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
    """The backend to run: explicit request > env var > turbo.

    Unknown names raise.
    """
    name = requested or os.environ.get(BACKEND_ENV) or TURBO
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"use one of {', '.join(BACKENDS)}"
        )
    return name
