"""Simulation backend selection: ``native`` (default) vs ``python``.

The two backends are *byte-identical in results* — the golden suite
runs every scheme × workload pair under both — and differ only in
which drain runs the event loop of
:class:`repro.sim.system.SimulatedSystem`:

* ``native`` — the one that runs unless asked otherwise: a system the C
  kernel covers (:func:`repro.sim.kernel.pack` decides: stock
  components, no instance-patched hook, a pristine state, no probe, no
  cycle limit) drains in the kernel, and everything else in the
  python loop, as does every system on a host where the kernel cannot
  be built (one warning per process).
* ``python`` — always the python reference loop; the one the kernel is
  compared against, and the path for code that patches a stock class
  as a whole (the kernel honors only instance-level patches).

Selection: the ``backend=`` argument of
:func:`repro.sim.system.simulate` / ``make_system`` wins, else the
``REPRO_SIM_BACKEND`` environment variable, else ``native``.

The backend is an implementation detail, **not** a result dimension:
job hashes and cache payloads are independent of it (asserted by
tests/unit/test_backend.py).
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "REPRO_SIM_BACKEND"

NATIVE = "native"
PYTHON = "python"
BACKENDS = (NATIVE, PYTHON)


def resolve_backend(requested: Optional[str] = None) -> str:
    """The backend to run: explicit request > env var > native.

    Unknown names raise.
    """
    name = requested or os.environ.get(BACKEND_ENV) or NATIVE
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"use one of {', '.join(BACKENDS)}"
        )
    return name
