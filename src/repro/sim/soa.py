"""Windowed column decode for the turbo backend.

The scalar issue path touches a :class:`~repro.workloads.trace.TraceEntry`
object per request.  The turbo backend instead reads a window of the
trace's own columns, converted to plain python lists:

* ``flats`` — normalized flat bank index (``bank_index % num_banks``);
* ``rows`` / ``columns`` / ``writes`` — the request fields;
* ``steps`` — the issue-cycle increment *after* issuing entry ``i``
  (``max(gap_cycles[i+1], 1)``, the ``TraceCore.issue`` recurrence),
  so the hot loop replaces the branch-and-peek with one list read.

In CPython, ``list[i]`` on small ints beats ndarray scalar indexing by
an order of magnitude, which is exactly the trade the event loop
wants.  Only :data:`WINDOW` entries are converted at a time, so decode
memory stays bounded however long the trace is; ``ensure(index)``
slides the window forward when the drain walks past it.  Decoding a
window is a handful of slices and ``tolist`` calls, cheap enough that
every system decodes its own traces — there is no cache.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.workloads.trace import CoreTrace

#: Entries per decode window (traces up to this long decode once).
WINDOW = 1 << 18


class TraceWindow:
    """One trace's columns, decoded one window of entries at a time.

    ``chunk_start`` / ``chunk_end`` bound the live window; field lists
    are indexed by ``index - chunk_start``.
    """

    __slots__ = (
        "_trace", "_num_banks", "length", "loads",
        "flats", "rows", "columns", "writes", "steps",
        "chunk_start", "chunk_end",
    )

    def __init__(self, trace: CoreTrace, num_banks: int):
        self._trace = trace
        self._num_banks = num_banks
        self.length = len(trace)
        self.loads = 0
        self._load(0)

    def _load(self, start: int) -> None:
        end = min(start + WINDOW, self.length)
        trace = self._trace
        # One branch per *window* (not per event) when telemetry is off.
        tel = telemetry.get()
        span = (
            tel.span("soa.window", start=start, end=end)
            if tel is not None else telemetry.NOOP_SPAN
        )
        with span:
            self.flats = (
                trace.bank_index[start:end] % self._num_banks
            ).tolist()
            self.rows = trace.row[start:end].tolist()
            self.columns = trace.column[start:end].tolist()
            self.writes = trace.is_write[start:end].tolist()
            # steps[i] needs the *next* entry's gap: the slice reaches
            # one entry past the window, and the trace's last entry
            # steps 1.
            steps = np.maximum(trace.gap_cycles[start + 1:end + 1], 1)
            self.steps = steps.tolist()
            if end == self.length:
                self.steps.append(1)
        self.chunk_start = start
        self.chunk_end = end
        self.loads += 1

    def ensure(self, index: int) -> None:
        """Make the window cover ``index`` (window-aligned access)."""
        if self.chunk_start <= index < self.chunk_end:
            return
        if not 0 <= index < self.length:
            raise IndexError(
                f"trace index {index} out of range [0, {self.length})"
            )
        self._load(index - index % WINDOW)
