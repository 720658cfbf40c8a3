"""Deterministic fault injection (``REPRO_FAULT_PLAN``).

Every robustness claim in this repo — supervised workers surviving
crashes, torn-write recovery, corrupt-entry quarantine — is backed by
a test that *provokes* the failure, and provoked failures must be
reproducible.  This module is the single switchboard: well-known
**injection points** (sites) in the executor, the result store, and
the campaign checkpointer ask :func:`maybe_fail` whether a fault plan
wants them to misbehave, and the plan answers deterministically.

A fault plan is JSON, supplied through the ``REPRO_FAULT_PLAN``
environment variable either inline (a string starting with ``{``) or
as a path to a ``.json`` file::

    {
      "state_dir": "chaos-state",
      "faults": [
        {"site": "worker.execute", "kind": "crash",
         "match": "ab12*", "times": 3},
        {"site": "worker.execute", "kind": "hang", "seconds": 600},
        {"site": "manifest.write", "kind": "torn", "times": 1},
        {"site": "cache.entry.write", "kind": "corrupt", "times": 1}
      ]
    }

Each rule names a *site*, a failure *kind*, an optional ``match``
glob against the site's key (usually a job hash; default ``*``), and a
firing budget ``times`` (default 1; ``null`` = unlimited).  The first
matching rule with budget left fires.  Budgets are claimed through
exclusive file creation under ``state_dir``, so they hold across the
supervisor and every (re-spawned) worker process; a plan loaded from a
file defaults its state dir to ``<file>.state``.  An inline plan
without a state dir falls back to in-process counters — fine for
serial tests, wrong for multi-process runs (each forked worker would
carry its own budget), so the supervisor tests always use a file.

Kinds:

``crash``
    Inside a supervised worker (or with ``"hard": true`` anywhere):
    ``os._exit(CRASH_EXIT_CODE)`` — indistinguishable from
    ``kill -9``.  Elsewhere: raises :class:`InjectedCrash`.
``hang``
    Sleeps ``seconds`` (default 3600).  Under a supervised lease the
    worker is killed when the lease expires; unsupervised callers
    really do hang, which is the point.
``error``
    Raises :class:`InjectedError` — an ordinary exception, exercising
    the structured traceback-capture path.
``torn`` / ``corrupt``
    Returned to the caller (the durable writer in
    :mod:`repro.engine.durable`), which tears the destination file
    mid-payload / flips the sealed checksum.  Only write sites
    implement them; other sites ignore the rule (budget still spent).
``drop`` / ``delay`` / ``duplicate``
    Returned to the caller — implemented by the cluster transport in
    :mod:`repro.cluster.transport`: a dropped message is never
    written, a delayed one carries a ``not_before`` stamp the receiver
    honours (``seconds`` sets the delay), a duplicated one is
    delivered twice.  ``drop`` on ``host.heartbeat`` is how a network
    partition is injected: the agent keeps working but its heartbeats
    vanish, so its host lease expires.

Documented sites (see docs/FAULTS.md): ``worker.execute`` (key = job
hash), ``cache.entry.write`` (job hash), ``manifest.write`` (campaign
name), ``transport.send`` / ``transport.recv``
(``<mailbox>:<message type>``), ``host.heartbeat`` (host id).  Site
names are free-form lowercase dotted identifiers —
a malformed name (empty, whitespace, uppercase) raises
:class:`FaultPlanError` at parse time rather than silently never
matching.
"""

from __future__ import annotations

import fnmatch
import json
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Environment variable holding the plan (inline JSON or a file path).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code of an injected hard crash (lets tests and the supervisor
#: tell an injected kill from a real one).
CRASH_EXIT_CODE = 23

#: Set to True inside supervised worker processes: ``crash`` rules
#: then hard-exit instead of raising, simulating a killed worker.
IN_WORKER = False


class FaultPlanError(ValueError):
    """A fault plan that cannot be parsed or validated."""


class InjectedFault(RuntimeError):
    """Base of all exceptions raised by injected faults."""


class InjectedCrash(InjectedFault):
    """An injected crash at a site where the process must survive."""


class InjectedError(InjectedFault):
    """An injected ordinary failure (exercises traceback capture)."""


_KINDS = (
    "crash", "hang", "error", "torn", "corrupt",
    "drop", "delay", "duplicate",
)

#: Sites are dotted lowercase identifiers (``manifest.write``,
#: ``transport.send``).  The format is validated at parse time so a
#: typo'd site raises instead of silently never matching.
_SITE_RE = re.compile(r"[a-z0-9_-]+(\.[a-z0-9_-]+)*")


class FaultRule:
    """One parsed rule of a plan."""

    def __init__(self, data: Dict[str, Any], index: int):
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault rule #{index} is not an object")
        try:
            self.site = str(data["site"])
            self.kind = str(data["kind"])
        except KeyError as missing:
            raise FaultPlanError(
                f"fault rule #{index} lacks required key {missing}"
            ) from None
        if self.kind not in _KINDS:
            raise FaultPlanError(
                f"fault rule #{index} has unknown kind {self.kind!r}; "
                f"known: {', '.join(_KINDS)}"
            )
        if not _SITE_RE.fullmatch(self.site):
            raise FaultPlanError(
                f"fault rule #{index} has malformed site {self.site!r}; "
                "sites are dotted lowercase identifiers like "
                "'manifest.write'"
            )
        self.match = str(data.get("match", "*"))
        times = data.get("times", 1)
        if times is not None and (not isinstance(times, int) or times < 1):
            raise FaultPlanError(
                f"fault rule #{index}: times must be a positive int "
                f"or null, got {times!r}"
            )
        self.times: Optional[int] = times
        self.seconds = float(data.get("seconds", 3600.0))
        self.hard = bool(data.get("hard", False))
        self.index = index
        self.fired = 0  # in-process budget (no state_dir)

    def matches(self, site: str, key: str) -> bool:
        return site == self.site and fnmatch.fnmatchcase(key, self.match)


class FaultPlan:
    """A parsed ``REPRO_FAULT_PLAN`` with budget accounting."""

    def __init__(self, data: Dict[str, Any],
                 default_state_dir: Optional[Path] = None):
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        raw_rules = data.get("faults")
        if not isinstance(raw_rules, list) or not raw_rules:
            raise FaultPlanError(
                "fault plan must carry a non-empty 'faults' list"
            )
        self.rules: List[FaultRule] = [
            FaultRule(rule, index) for index, rule in enumerate(raw_rules)
        ]
        state = data.get("state_dir")
        self.state_dir: Optional[Path] = (
            Path(state) if state else default_state_dir
        )

    @classmethod
    def parse(cls, raw: str) -> "FaultPlan":
        raw = raw.strip()
        if raw.startswith("{"):
            try:
                return cls(json.loads(raw))
            except ValueError as error:
                raise FaultPlanError(
                    f"inline fault plan is not valid JSON: {error}"
                ) from error
        path = Path(raw)
        try:
            data = json.loads(path.read_text())
        except OSError as error:
            raise FaultPlanError(
                f"cannot read fault plan {raw!r}: {error}"
            ) from error
        except ValueError as error:
            raise FaultPlanError(
                f"fault plan {raw!r} is not valid JSON: {error}"
            ) from error
        return cls(data, default_state_dir=Path(f"{path}.state"))

    # -- budget claiming ----------------------------------------------

    def _claim(self, rule: FaultRule) -> bool:
        """Atomically claim one firing of ``rule`` (False = exhausted)."""
        if rule.times is None:
            return True
        if self.state_dir is None:
            if rule.fired >= rule.times:
                return False
            rule.fired += 1
            return True
        try:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        for n in range(rule.times):
            marker = self.state_dir / f"rule{rule.index}.fire{n}"
            try:
                fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(fd)
            return True
        return False

    def take(self, site: str, key: str) -> Optional[FaultRule]:
        """The first matching rule with budget, its firing claimed."""
        for rule in self.rules:
            if rule.matches(site, key) and self._claim(rule):
                return rule
        return None


_plan_cache: Dict[str, FaultPlan] = {}


def active_plan() -> Optional[FaultPlan]:
    """The plan named by ``REPRO_FAULT_PLAN``, or None.

    Parsed once per distinct environment value; a malformed plan
    raises :class:`FaultPlanError` loudly — silently disabled chaos
    would defeat the entire harness.
    """
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    plan = _plan_cache.get(raw)
    if plan is None:
        plan = _plan_cache[raw] = FaultPlan.parse(raw)
    return plan


def maybe_fail(site: str, key: str = "") -> Optional[FaultRule]:
    """Ask the active plan whether ``site`` should fail for ``key``.

    Performs process-level kinds in place (``crash``/``hang``/
    ``error``); returns the rule for caller-implemented kinds —
    ``torn``/``corrupt`` for the durable writer, ``drop``/``delay``/
    ``duplicate`` for the cluster transport — and None when nothing
    fires.
    """
    plan = active_plan()
    if plan is None:
        return None
    rule = plan.take(site, key)
    if rule is None:
        return None
    if rule.kind == "crash":
        if IN_WORKER or rule.hard:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash(
            f"injected crash at {site}" + (f" ({key})" if key else "")
        )
    if rule.kind == "hang":
        time.sleep(rule.seconds)
        return None
    if rule.kind == "error":
        raise InjectedError(
            f"injected failure at {site}" + (f" ({key})" if key else "")
        )
    return rule
