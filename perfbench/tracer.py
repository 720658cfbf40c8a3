"""Layer tracing from outside the program.

:func:`install` wraps the public functions and methods at each layer
boundary of ``repro`` (planner, workload catalog, scheme factory,
system build, event drain, bank controller, scheduler, tracker hooks,
result store, durable writes, campaign manifest/verify/report, the
supervised pool) with timing wrappers.  Nothing under ``src/``
changes: the wrappers are installed by the benchmark child before it
plans or builds anything, and only in traced runs.

Every wrapped call is a span with a name, a start, an end, a parent
and the run id.  Spans of coarse layers are kept one record per call;
spans of the per-event layers (``mc.*``, ``tracker.*``), which run
millions of times, are aggregated per name (calls, total and self
time) so the trace stays small.  A span's self time is its duration
minus the time its child spans cover.  Spans live in memory and are
written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import resource
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """In-memory span recorder with per-name self-time accounting."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: open frames: [child seconds, id of the nearest recorded span]
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: ResultCache.get calls that returned a result
        self.store_hits = 0
        #: recorded spans: (id, name, start, end, parent id, run id)
        self.spans: List[tuple] = []
        #: workload specs seen by the catalog (reuse ratio)
        self.specs: set = set()
        self.pool: Dict[str, float] = defaultdict(float)

    # -- span machinery ------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        record: bool = True,
        observe: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable:
        """``fn`` wrapped as a span named ``name``.

        ``record=False`` aggregates instead of keeping one record per
        call (the per-event layers).  ``observe(result, args)`` runs
        after each successful call.
        """
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        spans = self.spans
        run_id = self.run_id
        perf = time.perf_counter

        if not record:
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else None]
                stack.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += duration
                    self_s[name] += duration - frame[0]
                    total_s[name] += duration
                    calls[name] += 1
        else:
            def wrapper(*args, **kwargs):
                span_id = len(spans)
                spans.append(None)  # reserve the id in call order
                parent = stack[-1][1] if stack else None
                frame = [0.0, span_id]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    duration = end - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += duration
                    self_s[name] += duration - frame[0]
                    total_s[name] += duration
                    calls[name] += 1
                    spans[span_id] = (
                        span_id, name, start, end, parent, run_id
                    )
                if observe is not None:
                    observe(result, args)
                return result

        return functools.update_wrapper(wrapper, fn)

    def run_root(self, name: str, body: Callable[[], Any]) -> Any:
        """Run ``body`` as a span: the root of the timed region."""
        return self.wrap(name, body)()

    # -- results -------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Seconds of every recorded span called ``name``."""
        return [
            span[3] - span[2] for span in self.spans
            if span is not None and span[1] == name
        ]

    def dump(self, path) -> None:
        """Write every recorded span and the aggregates, once."""
        payload = {
            "run_id": self.run_id,
            "fields": ["id", "name", "start", "end", "parent", "run_id"],
            "spans": [span for span in self.spans if span is not None],
            "aggregates": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------

#: (module, function, span) for module-level functions.  Each is also
#: replaced in every loaded ``repro`` module that imported it by name.
FUNCTIONS = (
    ("repro.campaigns.planner", "plan_campaign", "campaigns.plan"),
    ("repro.campaigns.executor", "run_campaign", "campaigns.run"),
    ("repro.engine.catalog", "build_workload", "workloads.build"),
    ("repro.engine.catalog", "scheme_factory_for", "engine.factory"),
    ("repro.engine.catalog", "build_config", "engine.factory"),
    ("repro.engine.executor", "execute_job", "point"),
    ("repro.engine.durable", "atomic_write_json", "durable.write"),
    ("repro.campaigns.executor", "verify_campaign", "campaigns.verify"),
    ("repro.campaigns.report", "build_report", "campaigns.report"),
)

#: (module, class, method, span, per-event) for methods.
METHODS = (
    ("repro.sim.system", "SimulatedSystem", "__init__", "sim.build", False),
    ("repro.sim.system", "SimulatedSystem", "run", "sim.drain", False),
    ("repro.mc.controller", "BankController", "serve", "mc.serve", True),
    ("repro.mc.controller", "BankController", "advance_refresh",
     "mc.refresh", True),
    ("repro.mc.scheduler", "FrFcfsScheduler", "pick", "mc.sched", True),
    ("repro.mc.scheduler", "FrFcfsScheduler", "on_served", "mc.sched", True),
    ("repro.mc.scheduler", "BlissScheduler", "pick", "mc.sched", True),
    ("repro.mc.scheduler", "BlissScheduler", "on_served", "mc.sched", True),
    ("repro.engine.cache", "ResultCache", "get", "store.get", False),
    ("repro.engine.cache", "ResultCache", "put", "store.put", False),
    ("repro.engine.cache", "ResultCache", "verify", "store.verify", False),
    ("repro.campaigns.executor", "CampaignManifest", "save",
     "campaigns.manifest_save", False),
)

#: ProtectionScheme hooks -> span (the tracker layer).
TRACKER_HOOKS = (
    ("on_activate", "tracker.activate"),
    ("on_rfm", "tracker.rfm"),
    ("throttle_release", "tracker.throttle"),
)


def _import_scheme_modules() -> None:
    """Load every shipped scheme so its class can be wrapped."""
    for package_name in ("repro.core", "repro.mitigations"):
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{package_name}.{info.name}")


def _scheme_classes(base) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; call before anything is built."""
    importlib.import_module("repro.campaigns")
    importlib.import_module("repro.engine")
    importlib.import_module("repro.sim.system")
    _import_scheme_modules()

    def count_spec(_result, args):
        tracer.specs.add(args[0])

    def count_hit(result, _args):
        if result is not None:
            tracer.store_hits += 1

    observers = {
        "workloads.build": count_spec,
        "store.get": count_hit,
    }
    for module_name, attr, span in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = tracer.wrap(span, original, observe=observers.get(span))
        _replace_everywhere(original, wrapped)

    for module_name, class_name, method, span, per_event in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, method, tracer.wrap(
            span, cls.__dict__[method], record=not per_event,
            observe=observers.get(span),
        ))

    from repro.protection import ProtectionScheme

    for cls in _scheme_classes(ProtectionScheme):
        abstract = getattr(cls, "__abstractmethods__", ())
        for hook, span in TRACKER_HOOKS:
            if hook in cls.__dict__ and hook not in abstract:
                setattr(cls, hook, tracer.wrap(
                    span, cls.__dict__[hook], record=False
                ))

    from repro.engine.supervisor import SupervisedPool

    SupervisedPool.run = _pool_wrapper(
        tracer, tracer.wrap("pool.run", SupervisedPool.run)
    )


def _pool_wrapper(tracer: Tracer, wrapped: Callable) -> Callable:
    """Pool-boundary accounting: workers are forked, so their own
    spans never reach this process; the pool's outcome and the reaped
    workers' CPU time do."""
    perf = time.perf_counter

    def run(pool, items):
        cpu_before = _children_cpu_s()
        start = perf()
        outcome = wrapped(pool, items)
        duration = perf() - start
        workers = min(pool.n_workers, len(items)) if items else 0
        stats = tracer.pool
        stats["worker_cpu_s"] += _children_cpu_s() - cpu_before
        stats["worker_slot_s"] += duration * workers
        stats["queue_wait_s"] += outcome.queue_wait_s
        stats["retried"] += outcome.retried
        return outcome

    return functools.update_wrapper(run, wrapped)
