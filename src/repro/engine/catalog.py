"""The workload and scheme catalogs behind :class:`SimJob`.

Everything a job references by name is resolved here:

* **workload kinds** — registered builder functions that materialize a
  list of :class:`~repro.workloads.trace.CoreTrace` from a
  :class:`~repro.engine.job.WorkloadSpec`'s parameters.  All builders
  are seeded, so materialization is deterministic and can happen
  inside worker processes.
* **scheme factories** — :func:`scheme_under_test` builds a scheme's
  paper configuration from the scheme table (:mod:`repro.schemes`),
  plus BlockHammer's window compression; explicit ``scheme_params``
  go straight to the scheme's constructor.
* **config overrides** — :func:`build_config` maps dotted override
  keys (``scheduler``, ``timings.trefw``, ``organization.channels``)
  onto a :class:`~repro.params.SystemConfig`.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Callable, Dict, List, Tuple

from repro.engine.job import Params, SimJob, WorkloadSpec
from repro.params import DEFAULT_CONFIG, DramTimings, SystemConfig
from repro.schemes import paper_config, scheme_factory
from repro.workloads.trace import CoreTrace

#: Default experiment sizing (CI-friendly; scale them up for precision).
DEFAULT_CORES = 4
DEFAULT_REQUESTS = 1200
DEFAULT_BANKS = 16

#: BlockHammer window compression (documented substitution, DESIGN.md).
#:
#: BlockHammer's blacklist dynamics compare per-row ACT counts
#: accumulated over tCBF (= tREFW, 32 ms) against N_BL.  The default
#: traces cover roughly 1/100 of a tREFW, so at paper-scale N_BL no row
#: could ever be blacklisted and the scheme would look free.  The
#: experiments therefore scale N_BL, FlipTH and tCBF down by this
#: factor, preserving the count-to-threshold ratios that drive both
#: correct throttling and the misidentification the paper reports.
BH_WINDOW_COMPRESSION = 16


def _sized(scale: float, base: int) -> int:
    return max(64, int(base * scale))


# ----------------------------------------------------------------------
# workload catalog
# ----------------------------------------------------------------------

_WORKLOAD_BUILDERS: Dict[str, Callable[..., List[CoreTrace]]] = {}

#: Kind prefix routing a spec to an ingested TraceSet instead of a
#: registered builder: ``trace:<path>`` loads the TraceSet directory
#: (or single trace file) at ``<path>`` — see docs/WORKLOADS.md.
TRACE_KIND_PREFIX = "trace:"


def register_workload(kind: str):
    """Decorator registering a workload builder under ``kind``."""

    def decorator(builder: Callable[..., List[CoreTrace]]):
        _WORKLOAD_BUILDERS[kind] = builder
        return builder

    return decorator


def workload_kinds() -> List[str]:
    """The registered builder kinds (each buildable as-is).

    The ``trace:<path>`` pseudo-kind is deliberately absent: it names
    ingested content, not a builder, so enumerating callers can build
    every returned kind without special-casing.  Specs route to it via
    :data:`TRACE_KIND_PREFIX` / :func:`traceset_spec`.
    """
    return sorted(_WORKLOAD_BUILDERS)


def build_workload(spec: WorkloadSpec) -> List[CoreTrace]:
    """Materialize the traces a spec references (deterministic)."""
    if spec.kind.startswith(TRACE_KIND_PREFIX):
        from repro.traces.ingest import build_trace_workload

        path = spec.kind[len(TRACE_KIND_PREFIX):]
        return build_trace_workload(path, **spec.as_dict())
    try:
        builder = _WORKLOAD_BUILDERS[spec.kind]
    except KeyError:
        raise KeyError(
            f"unknown workload kind {spec.kind!r}; "
            f"known: {', '.join(workload_kinds())} (or trace:<path>)"
        ) from None
    return builder(**spec.as_dict())


def traceset_spec(path, **params) -> WorkloadSpec:
    """A ``trace:<path>`` spec with the set's content digest folded in.

    The job hash covers only the spec, not the files it points at;
    pinning the TraceSet digest into the params means a rewritten
    TraceSet at the same path can never be satisfied by a stale cache
    entry.  Single trace files hash their raw bytes instead.
    """
    import hashlib
    import json
    from pathlib import Path

    from repro.traces.ingest import MANIFEST_NAME

    path = Path(path)
    if path.is_dir():
        # The manifest's committed content digest, not a full load: the
        # worker's TraceSet.load(verify=True) still checks every file's
        # sha256, so drivers stay cheap without losing integrity.
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        digest = manifest["digest"]
    else:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return WorkloadSpec.make(
        TRACE_KIND_PREFIX + str(path), digest=digest, **params
    )


#: Benign-mix seeds the attack panels of Figures 10 and 11 average
#: over (short closed-loop traces are interleaving-phase sensitive).
DEFAULT_ATTACK_SEEDS = (31, 41, 51)

_SPEC_LIKE = "repro.workloads.spec_like"
_THREADED = "repro.workloads.multithreaded"
_FAMILIES = "repro.traces.families"

#: Benign workload kinds — the paper's suite and the stress families:
#: kind -> (generator module, generator name, default seed).  Each row
#: registers one builder through :func:`register_workload` (see
#: :func:`_generated_builder`); the generator is imported on the first
#: build.
BENIGN_KINDS: Dict[str, Tuple[str, str, int]] = {
    "mix-high": (_SPEC_LIKE, "mix_high", 11),
    "mix-blend": (_SPEC_LIKE, "mix_blend", 12),
    "fft": (_THREADED, "fft_like", 21),
    "radix": (_THREADED, "radix_like", 22),
    "pagerank": (_THREADED, "pagerank_like", 23),
    "capacity-pressure": (_FAMILIES, "capacity_pressure", 61),
    "row-conflict-heavy": (_FAMILIES, "row_conflict_heavy", 62),
    "multi-channel-imbalanced": (_FAMILIES, "multi_channel_imbalanced", 63),
}

#: The paper's benign suite: 2 multiprogrammed + 3 multithreaded
#: workloads, each at its table seed.
NORMAL_WORKLOADS = ("mix-high", "mix-blend", "fft", "radix", "pagerank")


def _generated_builder(module: str, name: str, default_seed: int):
    """The builder of one :data:`BENIGN_KINDS` row.

    Explicit parameters, so a spec naming any other one fails with a
    ``TypeError`` instead of being silently dropped.
    """

    def build(scale: float = 1.0, num_cores: int = DEFAULT_CORES,
              num_banks: int = DEFAULT_BANKS,
              seed: int = default_seed) -> List[CoreTrace]:
        generator = getattr(importlib.import_module(module), name)
        return generator(num_cores=num_cores, num_banks=num_banks, seed=seed,
                         num_requests=_sized(scale, DEFAULT_REQUESTS))

    return build


for _kind, _row in BENIGN_KINDS.items():
    register_workload(_kind)(_generated_builder(*_row))


@register_workload("attack")
def _build_attack(
    pattern: str,
    scale: float = 1.0,
    num_cores: int = 8,
    num_banks: int = DEFAULT_BANKS,
    flip_th: int = 6_250,
    seed: int = 31,
) -> List[CoreTrace]:
    """One attacker core plus ``num_cores - 1`` benign cores.

    Eight cores by default: the attacker's weight in the aggregate IPC
    (1/8) approximates the paper's 1/16, and the extra benign cores
    dilute single-bank interleaving noise.  Experiments average the
    attack panels over several ``seed`` values — short closed-loop
    traces make individual runs sensitive to interleaving phase.
    """
    from repro.workloads.attacks import (
        blockhammer_adversarial_trace,
        multi_sided_trace,
    )
    from repro.workloads.spec_like import mix_high

    n = _sized(scale, DEFAULT_REQUESTS)
    benign = mix_high(num_cores - 1, n, num_banks, seed=seed)
    if pattern == "multi-sided":
        attacker = multi_sided_trace(
            num_victims=32, bank_index=0, total_requests=8 * n
        )
    elif pattern == "bh-adversarial":
        import numpy as np

        cbf_size, n_bl_sim, _flip_sim = scaled_blockhammer_params(
            flip_th, scale
        )
        # The attacker profiles the benign threads' hottest rows on the
        # target bank and hammers their CBF-covering aliases: the four
        # most frequent, ties broken by first appearance.
        on_target = [t.row[t.bank_index % num_banks == 0] for t in benign]
        rows, first, counts = np.unique(
            np.concatenate(on_target or [np.empty(0, dtype=np.int64)]),
            return_index=True,
            return_counts=True,
        )
        hottest = np.lexsort((first, -counts))[:4]
        benign_rows = rows[hottest].tolist() or [1000]
        attacker = blockhammer_adversarial_trace(
            benign_rows=benign_rows,
            cbf_size=cbf_size,
            blacklist_threshold=n_bl_sim,
            bank_index=0,
            total_requests=8 * n,
        )
    else:
        raise ValueError(f"unknown attack pattern {pattern!r}")
    return benign + [attacker]


def smoke_workload_specs(scale: float = 0.1) -> Dict[str, WorkloadSpec]:
    """One tiny spec per registered kind (the CI smoke surface).

    Covers every builder in the catalog — kinds with required
    parameters get a representative choice — so "every registered
    workload kind materializes" stays a one-call check as the catalog
    grows.  The ``trace:<path>`` pseudo-kind is excluded; it has no
    builder, only ingested content.
    """
    specs = {}
    for kind in sorted(_WORKLOAD_BUILDERS):
        extra = {"pattern": "multi-sided"} if kind == "attack" else {}
        specs[kind] = WorkloadSpec.make(
            kind, scale=scale, num_cores=2, **extra
        )
    return specs


def normal_workload_specs(
    scale: float = 1.0,
    num_cores: int = DEFAULT_CORES,
    num_banks: int = DEFAULT_BANKS,
) -> Dict[str, WorkloadSpec]:
    """Specs for the paper's benign suite, keyed by workload name."""
    return {
        name: WorkloadSpec.make(
            name, scale=scale, num_cores=num_cores, num_banks=num_banks,
            seed=BENIGN_KINDS[name][2],
        )
        for name in NORMAL_WORKLOADS
    }


def attack_workload_spec(
    kind: str,
    scale: float = 1.0,
    num_cores: int = 8,
    num_banks: int = DEFAULT_BANKS,
    flip_th: int = 6_250,
    seed: int = 31,
) -> WorkloadSpec:
    """Spec for one attack workload (see the ``attack`` builder)."""
    return WorkloadSpec.make(
        "attack", pattern=kind, scale=scale, num_cores=num_cores,
        num_banks=num_banks, flip_th=flip_th, seed=seed,
    )


# ----------------------------------------------------------------------
# scheme catalog
# ----------------------------------------------------------------------


def scheme_under_test(
    name: str, flip_th: int, scale: float = 1.0
) -> Tuple[Callable[[], object], int]:
    """(scheme factory, rfm_th) for a named scheme at a FlipTH.

    The scheme table's paper configuration (:mod:`repro.schemes`),
    derived once per call; the factory then builds one scheme per bank.
    ``scale`` is the trace-length multiplier; BlockHammer's
    window-compressed thresholds track it so the blacklist dynamics
    stay calibrated to the trace coverage.
    """
    params, rfm_th = paper_config(name, flip_th)
    if name == "blockhammer":
        params = _window_compressed(params, scale)
    return scheme_factory(name, **params), rfm_th


def _window_compressed(params: Dict[str, object], scale: float):
    """BlockHammer's table entry with N_BL, FlipTH and tCBF (= tREFW)
    compressed for a simulation at ``scale``.  Never below 1, which
    would stretch them past the paper's values."""
    compression = BH_WINDOW_COMPRESSION / max(scale, 1e-6)
    if compression < 1:
        raise ValueError(
            f"BlockHammer window compression {BH_WINDOW_COMPRESSION}/{scale}"
            f" is below 1: scale must be at most {BH_WINDOW_COMPRESSION}"
        )
    n_bl = max(4, int(params["n_bl"] / compression))
    return dict(
        params,
        n_bl=n_bl,
        flip_th=max(n_bl + 4, int(params["flip_th"] / compression)),
        timings=dataclasses.replace(
            DramTimings(), trefw=DramTimings().trefw / compression
        ),
    )


def scaled_blockhammer_params(
    flip_th: int, scale: float = 1.0
) -> Tuple[int, int, int]:
    """(cbf_size, scaled N_BL, scaled FlipTH) for simulation runs."""
    params = _window_compressed(paper_config("blockhammer", flip_th)[0], scale)
    return params["cbf_size"], params["n_bl"], params["flip_th"]


def scheme_factory_for(job: SimJob):
    """(factory, effective rfm_th) for a job's scheme description."""
    if job.scheme_params:
        params = dict(job.scheme_params)
        factory = scheme_factory(job.scheme, **params)
        # rfm_th=None derives from the scheme's own configuration; an
        # explicitly parameterized scheme carries it in its params
        # (0 = no RFM issue, correct for ARR-based schemes).
        derived = int(params.get("rfm_th", 0))
    else:
        factory, derived = scheme_under_test(
            job.scheme, job.flip_th, job.scale
        )
    return factory, (job.rfm_th if job.rfm_th is not None else derived)


# ----------------------------------------------------------------------
# config overrides
# ----------------------------------------------------------------------


def build_config(overrides: Params) -> SystemConfig:
    """Apply dotted override keys onto the default system config.

    Bare keys (``scheduler``, ``num_cores``, ...) replace
    :class:`SystemConfig` fields; ``timings.<field>`` and
    ``organization.<field>`` reach into the nested dataclasses.
    """
    config = DEFAULT_CONFIG
    top: Dict[str, object] = {}
    timings: Dict[str, object] = {}
    organization: Dict[str, object] = {}
    for key, value in overrides:
        if key.startswith("timings."):
            timings[key.split(".", 1)[1]] = value
        elif key.startswith("organization."):
            organization[key.split(".", 1)[1]] = value
        else:
            top[key] = value
    if top:
        config = dataclasses.replace(config, **top)
    if timings:
        config = config.with_timings(**timings)
    if organization:
        config = config.with_organization(**organization)
    return config
