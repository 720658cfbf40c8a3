"""Declarative simulation jobs.

A :class:`SimJob` names everything :func:`repro.sim.system.simulate`
needs — the workload *by reference* into the engine catalog, the
protection scheme by name (plus optional explicit parameters), and the
simulator knobs — as plain, frozen, hashable data.  That buys three
things at once:

* identical jobs deduplicate before any work happens;
* jobs pickle cheaply into worker processes (traces are rebuilt from
  their seeded generators inside the child, never shipped over IPC);
* a canonical JSON form hashes into a stable on-disk cache key.

Parameter bags (workload params, scheme params, config overrides) are
stored as sorted ``(key, value)`` tuples of JSON scalars so that two
jobs built from differently-ordered keyword arguments hash alike.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

#: A frozen parameter bag: sorted (key, scalar) pairs.
Params = Tuple[Tuple[str, Any], ...]

_SCALARS = (str, int, float, bool, type(None))

#: Where :meth:`SimJob.job_hash` keeps its value on an instance.
_HASH_ATTR = "_job_hash"


def freeze_params(params: Optional[Mapping[str, Any]]) -> Params:
    """Normalize a mapping of JSON scalars into a hashable tuple."""
    if not params:
        return ()
    for key, value in params.items():
        if not isinstance(key, str):
            raise TypeError(f"parameter names must be str, got {key!r}")
        if not isinstance(value, _SCALARS):
            raise TypeError(
                f"parameter {key!r} must be a JSON scalar "
                f"(str/int/float/bool/None), got {type(value).__name__}"
            )
    return tuple(sorted(params.items()))


def _coerce_params(params: Union[None, Mapping[str, Any], Params]) -> Params:
    if params is None:
        return ()
    if isinstance(params, tuple):
        return params
    return freeze_params(params)


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by reference: catalog kind + builder parameters.

    The spec never holds traces; :func:`repro.engine.catalog.
    build_workload` materializes them deterministically (all builders
    are seeded), so a spec is both the dedup/cache key and the cheap
    thing to ship to worker processes.
    """

    kind: str
    params: Params = ()

    @classmethod
    def make(cls, kind: str, **params: Any) -> "WorkloadSpec":
        return cls(kind=kind, params=freeze_params(params))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class SimJob:
    """One point of a sweep: (workload, scheme, simulator knobs).

    ``scheme`` names an entry of the scheme table; with an empty
    ``scheme_params`` the job runs its paper per-FlipTH configuration
    (:func:`repro.engine.catalog.scheme_under_test`),
    while a non-empty bag instantiates the scheme with exactly those
    constructor arguments.  ``rfm_th=None`` means "derive from the
    scheme configuration"; drivers that know the RAA threshold pass it
    explicitly.  ``scale`` is the trace-coverage calibration knob that
    BlockHammer's window-compressed thresholds track.
    """

    workload: WorkloadSpec
    scheme: str = "none"
    scheme_params: Params = ()
    flip_th: int = 10_000
    rfm_th: Optional[int] = None
    scale: float = 1.0
    mlp: int = 4
    max_cycles: Optional[int] = None
    track_hammer: bool = True
    config_overrides: Params = ()

    @classmethod
    def make(
        cls,
        workload: WorkloadSpec,
        scheme: str = "none",
        scheme_params: Union[None, Mapping[str, Any], Params] = None,
        config_overrides: Union[None, Mapping[str, Any], Params] = None,
        **knobs: Any,
    ) -> "SimJob":
        """Build a job, freezing any dict-valued parameter bags."""
        return cls(
            workload=workload,
            scheme=scheme,
            scheme_params=_coerce_params(scheme_params),
            config_overrides=_coerce_params(config_overrides),
            **knobs,
        )

    def canonical(self) -> Dict[str, Any]:
        """A stable description of the job that round-trips via JSON."""

        def pairs(params: Params):
            return [[key, value] for key, value in params]

        return {
            "workload": {"kind": self.workload.kind,
                         "params": pairs(self.workload.params)},
            "scheme": self.scheme,
            "scheme_params": pairs(self.scheme_params),
            "flip_th": self.flip_th,
            "rfm_th": self.rfm_th,
            "scale": self.scale,
            "mlp": self.mlp,
            "max_cycles": self.max_cycles,
            "track_hammer": self.track_hammer,
            "config_overrides": pairs(self.config_overrides),
        }

    def job_hash(self) -> str:
        """Content hash identifying the job (dedup + cache key).

        Computed once per instance and kept in the instance
        ``__dict__`` under a name that is not a field, so eq, hash,
        repr, ``replace`` and :meth:`canonical` never see it; pickles
        and copies drop it (:meth:`__getstate__`) and recompute.
        """
        cached = self.__dict__.get(_HASH_ATTR)
        if cached is None:
            payload = json.dumps(
                self.canonical(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
            object.__setattr__(self, _HASH_ATTR, cached)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop(_HASH_ATTR, None)
        return state

    @classmethod
    def from_canonical(cls, data: Mapping[str, Any]) -> "SimJob":
        """Rebuild a job from :meth:`canonical` output.

        The inverse the cluster transport needs: assignment messages
        ship jobs as canonical JSON, and the receiving host agent must
        reconstruct a job whose :meth:`job_hash` matches the
        coordinator's — parameter pairs come back as lists after a
        JSON round-trip and are re-frozen into tuples here.
        """

        def unpairs(raw: Any) -> Params:
            return tuple((str(key), value) for key, value in raw or ())

        workload = data["workload"]
        return cls(
            workload=WorkloadSpec(kind=str(workload["kind"]),
                                  params=unpairs(workload.get("params"))),
            scheme=str(data.get("scheme", "none")),
            scheme_params=unpairs(data.get("scheme_params")),
            flip_th=int(data.get("flip_th", 10_000)),
            rfm_th=data.get("rfm_th"),
            scale=float(data.get("scale", 1.0)),
            mlp=int(data.get("mlp", 4)),
            max_cycles=data.get("max_cycles"),
            track_hammer=bool(data.get("track_hammer", True)),
            config_overrides=unpairs(data.get("config_overrides")),
        )
