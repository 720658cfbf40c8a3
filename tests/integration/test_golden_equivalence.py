"""Optimized simulator == seed simulator, byte for byte — per backend.

The golden file (tests/golden/simulation_results.json) was captured
from the pre-optimization simulator.  Every hot-path change — the
zero-alloc event loop, the memoized schedulers, the array-backed
sketches, the native C drain — must leave each shipped scheme's
`SimulationResult` exactly identical on every workload here: the
comparison happens on canonical JSON, so even a float that differs in
its last bit fails.  Every record runs under **both** simulation
backends, and twice more on variants of them (the parameter ids are
the backends' former names, kept so test ids stay stable):

* ``scalar`` — the ``python`` backend, the reference event loop;
* ``turbo`` — the ``native`` backend, the default: every golden
  record runs on the C kernel (asserted here and in
  tests/integration/test_native_kernel.py);
* ``turbo-python`` — the ``native`` backend on a host whose kernel
  cannot be built: every record falls back to the python loop;
* ``turbo-window64`` — the ``python`` backend building its issue
  tables from 64-entry trace-iterator blocks, so every block crossing
  of the lazy table build is exercised.

If a change is *meant* to alter results, regenerate via
``PYTHONPATH=src python tests/golden/generate_golden.py`` and say so in
the commit message.
"""

import json
import os
from pathlib import Path

import pytest

from repro.engine.cache import result_to_dict
from repro.engine.executor import materialize_job
from repro.engine.job import SimJob, WorkloadSpec
from repro.sim.backend import BACKEND_ENV
from repro.sim.system import make_system
from repro.workloads import trace as trace_module

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "golden" / "simulation_results.json"
)


def _golden_records():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _job_from_canonical(data) -> SimJob:
    workload = WorkloadSpec(
        kind=data["workload"]["kind"],
        params=tuple(
            (key, value) for key, value in data["workload"]["params"]
        ),
    )
    return SimJob(
        workload=workload,
        scheme=data["scheme"],
        scheme_params=tuple((k, v) for k, v in data["scheme_params"]),
        flip_th=data["flip_th"],
        rfm_th=data["rfm_th"],
        scale=data["scale"],
        mlp=data["mlp"],
        max_cycles=data["max_cycles"],
        track_hammer=data["track_hammer"],
        config_overrides=tuple(
            (k, v) for k, v in data["config_overrides"]
        ),
    )


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


RECORDS = _golden_records()


def _ids():
    return [
        f"{r['job']['workload']['kind']}-{r['job']['scheme']}"
        for r in RECORDS
    ]


#: parameter id -> (REPRO_SIM_BACKEND, the drain every record takes)
BACKENDS = {
    "scalar": ("python", "python"),
    "turbo": ("native", "kernel"),
    "turbo-python": ("native", "python"),
    "turbo-window64": ("python", "python"),
}


@pytest.fixture(params=list(BACKENDS))
def backend(request, monkeypatch):
    if request.param == "turbo-python":
        request.getfixturevalue("python_drain")
    if request.param == "turbo-window64":
        monkeypatch.setattr(trace_module, "_ITER_BLOCK", 64)
    name, drain_path = BACKENDS[request.param]
    monkeypatch.setenv(BACKEND_ENV, name)
    # a probed run (the probe-smoke CI lane) always takes the python loop
    return "python" if os.environ.get("REPRO_PROBES") else drain_path


@pytest.mark.parametrize("record", RECORDS, ids=_ids())
def test_result_matches_golden(record, backend):
    job = _job_from_canonical(record["job"])
    traces, factory, config, rfm_th = materialize_job(job)
    system = make_system(
        traces, scheme_factory=factory, config=config, rfm_th=rfm_th,
        flip_th=job.flip_th, mlp=job.mlp, track_hammer=job.track_hammer,
    )
    result = system.run(max_cycles=job.max_cycles)
    assert system.drain_path == backend
    assert _canonical_json(result_to_dict(result)) == _canonical_json(
        record["result"]
    )


def test_golden_covers_every_required_scheme():
    """The acceptance floor: 5 scheme families x >= 3 workloads."""
    schemes = {r["job"]["scheme"] for r in RECORDS}
    workloads = {r["job"]["workload"]["kind"] for r in RECORDS}
    assert {"none", "graphene", "mithril", "mithril+", "blockhammer"} <= schemes
    assert len(workloads) >= 3
