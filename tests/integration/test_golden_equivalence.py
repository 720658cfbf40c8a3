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


#: sha256 over the canonical results of paper-scale's fig10 at scale
#: 0.05 with its first attack seed, across the four paper FlipTH
#: values (125 points), one ``<job hash>:<result json>`` line per point
#: in job-hash order.  Captured before the vectorized attacker
#: profiling, the block-wise PARFM RFM_TH recurrence and the per-seed
#: MT19937 hand-over, which must all leave every point (every float
#: too) unchanged.
FIG10_SMALL_DIGEST = (
    "102f9a275063b9bcdb533ffaaa9b1003209b02a5288f82c7f47fb97ede6a86cb"
)


def _campaign_digest(spec) -> "tuple[int, str]":
    """(point count, sha256) over every point of ``spec``'s plan.

    One ``<job hash>:<canonical result json>`` line per point, in
    job-hash order; points sharing a workload run back to back.
    """
    import hashlib

    from repro.campaigns import plan_campaign
    from repro.engine.executor import execute_job, group_by_workload

    jobs = plan_campaign(spec).jobs
    lines = {}
    for job_hash, job in group_by_workload(
        list(jobs.items()), lambda item: item[1].workload
    ):
        lines[job_hash] = _canonical_json(result_to_dict(execute_job(job)))
    digest = hashlib.sha256("".join(
        f"{job_hash}:{lines[job_hash]}\n" for job_hash in sorted(lines)
    ).encode()).hexdigest()
    return len(jobs), digest


def test_fig10_small_campaign_matches_digest():
    """Every point of a small fig10 sweep (Mithril, Mithril+, PARFM
    with Appendix C's RFM_TH, BlockHammer under its CBF-aliasing
    attacker) is byte-identical to the pinned digest."""
    from repro.campaigns import get_campaign
    from repro.campaigns.spec import (
        PAPER_SCALE_ATTACK_SEEDS,
        CampaignSpec,
        ExperimentSpec,
    )

    base = next(
        experiment
        for experiment in get_campaign("paper-scale").experiments
        if experiment.name == "fig10-paper"
    )
    params = dict(
        base.params,
        scale=0.05,
        attack_seeds=[PAPER_SCALE_ATTACK_SEEDS[0]],
        flip_thresholds=[12_500, 6_250, 3_125, 1_500],
    )
    spec = CampaignSpec(
        name="fig10-small", description="golden",
        experiments=[ExperimentSpec(base.name, base.kind, params)],
    )
    count, digest = _campaign_digest(spec)
    assert count == 125
    assert digest == FIG10_SMALL_DIGEST


# ----------------------------------------------------------------------
# pins: what a results-preserving change must leave untouched
# ----------------------------------------------------------------------

#: Built-in campaign -> (job count, first 16 hex digits of the sha256
#: over its plan's sorted, concatenated job hashes).  A change to any
#: job's identity (workload, scheme, FlipTH, RFM_TH, scale, ...) moves
#: these.
JOB_HASH_PINS = {
    "paper-scale": (810, "9cf94d97aa3fea91"),
    "smoke": (27, "380eb1701b9b2428"),
    "stress-panel": (166, "b00d3b75f0b56df1"),
}


@pytest.mark.parametrize("name", sorted(JOB_HASH_PINS))
def test_builtin_campaign_job_hashes_are_pinned(name):
    import hashlib

    from repro.campaigns import builtin_campaigns, plan_campaign

    assert set(JOB_HASH_PINS) == set(builtin_campaigns())
    jobs = plan_campaign(builtin_campaigns()[name]).jobs
    digest = hashlib.sha256("".join(sorted(jobs)).encode()).hexdigest()
    assert (len(jobs), digest[:16]) == JOB_HASH_PINS[name]


#: ``_campaign_digest`` of paper-scale reduced to scale 0.05, with
#: fig10 and fig11 on one attack seed (31) and four FlipTH values:
#: every scheme the campaigns run, including fig7/fig9's explicitly
#: parameterized Mithril points.
PAPER_SCALE_REDUCED_PINS = (
    366,
    "e7b09e01756cefd8e8c3f02de0803428aa0fb8e11543ac0c8de45f43489fc8ff",
)


def test_reduced_paper_scale_results_are_pinned():
    from repro.campaigns import get_campaign
    from repro.campaigns.spec import CampaignSpec, ExperimentSpec

    experiments = []
    for experiment in get_campaign("paper-scale").experiments:
        params = dict(experiment.params, scale=0.05)
        if experiment.kind in ("fig10", "fig11"):
            params.update(
                attack_seeds=[31],
                flip_thresholds=[12_500, 6_250, 3_125, 1_500],
            )
        experiments.append(
            ExperimentSpec(experiment.name, experiment.kind, params)
        )
    spec = CampaignSpec(
        name="paper-scale-reduced", description="pins",
        experiments=experiments,
    )
    assert _campaign_digest(spec) == PAPER_SCALE_REDUCED_PINS


#: Analytic experiment -> sha256 of its default rows' canonical JSON.
ANALYTIC_ROW_PINS = {
    "table4": (
        "2863d8cc58722b7818e0c0cbaafde98aa145f016504b3ed26f3781571e90b319"
    ),
    "fig6": (
        "c13b7067537f6afbae6d9c2ed66071781a79a566492d640b085cd5e56d3ed10b"
    ),
    "fig2": (
        "981277e1f27eec2a485f657ffa7ab9b8c53dacf0e045f6c8bb510c1c1d2de9f2"
    ),
    "appendix_parfm": (
        "78d9ece86ef5d6b7359314bc161026e73f99db15e86862eb1c1c7d7d1b286c72"
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_ROW_PINS))
def test_analytic_experiment_rows_are_pinned(name):
    import hashlib

    from repro.experiments.runner import run_experiment

    rows = _canonical_json(run_experiment(name))
    digest = hashlib.sha256(rows.encode()).hexdigest()
    assert digest == ANALYTIC_ROW_PINS[name]


#: Simulation-bound driver -> (params, sha256 of ``json.dumps(rows)``,
#: sha256 of its ordered, concatenated ``build_plan`` job hashes), run with
#: the store off.  The rows digest pins every value and the key order
#: of every row; the jobs digest pins each job's identity and the
#: order the driver registers them in.
SIM_ROW_PINS = {
    "fig7": (
        {"scale": 0.02},
        "bf48a23a6a32b2740b6d8b6b056aa7e60923cd2179947b0d0f389d8843b7e9b6",
        "90d6bde38ec24a9b3ab68278e46af0415c3e6954357797a94bc9dc2dffe9156c",
    ),
    "fig9": (
        {"scale": 0.02, "extra_workloads": ["capacity-pressure"]},
        "86971622417ed430253c548796005b879b96dfc257103b80e5730d2fa74f324c",
        "20dda4574b1d845346130c6e17c934c8ec456650fd7d92a34cf8b904a7db2302",
    ),
    "fig10": (
        {"scale": 0.02, "flip_thresholds": [6250, 3125],
         "attack_seeds": [31, 41]},
        "d92d893d4691c66a4f2527366c5ff01e8bb58ce67ef57e3af209769b42f3dfcb",
        "061ff4a9c5d983be9dc9e6e1694923eba2491898c92189ee43c1028046921db6",
    ),
    "fig11": (
        {"scale": 0.02, "schemes": ["graphene", "mithril"],
         "extra_workloads": ["capacity-pressure", "row-conflict-heavy"]},
        "376213389ce095afd4d2ceff246a0d37c05a04de1a0704cca459daff028097a5",
        "87ef4b649c00d91020473f91009b0067de48b1fffa5ed1ed570ae0031963ee0e",
    ),
}


@pytest.mark.parametrize("name", sorted(SIM_ROW_PINS))
def test_sim_experiment_rows_are_pinned(name):
    import hashlib

    from repro.experiments.runner import driver, run_experiment

    params, rows_pin, jobs_pin = SIM_ROW_PINS[name]
    plan, _context = driver(name).build_plan(**params)
    jobs = "".join(job.job_hash() for job in plan.jobs)
    rows = json.dumps(run_experiment(name, use_cache=False, **params))
    assert hashlib.sha256(jobs.encode()).hexdigest() == jobs_pin
    assert hashlib.sha256(rows.encode()).hexdigest() == rows_pin
