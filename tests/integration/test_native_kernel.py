"""The native drain kernel against the python event loop.

The kernel (``repro/sim/_kernel.c``, loaded by :mod:`repro.sim.kernel`)
runs every covered system: each bank ``none``, Mithril / Mithril+,
BlockHammer, Graphene, PARA, PARFM, TWiCe or CBT, stock components
with no instance-patched hook, pristine, no probe, no cycle limit.
This battery pins it to the python loop it replaces there:

* every golden record runs on the kernel, byte-identical to the golden
  file and to the python loop, and so does every scheme of the
  ``paper-scale`` campaign and of fig11 at its stock configuration;
* hypothesis-drawn covered configurations (scheme mix, workload, seed,
  FlipTH, table, filter and tree sizes, RFM threshold, AdTH, blacklist
  threshold, reset interval, PARA probability, scheduler, page policy,
  hammer tracking) give equal results *and* equal post-run state on
  every simulator object, including each CbS bucket's FIFO order,
  every filter counter, the BlockHammer, Graphene and TWiCe dicts'
  insertion order, PARA's and PARFM's random state and CBT's tree;
* targeted cases reach the throttle's abstain and retry paths, CBF
  rotation, Graphene's reset with ARR, TWiCe's pruning and CBT's
  splits and range refreshes;
* everything outside the coverage predicate — including a hook patched
  on an instance after the system was built — and a host whose kernel
  cannot be built, takes the python loop with identical results.

When a C compiler is on PATH the kernel must load: the battery fails
instead of skipping, so a compile error cannot hide behind the
fallback.
"""

import dataclasses
import json
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.config import paper_default_config
from repro.core.mithril import MithrilScheme
from repro.engine.cache import result_to_dict
from repro.engine.catalog import build_config
from repro.engine.executor import materialize_job
from repro.engine.job import SimJob, WorkloadSpec
from repro.mc.scheduler import BlissScheduler, FrFcfsScheduler
from repro.mitigations.blockhammer import BlockHammerScheme
from repro.mitigations.cbt import CbtScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.mitigations.para import ParaScheme
from repro.mitigations.parfm import ParfmScheme
from repro.mitigations.twice import TwiceScheme
from repro.params import DramTimings
from repro.protection import NoProtection
from repro.sim import kernel
from repro.sim.system import make_system
from repro.types import MemoryRequest, RowAddress
from repro.workloads.trace import CoreTrace

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "golden" / "simulation_results.json"
)
COVERED_SCHEMES = (
    "none", "mithril", "mithril+", "blockhammer", "graphene", "para",
    "parfm", "twice", "cbt",
)


@pytest.fixture(scope="module", autouse=True)
def native():
    """The loaded kernel; a host with a compiler must produce one."""
    module = kernel.load()
    if module is None:
        if shutil.which(kernel._compiler()[0]):
            pytest.fail(
                "a C compiler is on PATH but the native kernel did not load"
            )
        pytest.skip("no C compiler: every run takes the python drain")
    return module


def _build(job, factory=None, backend="native", **overrides):
    traces, job_factory, config, rfm_th = materialize_job(job)
    return make_system(
        traces,
        scheme_factory=factory or job_factory,
        config=config,
        rfm_th=overrides.pop("rfm_th", rfm_th),
        flip_th=job.flip_th,
        mlp=job.mlp,
        track_hammer=job.track_hammer,
        backend=backend,
        **overrides,
    )


def _python_run(system, monkeypatch, max_cycles=None):
    """Run ``system`` with the kernel reported unavailable (the
    fallback of a host without a compiler: the python loop)."""
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "load", lambda: None)
        return system.run(max_cycles=max_cycles)


def _state(system):
    """Every piece of post-run state the drains write."""
    banks = []
    for controller in system.banks:
        bank = controller.bank
        record = {
            "open_row": bank.open_row,
            "timing": (
                bank.ready_cycle, bank._last_act_cycle, bank.act_count,
                bank.pre_count, bank.access_count, bank.refresh_blocks,
            ),
            "controller": (
                controller._consecutive_hits, controller.arr_stall_cycles,
                controller.rfm_stall_cycles, controller.refresh_stall_cycles,
                len(controller.queue),
            ),
            "refresh": (
                controller.refresh._next_tick,
                controller.refresh._group_cursor,
                controller.refresh.ticks_processed,
            ),
            "energy": dataclasses.astuple(controller.energy),
            "stats": dataclasses.astuple(controller.scheme.stats),
            "bus": controller.channel_state.bus_free_cycle,
            "faw": list(bank.faw._recent),
        }
        hammer = controller.hammer
        if hammer is not None:
            record["hammer"] = (
                list(hammer._disturbance.items()), list(hammer.flips),
                hammer.max_disturbance, hammer.max_disturbance_row,
            )
        rfm = controller.rfm_logic
        if rfm is not None:
            record["rfm"] = (
                rfm.raa.value, rfm.rfm_issued, rfm.rfm_elided, rfm.mrr_reads,
            )
        scheme = controller.scheme
        if isinstance(scheme, MithrilScheme):
            summary = scheme.table._summary
            record["cbs"] = (
                list(summary._counts.items()),
                [(count, list(rows))
                 for count, rows in summary._buckets.items()],
                summary._min_count, summary.evictions,
                summary._total_observed, scheme.table._max_spread_seen,
                summary.max_entry(), summary.min_entry(),
            )
        elif isinstance(scheme, BlockHammerScheme):
            cbf = scheme.cbf
            record["blockhammer"] = (
                [(list(f._counters), f._total) for f in cbf._filters],
                cbf._active, cbf._since_swap,
                list(scheme._release.items()), scheme.blacklisted_rows_seen,
            )
        elif isinstance(scheme, GrapheneScheme):
            table = scheme.table
            record["graphene"] = (
                list(table._counts.items()),
                [(count, list(rows))
                 for count, rows in table._buckets.items()],
                table._min_count, table.evictions, table._total_observed,
                table.max_entry(), table.min_entry(),
                list(scheme._next_trigger.items()), scheme._next_reset,
                scheme.resets,
            )
        elif isinstance(scheme, ParaScheme):
            record["para"] = scheme._rng.getstate()
        elif isinstance(scheme, ParfmScheme):
            record["parfm"] = (
                scheme._rng.getstate(), scheme._sample,
                scheme._interval_acts,
            )
        elif isinstance(scheme, TwiceScheme):
            record["twice"] = (
                [(row, entry.act_count, entry.life)
                 for row, entry in scheme._entries.items()],
                scheme.max_entries_seen, scheme.pruned,
                scheme._next_checkpoint,
            )
        elif isinstance(scheme, CbtScheme):
            record["cbt"] = (
                scheme.refreshed_rows_histogram, scheme.tree_depth,
                scheme.leaf_count, scheme._counters_used,
                _tree(scheme._root),
            )
        banks.append(record)
    schedulers = [
        (s._last_core, s._streak, list(s._blacklist_until.items()))
        for s in system._schedulers if isinstance(s, BlissScheduler)
    ]
    cores = [
        (core.index, core.outstanding_reads, core.next_issue_cycle,
         core.stalled_on_mlp, core.reads_issued, core.writes_issued)
        for core in system.cores
    ]
    return {
        "banks": banks,
        "schedulers": schedulers,
        "cores": cores,
        "served": list(system._core_served),
        "last": list(system._core_last_completion),
        "hits": (system.row_hits, system.row_misses),
        "seq": system._seq,
    }


def _tree(node):
    """A CBT (sub)tree as nested (lo, hi, count, left, right) tuples."""
    if node is None:
        return None
    return (node.lo, node.hi, node.count, _tree(node.left),
            _tree(node.right))


def _assert_same_run(make, monkeypatch):
    """Kernel and python loop agree on results and state."""
    native_system = make()
    python_system = make()
    native_result = native_system.run()
    assert native_system.drain_path == "kernel"
    python_result = _python_run(python_system, monkeypatch)
    assert python_system.drain_path == "python"
    assert native_result == python_result
    assert _state(native_system) == _state(python_system)
    return native_result


# ----------------------------------------------------------------------
# goldens
# ----------------------------------------------------------------------


def _covered_records():
    records = json.loads(GOLDEN_PATH.read_text())
    return [r for r in records if r["job"]["scheme"] in COVERED_SCHEMES]


def _job_from_canonical(data) -> SimJob:
    return SimJob(
        workload=WorkloadSpec(
            kind=data["workload"]["kind"],
            params=tuple(tuple(p) for p in data["workload"]["params"]),
        ),
        scheme=data["scheme"],
        scheme_params=tuple(tuple(p) for p in data["scheme_params"]),
        flip_th=data["flip_th"],
        rfm_th=data["rfm_th"],
        scale=data["scale"],
        mlp=data["mlp"],
        max_cycles=data["max_cycles"],
        track_hammer=data["track_hammer"],
        config_overrides=tuple(tuple(p) for p in data["config_overrides"]),
    )


COVERED = _covered_records()


def test_every_golden_is_covered():
    assert len(COVERED) == len(json.loads(GOLDEN_PATH.read_text())) == 24


@pytest.mark.parametrize(
    "record", COVERED,
    ids=[f"{r['job']['workload']['kind']}-{r['job']['scheme']}"
         for r in COVERED],
)
def test_covered_golden_runs_on_kernel(record, monkeypatch):
    job = _job_from_canonical(record["job"])
    result = _assert_same_run(lambda: _build(job), monkeypatch)
    canonical = json.dumps(result_to_dict(result), sort_keys=True)
    assert canonical == json.dumps(record["result"], sort_keys=True)


# ----------------------------------------------------------------------
# hypothesis-drawn covered configurations
# ----------------------------------------------------------------------

WORKLOADS = [
    ("mix-high", {}),
    ("mix-blend", {}),
    ("fft", {}),
    ("radix", {}),
    ("attack", {"pattern": "multi-sided"}),
    ("attack", {"pattern": "bh-adversarial"}),
    ("pagerank", {}),
]


@st.composite
def covered_configs(draw):
    kind, params = draw(st.sampled_from(WORKLOADS))
    return {
        "kind": kind,
        "params": params,
        "seed": draw(st.integers(0, 50)),
        "scale": draw(st.sampled_from([0.05, 0.1, 0.2])),
        "flip_th": draw(st.sampled_from([40, 300, 1500, 6250])),
        # per bank: a covered scheme; a pattern cycled over the banks
        # covers uniform and mixed systems alike (hypothesis favours
        # the first choices, so the trackers with the most paths lead)
        "banks": draw(st.lists(
            st.sampled_from(COVERED_SCHEMES[::-1]), min_size=1, max_size=3
        )),
        "n_entries": draw(st.sampled_from([None, 1, 3, 16])),
        "rfm_th": draw(st.sampled_from([None, 2, 8, 40])),
        "adaptive_th": draw(st.sampled_from([0, 1, 4, 200])),
        "blast_radius": draw(st.integers(1, 3)),
        # BlockHammer: filter size, blacklist threshold and a tCBF
        # short enough (in ns) to rotate the filters mid-run
        "cbf_size": draw(st.sampled_from([8, 64, 1024])),
        "n_bl": draw(st.sampled_from([2, 8, 64])),
        "tcbf_ns": draw(st.sampled_from([2_000.0, 20_000.0, 32e6])),
        # Graphene, TWiCe and CBT: ARR thresholds from a small FlipTH,
        # and victim clipping at a small bank (all the ARR schemes)
        "graphene_flip_th": draw(st.sampled_from([8, 40, 300])),
        "reset_interval": draw(st.sampled_from([None, 700, 9_000])),
        "scheme_rows": draw(st.sampled_from([65536, 300])),
        # PARA: probability (None: derived from FlipTH) and seed
        "probability": draw(st.sampled_from([None, 0.0, 0.05, 0.5, 1.0])),
        "rng_seed": draw(st.integers(0, 2**40)),
        # TWiCe: tREFW in tREFIs, short enough to prune mid-run
        "twice_intervals": draw(st.sampled_from([None, 2, 64])),
        # CBT: counter budget and split divisor
        "num_counters": draw(st.sampled_from([None, 3, 32])),
        "split_divisor": draw(st.sampled_from([2, 8])),
        "scheduler": draw(st.sampled_from(["bliss", "frfcfs"])),
        "page_policy": draw(
            st.sampled_from(["open", "closed", "minimalist-open"])
        ),
        "track_hammer": draw(st.booleans()),
    }


def _factory(draw_config):
    paper = paper_default_config(1500)
    n_entries = draw_config["n_entries"] or paper.n_entries
    rfm_th = draw_config["rfm_th"] or paper.rfm_th
    pattern = draw_config["banks"]
    built = []

    def factory():
        name = pattern[len(built) % len(pattern)]
        if name == "none":
            scheme = NoProtection()
        elif name == "blockhammer":
            scheme = BlockHammerScheme(
                flip_th=draw_config["n_bl"] * 4,
                timings=dataclasses.replace(
                    DramTimings(), trefw=draw_config["tcbf_ns"]
                ),
                cbf_size=draw_config["cbf_size"],
                n_bl=draw_config["n_bl"],
            )
        elif name == "graphene":
            scheme = GrapheneScheme(
                flip_th=draw_config["graphene_flip_th"],
                rows_per_bank=draw_config["scheme_rows"],
                n_entries=draw_config["n_entries"],
                reset_interval_cycles=draw_config["reset_interval"],
            )
        elif name == "para":
            scheme = ParaScheme(
                flip_th=draw_config["graphene_flip_th"],
                rows_per_bank=draw_config["scheme_rows"],
                seed=draw_config["rng_seed"] + len(built),
                probability=draw_config["probability"],
            )
        elif name == "parfm":
            scheme = ParfmScheme(
                rows_per_bank=draw_config["scheme_rows"],
                blast_radius=draw_config["blast_radius"],
                seed=draw_config["rng_seed"],
            )
        elif name == "twice":
            timings = DramTimings()
            if draw_config["twice_intervals"]:
                timings = dataclasses.replace(
                    timings,
                    trefw=timings.trefi * draw_config["twice_intervals"],
                )
            scheme = TwiceScheme(
                flip_th=draw_config["graphene_flip_th"],
                rows_per_bank=draw_config["scheme_rows"],
                timings=timings,
            )
        elif name == "cbt":
            # every trace row must lie in the tree (python raises)
            scheme = CbtScheme(
                flip_th=max(300, draw_config["graphene_flip_th"]),
                num_counters=draw_config["num_counters"],
                split_divisor=draw_config["split_divisor"],
            )
        else:
            scheme = MithrilScheme(
                n_entries=n_entries,
                rfm_th=rfm_th,
                adaptive_th=draw_config["adaptive_th"],
                plus=name == "mithril+",
                blast_radius=draw_config["blast_radius"],
                counter_bits=62,
            )
        built.append(scheme)
        return scheme

    return factory, rfm_th


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(config=covered_configs())
def test_drawn_covered_configs_match_python_drain(config, monkeypatch):
    spec = WorkloadSpec.make(
        config["kind"], scale=config["scale"], seed=config["seed"],
        **config["params"],
    )
    job = SimJob(
        workload=spec,
        flip_th=config["flip_th"],
        scale=config["scale"],
        track_hammer=config["track_hammer"],
        config_overrides=(
            ("page_policy", config["page_policy"]),
            ("scheduler", config["scheduler"]),
        ),
    )

    def make():
        factory, rfm_th = _factory(config)
        return _build(job, factory=factory, rfm_th=rfm_th)

    _assert_same_run(make, monkeypatch)


def test_two_channel_organization(monkeypatch):
    """Several channels: per-channel bus, tFAW window and BLISS state."""
    spec = WorkloadSpec.make("mix-high", scale=0.1, seed=3)
    job = SimJob(workload=spec, scheme="mithril+", flip_th=1500,
                 scale=0.1)
    traces, factory, _config, rfm_th = materialize_job(job)
    config = build_config((("organization.channels", 2),
                           ("organization.banks_per_rank", 4)))

    def make():
        return make_system(traces, scheme_factory=factory, config=config,
                           rfm_th=rfm_th, flip_th=job.flip_th,
                           backend="native")

    _assert_same_run(make, monkeypatch)


def test_wrap_window_overflow_message_matches(monkeypatch):
    """A counter window too small for the spread raises the same
    OverflowError on both drains."""
    spec = WorkloadSpec.make("attack", scale=0.1, pattern="multi-sided",
                             seed=31)
    job = SimJob(workload=spec, flip_th=1500, scale=0.1)

    def make():
        return _build(
            job, factory=lambda: MithrilScheme(
                n_entries=4, rfm_th=1000, counter_bits=3
            ), rfm_th=1000,
        )

    with pytest.raises(OverflowError) as native_error:
        make().run()
    with pytest.raises(OverflowError) as python_error:
        _python_run(make(), monkeypatch)
    assert "wrapping window" in str(native_error.value)
    assert str(native_error.value) == str(python_error.value)


def test_drain_path_reaches_telemetry(tmp_path, monkeypatch):
    """The sim.drain span and sim.run.done event say which drain ran."""
    monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "telemetry"))
    telemetry.reset()
    job = SimJob(workload=WorkloadSpec.make("fft", scale=0.05, seed=2),
                 scheme="mithril", flip_th=6250, scale=0.05)
    _build(job).run()
    _python_run(_build(job), monkeypatch)
    _build(SimJob(workload=job.workload, scheme="para",
                  flip_th=6250, scale=0.05)).run()
    _build(job, backend="python").run()
    ring = list(telemetry.get().ring)
    spans = [r["attrs"]["path"] for r in ring
             if r["kind"] == "span" and r["name"] == "sim.drain"]
    done = [r["path"] for r in ring if r["kind"] == "sim.run.done"]
    assert spans == done == ["kernel", "python", "kernel", "python"]


# ----------------------------------------------------------------------
# BlockHammer throttle paths and Graphene resets, case by case
# ----------------------------------------------------------------------


def _reads(name, rows, bank=0):
    """A core reading ``rows`` on one bank, one request per cycle."""
    n = len(rows)
    return CoreTrace(name, gap_cycles=[1] * n, bank_index=[bank] * n,
                     row=rows, column=[0] * n, is_write=[False] * n,
                     instructions=[1] * n)


def _small_system(traces, factory, scheduler="frfcfs", mlp=4,
                  backend="native"):
    return make_system(
        traces, scheme_factory=factory,
        config=build_config((("scheduler", scheduler),)),
        flip_th=1000, mlp=mlp, backend=backend,
    )


def _blacklisting_blockhammer(tcbf_ns=200_000.0):
    """Two ACTs blacklist a row for tens of thousands of cycles."""
    return BlockHammerScheme(
        flip_th=8, cbf_size=64, n_bl=2,
        timings=dataclasses.replace(DramTimings(), trefw=tcbf_ns),
    )


def _abstentions(make_scalar, scheduler_class, monkeypatch):
    """A scalar run of ``make_scalar()`` and how often its scheduler
    found every queued request throttled."""
    original = scheduler_class.pick
    abstained = []

    def pick(self, queue, open_row, cycle, release_of):
        index = original(self, queue, open_row, cycle, release_of)
        abstained.append(index is None)
        return index

    with monkeypatch.context() as patch:
        patch.setattr(scheduler_class, "pick", pick)
        result = make_scalar().run()
    return result, sum(abstained)


@pytest.mark.parametrize(
    "scheduler, scheduler_class",
    [("frfcfs", FrFcfsScheduler), ("bliss", BlissScheduler)],
)
def test_all_throttled_queue_waits_for_earliest_release(
    scheduler, scheduler_class, monkeypatch
):
    """Two cores hammer two blacklisted rows: every queued request is
    throttled, the scheduler abstains and the bank retries at the
    earliest release (FR-FCFS's min((release, arrival)) and BLISS's
    earliest-then-oldest fallback)."""
    traces = [_reads(f"c{i}", [10, 20] * 12) for i in range(2)]

    def make(backend="native"):
        return _small_system(traces, _blacklisting_blockhammer, scheduler,
                             backend=backend)

    result = _assert_same_run(make, monkeypatch)
    scalar, abstained = _abstentions(
        lambda: make("python"), scheduler_class, monkeypatch
    )
    assert abstained > 0
    assert scalar == result


def test_single_throttled_request_retries_at_release(monkeypatch):
    """One core with one outstanding read: the queue never holds more
    than the throttled request, which waits out its release."""
    traces = [_reads("c0", [10, 20] * 8)]

    def make():
        return _small_system(traces, _blacklisting_blockhammer, mlp=1)

    _assert_same_run(make, monkeypatch)
    system = make()
    system.run()
    scheme = system.banks[0].scheme
    assert scheme.stats.throttle_events > 0
    assert system._core_last_completion[0] > scheme.delay_cycles


def test_filter_rotation_mid_run(monkeypatch):
    """A tCBF of a few dozen ACTs rotates the filter pair many times;
    the retired filter is cleared in place."""
    rows = [10 + (i % 7) for i in range(300)]
    traces = [_reads("c0", rows), _reads("c1", rows[::-1])]

    def make():
        return _small_system(
            traces, lambda: _blacklisting_blockhammer(tcbf_ns=2_000.0)
        )

    _assert_same_run(make, monkeypatch)
    system = make()
    system.run()
    scheme = system.banks[0].scheme
    assert scheme.stats.acts_observed > 4 * scheme.cbf.half_epoch
    assert all(
        f._total < scheme.stats.acts_observed for f in scheme.cbf._filters
    )


def test_graphene_reset_with_arr_and_hammer_refresh(monkeypatch):
    """A short reset interval clears the table mid-run; threshold
    crossings before and after it issue ARRs that refresh the hammer
    model's victims and stall the bank."""
    rows = [10, 20, 30] * 60

    def make():
        return _small_system(
            [_reads("c0", rows), _reads("c1", rows[1:] + rows[:1])],
            lambda: GrapheneScheme(flip_th=8, n_entries=2,
                                   reset_interval_cycles=3_000),
        )

    _assert_same_run(make, monkeypatch)
    system = make()
    system.run()
    controller = system.banks[0]
    scheme = controller.scheme
    assert scheme.resets > 0
    assert scheme.stats.arr_requests > 0
    assert controller.arr_stall_cycles > 0
    assert scheme.table.evictions > 0


@pytest.mark.parametrize(
    "row, path", [((1 << 61) - 2, "kernel"), ((1 << 61) - 1, "python")]
)
def test_blockhammer_row_hash_range(row, path, monkeypatch):
    """The kernel hashes a row as itself, which python's int hash
    matches only below 2**61 - 1; a larger trace row keeps a
    BlockHammer system on the python loop."""
    traces = [_reads("c0", [5, row, 5, row] * 4)]

    def make():
        return _small_system(traces, _blacklisting_blockhammer)

    system = make()
    result = system.run()
    assert system.drain_path == path
    assert _python_run(make(), monkeypatch) == result


def test_twice_prunes_and_refreshes(monkeypatch):
    """A tREFW of two tREFIs prunes cold entries at every checkpoint
    while hot rows still reach the ARR threshold."""
    rows = [10, 20, 30, 10, 20, 10] * 40 + list(range(100, 160))
    timings = DramTimings()
    short = dataclasses.replace(timings, trefw=2 * timings.trefi)

    def make():
        return _small_system(
            [_reads("c0", rows), _reads("c1", rows[::-1])],
            lambda: TwiceScheme(flip_th=40, rows_per_bank=300,
                                timings=short),
        )

    _assert_same_run(make, monkeypatch)
    system = make()
    system.run()
    scheme = system.banks[0].scheme
    assert scheme.pruned > 0
    assert scheme.stats.arr_requests > 0
    assert scheme.max_entries_seen > len(scheme._entries)


def test_cbt_splits_and_range_refreshes(monkeypatch):
    """CBT splits until its counter budget runs out, and a leaf at its
    threshold refreshes its whole row range plus both neighbours."""
    rows = [(17 * i) % 300 for i in range(400)] + [5, 6] * 60

    def make():
        return _small_system(
            [_reads("c0", rows)],
            lambda: CbtScheme(flip_th=40, rows_per_bank=300,
                              num_counters=12, split_divisor=4),
        )

    _assert_same_run(make, monkeypatch)
    system = make()
    system.run()
    scheme = system.banks[0].scheme
    assert scheme._counters_used == scheme.num_counters
    assert max(scheme.refreshed_rows_histogram) > 3
    assert system.banks[0].arr_stall_cycles > 0


@pytest.mark.parametrize("scheme", ["para", "parfm"])
def test_random_state_round_trip(scheme, monkeypatch):
    """PARA and PARFM draw from each scheme's own random.Random: the
    kernel starts from its state and hands the advanced state back."""
    def make():
        return _build(_job(scheme, flip_th=1500))

    _assert_same_run(make, monkeypatch)
    system = make()
    before = [c.scheme._rng.getstate() for c in system.banks]
    system.run()
    after = [c.scheme._rng.getstate() for c in system.banks]
    assert any(a != b for a, b in zip(after, before))


def _campaign_schemes():
    """One stock job per distinct (scheme, FlipTH) of the paper-scale
    plan and of fig11's default schemes."""
    from repro.campaigns import get_campaign, plan_campaign
    from repro.experiments import fig11

    jobs = {}
    plan = plan_campaign(get_campaign("paper-scale"))
    for job in plan.jobs.values():
        jobs.setdefault((job.scheme, job.flip_th), job)
    for name in fig11.DEFAULT_SCHEMES:
        for flip_th in fig11.PAPER_FLIP_THRESHOLDS:
            jobs.setdefault((name, flip_th), SimJob(
                workload=WorkloadSpec.make("mix-high", scale=0.02),
                scheme=name, flip_th=flip_th, scale=0.02,
            ))
    assert {name for name, _ in jobs} == set(COVERED_SCHEMES)
    return [jobs[key] for key in sorted(jobs)]


def test_every_campaign_scheme_runs_on_kernel():
    """Every scheme the paper-scale campaign and fig11 run, at its
    stock configuration, drains in the kernel (on a small workload)."""
    tiny = WorkloadSpec.make("mix-high", scale=0.02, seed=5)
    for job in _campaign_schemes():
        system = _build(dataclasses.replace(job, workload=tiny))
        system.run()
        assert system.drain_path == "kernel", (job.scheme, job.flip_th)


# ----------------------------------------------------------------------
# everything else takes the python loop
# ----------------------------------------------------------------------


def _job(scheme="mithril", flip_th=1500, **knobs):
    spec = WorkloadSpec.make("mix-high", scale=0.1, seed=11)
    return SimJob(workload=spec, scheme=scheme, flip_th=flip_th, scale=0.1,
                  **knobs)


def _assert_python_path(make, monkeypatch, max_cycles=None, path="python"):
    system = make()
    result = system.run(max_cycles=max_cycles)
    assert system.drain_path == path
    reference = make()
    assert _python_run(reference, monkeypatch, max_cycles) == result
    assert _state(system) == _state(reference)


class TestFallback:
    @pytest.mark.parametrize("scheme", ["parfm", "para", "twice", "cbt"])
    def test_uncovered_schemes(self, scheme, monkeypatch):
        """A subclass of a stock scheme is not covered, even one that
        changes nothing."""
        traces, factory, config, rfm_th = materialize_job(_job(scheme))

        def custom():
            scheme = factory()
            scheme.__class__ = type("Custom", (type(scheme),), {})
            return scheme

        def make():
            return make_system(traces, scheme_factory=custom,
                               config=config, rfm_th=rfm_th, flip_th=1500,
                               backend="native")

        _assert_python_path(make, monkeypatch)

    def test_hook_patched_after_build_is_honored(self, monkeypatch):
        """An instance hook patched after the system was built (here a
        counting wrap of every bank's ``_on_activated``) keeps the run
        in python, where it runs."""
        counts = []

        def make():
            system = _build(_job("para"))
            count = [0]
            for controller in system.banks:
                def counted(row, result, _inner=controller._on_activated):
                    count[0] += 1
                    return _inner(row, result)

                controller._on_activated = counted
            counts.append(count)
            return system

        _assert_python_path(make, monkeypatch)
        assert counts[0][0] > 0

    def test_float_parameter_on_one_bank(self, monkeypatch):
        """A float where the kernel needs an int, on one bank whose
        neighbours hold the equal int, keeps the run in python."""
        def make():
            system = _build(_job("graphene"))
            scheme = system.banks[3].scheme
            scheme.threshold = float(scheme.threshold)
            return system

        _assert_python_path(make, monkeypatch)

    def test_cbt_row_outside_tree_stays_python(self):
        """CBT rejects a row outside its bank; the kernel leaves that
        run to python, which raises the same error as before."""
        traces = [_reads("c0", [5, 70_000, 5])]
        system = _small_system(traces, lambda: CbtScheme(flip_th=40))
        with pytest.raises(ValueError, match="out of range"):
            system.run()
        assert system.drain_path == "python"

    def test_instance_patched_throttle_release(self, monkeypatch):
        def make():
            system = _build(_job("blockhammer"))
            scheme = system.banks[0].scheme
            scheme.throttle_release = (
                lambda row, cycle, _orig=scheme.throttle_release:
                _orig(row, cycle)
            )
            return system

        _assert_python_path(make, monkeypatch)

    def test_used_filter_is_not_pristine(self, monkeypatch):
        def make():
            system = _build(_job("blockhammer"))
            system.banks[5].scheme.cbf.observe(7)
            return system

        _assert_python_path(make, monkeypatch)

    def test_tracker_shared_between_banks(self, monkeypatch):
        job = _job("graphene")

        def make():
            shared = GrapheneScheme(flip_th=job.flip_th)
            return _build(job, factory=lambda: shared)

        _assert_python_path(make, monkeypatch)

    def test_probes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROBES", str(tmp_path / "probes"))
        _assert_python_path(lambda: _build(_job()), monkeypatch)

    def test_max_cycles(self, monkeypatch):
        _assert_python_path(
            lambda: _build(_job()), monkeypatch, max_cycles=20_000
        )

    def test_queue_injected_before_run(self, monkeypatch):
        def make():
            system = _build(_job())
            controller = system.banks[3]
            controller.queue.append(MemoryRequest(
                core=0, arrival_cycle=0,
                address=RowAddress(system._bank_address[3], 77),
                is_write=True,
            ))
            return system

        _assert_python_path(make, monkeypatch)

    def test_subclassed_scheduler(self, monkeypatch):
        class PatchedBliss(BlissScheduler):
            pass

        def make():
            system = _build(_job())
            system._schedulers = [
                PatchedBliss() for _ in system._schedulers
            ]
            return system

        _assert_python_path(make, monkeypatch)

    def test_instance_patched_rfm_hook(self, monkeypatch):
        def make():
            system = _build(_job())
            scheme = system.banks[0].scheme
            scheme.on_rfm = lambda cycle, _orig=scheme.on_rfm: _orig(cycle)
            return system

        _assert_python_path(make, monkeypatch)


class TestLoader:
    @pytest.fixture
    def fresh_loader(self, tmp_path, monkeypatch):
        """A loader with no module yet and its own build directory."""
        monkeypatch.setattr(kernel, "BUILD_DIR", tmp_path / "build")
        monkeypatch.setattr(kernel, "_module", None)
        monkeypatch.setattr(kernel, "_failed", False)
        return tmp_path

    def test_missing_compiler_warns_once_and_falls_back(
        self, fresh_loader, monkeypatch
    ):
        reference = _build(_job(), backend="python").run()
        monkeypatch.setattr(
            kernel, "_compiler", lambda: [str(fresh_loader / "no-cc")]
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert kernel.load() is None
            assert kernel.load() is None
            system = _build(_job())
            assert system.run() == reference
        assert system.drain_path == "python"
        messages = [
            str(w.message) for w in caught
            if "native drain kernel" in str(w.message)
        ]
        assert len(messages) == 1

    def test_truncated_artifact_is_rebuilt(self, fresh_loader):
        path = kernel.artifact_path()
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x7fELF truncated")
        module = kernel.load()
        assert module is not None
        assert path.stat().st_size > 1000
        assert not list(path.parent.glob("*.tmp"))

    def test_artifact_name_is_keyed_by_source(self):
        path = kernel.artifact_path()
        assert path.parent == kernel.BUILD_DIR
        assert path.name.startswith("_kernel-")
        digest = path.name[len("_kernel-"):].split(".")[0]
        assert len(digest) == 16
