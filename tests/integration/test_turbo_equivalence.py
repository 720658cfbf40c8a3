"""Native and python backends agree beyond the golden matrix.

The golden suite pins the default configuration (BLISS scheduler,
minimalist-open pages).  This battery drives the native kernel's other
branches — FR-FCFS scheduling, open/closed page policies, the ARR
schemes, RFM issue, hammer tracking off, mixed schemes — and the runs
the kernel must leave to the python loop (non-default hammer blast
ranges, subclassed or instance-patched components, cycle limits, a
second run), asserting exact ``SimulationResult`` equality with the
``python`` backend and the expected drain every time.  The module and
its test ids keep the names they had when a fused python backend sat
between the two.
"""

import dataclasses
import os

import pytest

from repro.engine.executor import materialize_job
from repro.engine.job import SimJob, WorkloadSpec
from repro.mc.scheduler import BlissScheduler
from repro.sim import kernel
from repro.sim.system import make_system
from repro.workloads import trace as trace_module


def _kernel_or_python(path: str) -> str:
    """``path``, or "python" for a probed run (probes sample in the
    python loop) or on a host where the kernel cannot build."""
    if os.environ.get("REPRO_PROBES") or kernel.load() is None:
        return "python"
    return path


def _build(job, backend, factory=None, config=None):
    traces, job_factory, job_config, rfm_th = materialize_job(job)
    return make_system(
        traces,
        scheme_factory=factory or job_factory,
        config=config or job_config,
        rfm_th=rfm_th,
        flip_th=job.flip_th,
        mlp=job.mlp,
        track_hammer=job.track_hammer,
        backend=backend,
    )


def _run_both(job, path="kernel", prepare=lambda system: None, **build):
    """Run ``job`` on both backends (``prepare`` edits each built
    system); the native run takes ``path``.  Returns both systems."""
    systems = {}
    results = {}
    for backend in ("python", "native"):
        system = _build(job, backend, **build)
        prepare(system)
        results[backend] = system.run(max_cycles=job.max_cycles)
        systems[backend] = system
    assert systems["python"].drain_path == "python"
    assert systems["native"].drain_path == _kernel_or_python(path)
    if systems["native"].drain_path == "kernel":
        # a kernel run never builds the python loop's issue tables
        assert systems["native"]._core_flats is None
        assert all(core.entries is None for core in systems["native"].cores)
    assert results["python"] == results["native"]
    return systems


def _job(scheme, workload="mix-high", seed=11, **kwargs):
    spec = WorkloadSpec.make(workload, scale=0.2, seed=seed)
    return SimJob(workload=spec, scheme=scheme, flip_th=2500,
                  scale=0.2, **kwargs)


class TestConfigMatrix:
    @pytest.mark.parametrize("scheduler", ["bliss", "frfcfs"])
    @pytest.mark.parametrize(
        "page_policy", ["open", "closed", "minimalist-open"]
    )
    def test_scheduler_page_policy_grid(self, scheduler, page_policy):
        _run_both(
            _job(
                "mithril",
                config_overrides=(
                    ("scheduler", scheduler),
                    ("page_policy", page_policy),
                ),
            )
        )

    @pytest.mark.parametrize(
        "scheme", ["none", "mithril", "mithril+", "graphene",
                   "blockhammer", "twice", "para", "cbt"]
    )
    def test_all_schemes_frfcfs(self, scheme):
        """FR-FCFS exercises the kernel's non-BLISS pick per scheme."""
        _run_both(
            _job(scheme, config_overrides=(("scheduler", "frfcfs"),))
        )

    @pytest.mark.parametrize(
        "scheme", ["twice", "para", "cbt"]
    )
    def test_arr_schemes_generic_tracker_path(self, scheme):
        """The ARR schemes under a multi-sided attack."""
        spec = WorkloadSpec.make(
            "attack", scale=0.2, pattern="multi-sided", seed=31
        )
        _run_both(
            SimJob(workload=spec, scheme=scheme, flip_th=2500, scale=0.2)
        )

    def test_track_hammer_off(self):
        _run_both(_job("mithril", track_hammer=False))

    def test_max_cycles_cutoff(self):
        """A cycle limit is the python loop's alone."""
        _run_both(_job("mithril", max_cycles=20_000), path="python")


class TestFusabilityFallback:
    def test_subclassed_scheduler_disables_fusion(self):
        class PatchedBliss(BlissScheduler):
            pass

        def prepare(system):
            system._schedulers = [
                PatchedBliss() for _ in system._schedulers
            ]

        _run_both(_job("mithril"), path="python", prepare=prepare)

    def test_nondefault_blast_weights_drop_hammer_fast_path(self):
        def prepare(system):
            for controller in system.banks:
                controller.hammer.blast_weights = (1.0, 0.25)

        _run_both(_job("mithril"), path="python", prepare=prepare)

    def test_instance_patched_scheme_uses_generic_call(self):
        """A scheme hook patched on the instance after the build keeps
        the run in python, where the patch runs."""
        calls = []

        def prepare(system):
            target = system.banks[0].scheme
            original = type(target).on_activate

            def spy(row, cycle):
                calls.append(row)
                return original(target, row, cycle)

            target.on_activate = spy

        _run_both(_job("mithril"), path="python", prepare=prepare)
        assert calls  # the patched hook really ran

    def test_rerun_refused(self):
        system = _build(_job("none"), "native")
        system.run()
        with pytest.raises(RuntimeError, match="only run once"):
            system.run()


class TestArenas:
    """Every stock scheme runs in the kernel, uniform or mixed,
    byte-identical to the python loop, and leaves the same post-run
    state on the per-bank objects."""

    @pytest.mark.parametrize(
        "scheme", ["none", "mithril", "mithril+", "graphene",
                   "blockhammer", "twice"]
    )
    def test_arena_engagement_and_equality(self, scheme):
        _run_both(_job(scheme))

    def test_mixed_schemes_fused_without_arena(self):
        """Alternating stock schemes drain in the kernel, exactly."""
        from repro.core.mithril import MithrilScheme
        from repro.mitigations.graphene import GrapheneScheme

        job = _job("mithril")

        def alternating_factory():
            state = {"count": 0}

            def factory():
                state["count"] += 1
                if state["count"] % 2:
                    return MithrilScheme()
                return GrapheneScheme(flip_th=job.flip_th)

            return factory

        systems = {}
        for backend in ("python", "native"):
            systems[backend] = _build(
                job, backend, factory=alternating_factory()
            )
        results = {name: s.run() for name, s in systems.items()}
        assert systems["native"].drain_path == _kernel_or_python("kernel")
        assert results["python"] == results["native"]

    def test_raa_write_back_matches_scalar(self):
        """Post-run RAA counts on each bank's RfmIssueLogic equal the
        python loop's."""
        systems = _run_both(_job("mithril+"))
        assert [
            controller.rfm_logic.raa.value
            for controller in systems["native"].banks
        ] == [
            controller.rfm_logic.raa.value
            for controller in systems["python"].banks
        ]

    def test_blockhammer_write_back_matches_scalar(self):
        """Post-run CBF counters, rotation phase and blacklists on the
        scheme objects equal the python loop's; the kernel hashes in C
        and leaves every probe-index cache empty."""
        spec = WorkloadSpec.make(
            "attack", scale=0.2, pattern="multi-sided", seed=31
        )
        job = SimJob(workload=spec, scheme="blockhammer",
                     flip_th=2500, scale=0.2)
        systems = _run_both(job)
        if systems["native"].drain_path == "kernel":
            assert not any(
                f._index_cache for controller in systems["native"].banks
                for f in controller.scheme.cbf._filters
            )
        for python, native in zip(systems["python"].banks,
                                  systems["native"].banks):
            python, native = python.scheme, native.scheme
            assert python._release == native._release
            assert python.blacklisted_rows_seen == native.blacklisted_rows_seen
            assert python.cbf._active == native.cbf._active
            assert python.cbf._since_swap == native.cbf._since_swap
            for python_filter, native_filter in zip(
                python.cbf._filters, native.cbf._filters
            ):
                assert list(python_filter._counters) == list(
                    native_filter._counters
                )


class TestChunkedDecode:
    """The python loop's issue tables built from small trace-iterator
    blocks are byte-identical to one-block tables and to the kernel."""

    @pytest.mark.parametrize(
        "scheme", ["none", "mithril", "graphene", "blockhammer"]
    )
    def test_chunked_vs_scalar(self, scheme, monkeypatch):
        monkeypatch.setattr(trace_module, "_ITER_BLOCK", 64)
        _run_both(_job(scheme))

    def test_chunked_equals_unchunked_turbo(self, monkeypatch):
        job = _job("mithril")
        full = _build(job, "python").run()
        monkeypatch.setattr(trace_module, "_ITER_BLOCK", 64)
        chunked_system = _build(job, "python")
        assert chunked_system.run() == full
        # the tables really crossed blocks
        assert all(len(core.entries) > 64 for core in chunked_system.cores)


class TestScaleInvariants:
    def test_config_replace_timings_still_identical(self):
        from repro.params import DEFAULT_CONFIG

        _run_both(
            _job("blockhammer"), config=dataclasses.replace(DEFAULT_CONFIG)
        )
