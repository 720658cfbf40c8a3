"""Scalar and turbo backends agree beyond the golden matrix.

The golden suite pins the default configuration (BLISS scheduler,
minimalist-open pages).  This battery drives the *other* fused-path
branches — FR-FCFS scheduling, open/closed page policies, ARR schemes
through the generic tracker call, RFM issue, non-default hammer blast
ranges (which drop the hammer fast path), and non-fusable component
subclasses (which drop the whole fused drain) — asserting exact
``SimulationResult`` equality between backends every time.
"""

import dataclasses

import pytest

from repro.engine.executor import materialize_job
from repro.engine.job import SimJob, WorkloadSpec
from repro.mc.scheduler import BlissScheduler
from repro.sim import kernel, soa
from repro.sim.system import SimulatedSystem, make_system
from repro.sim.turbo import TurboSimulatedSystem


def _run_both(job, expect_fused=True):
    traces, factory, config, rfm_th = materialize_job(job)
    results = {}
    for backend in ("scalar", "turbo"):
        system = make_system(
            traces,
            scheme_factory=factory,
            config=config,
            rfm_th=rfm_th,
            flip_th=job.flip_th,
            mlp=job.mlp,
            track_hammer=job.track_hammer,
            backend=backend,
        )
        if backend == "turbo":
            assert isinstance(system, TurboSimulatedSystem)
            assert system._fused is expect_fused
        results[backend] = system.run(max_cycles=job.max_cycles)
        if backend == "turbo":
            # turbo reads the trace columns; it never builds entries
            assert all(core.entries is None for core in system.cores)
    assert results["scalar"] == results["turbo"]
    return results["scalar"]


def _assert_prefilled_caches(system, traces):
    """Every bank's first filters share one cache dict, its second
    filters another, and both already hold every trace row."""
    rows = {int(row) for trace in traces for row in trace.row}
    pairs = [controller.scheme.cbf._filters for controller in system.banks]
    for side in (0, 1):
        cache = pairs[0][side]._index_cache
        assert all(pair[side]._index_cache is cache for pair in pairs)
        assert rows <= cache.keys()
    assert pairs[0][0]._index_cache is not pairs[0][1]._index_cache


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
        """FR-FCFS exercises the non-BLISS fused branch per scheme."""
        _run_both(
            _job(scheme, config_overrides=(("scheduler", "frfcfs"),))
        )

    @pytest.mark.parametrize(
        "scheme", ["twice", "para", "cbt"]
    )
    def test_arr_schemes_generic_tracker_path(self, scheme):
        """Schemes without an inline specialization use the real call."""
        spec = WorkloadSpec.make(
            "attack", scale=0.2, pattern="multi-sided", seed=31
        )
        _run_both(
            SimJob(workload=spec, scheme=scheme, flip_th=2500, scale=0.2)
        )

    def test_track_hammer_off(self):
        _run_both(_job("mithril", track_hammer=False))

    def test_max_cycles_cutoff(self):
        _run_both(_job("mithril", max_cycles=20_000))


class TestFusabilityFallback:
    def test_subclassed_scheduler_disables_fusion(self):
        class PatchedBliss(BlissScheduler):
            pass

        job = _job("mithril")
        traces, factory, config, rfm_th = materialize_job(job)
        scalar = SimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo._schedulers = [
            PatchedBliss() for _ in turbo._schedulers
        ]
        scalar._schedulers = [
            PatchedBliss() for _ in scalar._schedulers
        ]
        turbo._fused = turbo._snapshot_fusability()
        assert turbo._fused is False  # falls back to scalar handlers
        assert scalar.run() == turbo.run()

    def test_nondefault_blast_weights_drop_hammer_fast_path(self):
        job = _job("mithril")
        traces, factory, config, rfm_th = materialize_job(job)

        def build(cls):
            system = cls(
                traces, scheme_factory=factory, config=config,
                rfm_th=rfm_th, flip_th=job.flip_th,
            )
            for controller in system.banks:
                controller.hammer.blast_weights = (1.0, 0.25)
            return system

        turbo = build(TurboSimulatedSystem)
        turbo._fused = turbo._snapshot_fusability()
        assert turbo._fused is True
        assert not any(turbo._fast_hammer)  # falls back to the call
        assert build(SimulatedSystem).run() == turbo.run()

    def test_instance_patched_scheme_uses_generic_call(self):
        job = _job("mithril")
        traces, factory, config, rfm_th = materialize_job(job)
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        calls = []
        target = turbo.banks[0].scheme
        original = type(target).on_activate

        def spy(row, cycle):
            calls.append(row)
            return original(target, row, cycle)

        target.on_activate = spy
        turbo._fused = turbo._snapshot_fusability()
        assert turbo._fused is True
        from repro.sim.turbo import _ACT_GENERIC, _ACT_MITHRIL

        assert turbo._act_mode[0] == _ACT_GENERIC
        assert all(
            mode == _ACT_MITHRIL for mode in turbo._act_mode[1:]
        )
        scalar = SimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        assert scalar.run() == turbo.run()
        assert calls  # the patched hook really ran

    def test_rerun_refused(self):
        job = _job("none")
        traces, factory, config, rfm_th = materialize_job(job)
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo.run()
        with pytest.raises(RuntimeError, match="only run once"):
            turbo.run()


class TestArenas:
    """Every stock scheme runs its per-bank inline tracker block,
    uniform or mixed, byte-identical to the scalar backend, and leaves
    the same post-run state on the per-bank objects."""

    @pytest.mark.parametrize(
        "scheme", ["none", "mithril", "mithril+", "graphene",
                   "blockhammer", "twice"]
    )
    def test_arena_engagement_and_equality(self, scheme):
        _run_both(_job(scheme))

    def test_mixed_schemes_fused_without_arena(self):
        """Alternating stock schemes: each bank still gets its inline
        specialization (fused), and the drain stays exact."""
        from repro.core.mithril import MithrilScheme
        from repro.mitigations.graphene import GrapheneScheme

        job = _job("mithril")
        traces, _factory, config, rfm_th = materialize_job(job)

        def alternating_factory():
            state = {"count": 0}

            def factory():
                state["count"] += 1
                if state["count"] % 2:
                    return MithrilScheme()
                return GrapheneScheme(flip_th=job.flip_th)

            return factory

        scalar = SimulatedSystem(
            traces, scheme_factory=alternating_factory(), config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=alternating_factory(), config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        assert turbo._fused is True
        assert scalar.run() == turbo.run()

    def test_raa_write_back_matches_scalar(self):
        """Post-run RAA counts on each bank's RfmIssueLogic equal the
        scalar backend's."""
        job = _job("mithril+")
        traces, factory, config, rfm_th = materialize_job(job)
        systems = {}
        for cls in (SimulatedSystem, TurboSimulatedSystem):
            system = cls(
                traces, scheme_factory=factory, config=config,
                rfm_th=rfm_th, flip_th=job.flip_th,
            )
            system.run()
            systems[cls] = system
        scalar, turbo = systems[SimulatedSystem], systems[TurboSimulatedSystem]
        assert [
            controller.rfm_logic.raa.value for controller in turbo.banks
        ] == [
            controller.rfm_logic.raa.value for controller in scalar.banks
        ]

    def test_blockhammer_write_back_matches_scalar(self, monkeypatch):
        """Post-run CBF counters, rotation phase, and blacklists on the
        scheme objects equal the scalar backend's, on the native kernel
        and on turbo's python drain.  Only the python drain pre-hashes
        probes: its banks' two filters hold the shared, prefilled
        caches, while a kernel run leaves every cache empty."""
        spec = WorkloadSpec.make(
            "attack", scale=0.2, pattern="multi-sided", seed=31
        )
        job = SimJob(workload=spec, scheme="blockhammer",
                     flip_th=2500, scale=0.2)
        traces, factory, config, rfm_th = materialize_job(job)
        schemes = {}
        for cls, drain in (
            (SimulatedSystem, None),
            (TurboSimulatedSystem, "kernel"),
            (TurboSimulatedSystem, "fused"),
        ):
            system = cls(
                traces, scheme_factory=factory, config=config,
                rfm_th=rfm_th, flip_th=job.flip_th,
            )
            with monkeypatch.context() as patch:
                if drain == "fused":
                    patch.setattr(kernel, "load", lambda: None)
                system.run()
            if drain is not None and kernel.load() is not None:
                assert system.drain_path == drain
            if drain == "fused":
                _assert_prefilled_caches(system, traces)
            elif drain == "kernel" and system.drain_path == "kernel":
                assert not any(
                    f._index_cache for controller in system.banks
                    for f in controller.scheme.cbf._filters
                )
            schemes[drain] = [
                controller.scheme for controller in system.banks
            ]
        for scalar, turbo in (
            pair for drain in ("kernel", "fused")
            for pair in zip(schemes[None], schemes[drain])
        ):
            assert scalar._release == turbo._release
            assert scalar.blacklisted_rows_seen == turbo.blacklisted_rows_seen
            assert scalar.cbf._active == turbo.cbf._active
            assert scalar.cbf._since_swap == turbo.cbf._since_swap
            for scalar_filter, turbo_filter in zip(
                scalar.cbf._filters, turbo.cbf._filters
            ):
                assert list(scalar_filter._counters) == list(
                    turbo_filter._counters
                )


@pytest.mark.usefixtures("python_drain")
class TestChunkedDecode:
    """Decoding in small windows is byte-identical to the one-window
    decode — against both the one-window turbo run and the scalar
    backend.  The windows feed turbo's python drains, so the native
    kernel (which reads whole columns) is switched off here."""

    @pytest.mark.parametrize(
        "scheme", ["none", "mithril", "graphene", "blockhammer"]
    )
    def test_chunked_vs_scalar(self, scheme, monkeypatch):
        monkeypatch.setattr(soa, "WINDOW", 64)
        _run_both(_job(scheme))

    def test_chunked_equals_unchunked_turbo(self, monkeypatch):
        job = _job("mithril")
        traces, factory, config, rfm_th = materialize_job(job)

        def build():
            return TurboSimulatedSystem(
                traces, scheme_factory=factory, config=config,
                rfm_th=rfm_th, flip_th=job.flip_th,
            )

        full = build().run()
        monkeypatch.setattr(soa, "WINDOW", 64)
        chunked_system = build()
        assert chunked_system.run() == full
        # The windows really streamed (several loads per trace).
        assert all(window.loads > 1 for window in chunked_system._soa)


class TestScaleInvariants:
    def test_config_replace_timings_still_identical(self):
        from repro.params import DEFAULT_CONFIG

        config = dataclasses.replace(DEFAULT_CONFIG)
        job = _job("blockhammer")
        traces, factory, _config, rfm_th = materialize_job(job)
        scalar = SimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        assert scalar.run() == turbo.run()
