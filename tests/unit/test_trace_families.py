"""Unit tests: the stress families hit their documented design targets.

The bounds asserted here are :data:`repro.traces.families.
DESIGN_TARGETS` — the same numbers docs/WORKLOADS.md documents and
``repro traces synth --check`` enforces, evaluated at catalog sizing.
"""

import pytest

from repro.engine import build_workload, smoke_workload_specs, workload_kinds
from repro.engine.job import WorkloadSpec
from repro.traces import (
    DESIGN_TARGETS,
    capacity_pressure,
    characterize_trace,
    characterize_workload,
    design_violations,
    multi_channel_imbalanced,
    row_conflict_heavy,
)

FAMILIES = tuple(sorted(DESIGN_TARGETS))


class TestCatalogRegistration:
    def test_new_kinds_are_registered(self):
        kinds = workload_kinds()
        for kind in FAMILIES:
            assert kind in kinds
        # every listed kind must be buildable as-is, so the trace:<path>
        # pseudo-kind stays out (it names content, not a builder)
        assert not any(k.startswith("trace:") for k in kinds)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_scale_aware_sizing(self, kind):
        small = build_workload(WorkloadSpec.make(kind, scale=0.1,
                                                 num_cores=2))
        large = build_workload(WorkloadSpec.make(kind, scale=0.5,
                                                 num_cores=2))
        assert len(small) == len(large) == 2
        assert sum(len(t) for t in large) > sum(len(t) for t in small)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_deterministic(self, kind):
        a = build_workload(WorkloadSpec.make(kind, scale=0.1, num_cores=2))
        b = build_workload(WorkloadSpec.make(kind, scale=0.1, num_cores=2))
        assert [list(t) for t in a] == [list(t) for t in b]

    def test_smoke_specs_cover_every_registered_kind(self):
        specs = smoke_workload_specs(0.05)
        assert sorted(specs) == workload_kinds()
        for spec in specs.values():
            assert build_workload(spec)


class TestDesignTargets:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_catalog_sizing_hits_targets(self, kind):
        traces = build_workload(WorkloadSpec.make(kind, scale=1.0))
        assert design_violations(kind, traces) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="no design targets"):
            design_violations("fft", [])

    def test_violations_are_reported(self):
        # a streaming workload is the opposite of capacity pressure
        from repro.workloads.synthetic import streaming_sweep_trace

        traces = [streaming_sweep_trace(num_requests=320,
                                        accesses_per_row=16)]
        violations = design_violations("capacity-pressure", traces)
        assert any("mean_burst_length" in v for v in violations)


class TestFamilyBehaviour:
    def test_capacity_pressure_thrashes_every_bank(self):
        traces = capacity_pressure(num_cores=2, num_requests=400,
                                   num_banks=8, seed=1)
        char = characterize_workload(traces)
        assert char.banks_touched == 8
        assert char.act_per_access == pytest.approx(1.0)
        assert char.max_burst_length == 1

    def test_row_conflict_pairs_share_one_bank(self):
        traces = row_conflict_heavy(num_cores=4, num_requests=100,
                                    num_banks=16, seed=2)
        banks = [t.banks_touched() for t in traces]
        assert banks[0] == banks[1]          # the pair shares its bank
        assert banks[2] == banks[3]
        assert banks[0] != banks[2]          # pairs get distinct banks
        rows_a = {e.row for e in traces[0]}
        rows_b = {e.row for e in traces[1]}
        assert not rows_a & rows_b           # antagonistic row sets

    def test_row_conflict_rejects_degenerate_rows(self):
        with pytest.raises(ValueError, match="conflict_rows"):
            row_conflict_heavy(conflict_rows=1)

    def test_multi_channel_skews_toward_hot_channel(self):
        traces = multi_channel_imbalanced(num_cores=2, num_requests=800,
                                          hot_share=0.8, seed=3)
        char = characterize_workload(traces)
        assert char.channel_share_top == pytest.approx(0.8, abs=0.08)
        for trace in traces:
            assert characterize_trace(trace).mean_burst_length >= 2.0

    def test_multi_channel_validates_parameters(self):
        with pytest.raises(ValueError, match="hot_share"):
            multi_channel_imbalanced(hot_share=0.2)
        with pytest.raises(ValueError, match="accesses_per_row"):
            multi_channel_imbalanced(accesses_per_row=0)
