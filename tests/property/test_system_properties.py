"""Property tests for the full-system simulator's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mithril import MithrilScheme
from repro.params import SystemConfig
from repro.sim.system import simulate
from repro.workloads.trace import CoreTrace, TraceEntry


def _small_config() -> SystemConfig:
    return SystemConfig().with_organization(channels=1, banks_per_rank=4)


@st.composite
def workloads(draw):
    num_cores = draw(st.integers(min_value=1, max_value=3))
    traces = []
    for core in range(num_cores):
        entries = draw(
            st.lists(
                st.builds(
                    TraceEntry,
                    gap_cycles=st.integers(min_value=0, max_value=64),
                    bank_index=st.integers(min_value=0, max_value=3),
                    row=st.integers(min_value=0, max_value=255),
                    column=st.integers(min_value=0, max_value=7),
                    is_write=st.booleans(),
                    instructions=st.integers(min_value=1, max_value=64),
                ),
                min_size=1,
                max_size=40,
            )
        )
        traces.append(CoreTrace.from_entries(f"c{core}", entries))
    return traces


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_every_request_completes(traces):
    result = simulate(traces, config=_small_config())
    total = sum(len(t) for t in traces)
    assert result.row_hits + result.row_misses == total


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_energy_counts_consistent(traces):
    result = simulate(traces, config=_small_config())
    reads = sum(
        sum(1 for e in t if not e.is_write) for t in traces
    )
    writes = sum(
        sum(1 for e in t if e.is_write) for t in traces
    )
    assert result.energy.reads == reads
    assert result.energy.writes == writes
    # Each access activates at most once.
    assert result.acts <= reads + writes
    assert result.energy.acts == result.acts


@given(workloads())
@settings(max_examples=40, deadline=None)
def test_finish_cycles_cover_all_requests(traces):
    result = simulate(traces, config=_small_config())
    assert result.total_cycles == max(result.per_core_finish_cycles)
    for finish, trace in zip(result.per_core_finish_cycles, traces):
        assert finish > 0  # every core had at least one entry


@given(workloads(), st.integers(min_value=2, max_value=16))
@settings(max_examples=40, deadline=None)
def test_mithril_never_slows_requests_lost(traces, rfm_th):
    """Protection may add cycles but never loses requests or flips
    accounting."""
    base = simulate(traces, config=_small_config())
    protected = simulate(
        traces,
        config=_small_config(),
        scheme_factory=lambda: MithrilScheme(
            n_entries=8, rfm_th=rfm_th, rows_per_bank=65536
        ),
        rfm_th=rfm_th,
    )
    total = sum(len(t) for t in traces)
    assert protected.row_hits + protected.row_misses == total
    assert protected.flips == 0
    assert protected.acts >= 1 or total == 0


@given(workloads())
@settings(max_examples=30, deadline=None)
def test_simulation_is_deterministic(traces):
    a = simulate(traces, config=_small_config())
    b = simulate(traces, config=_small_config())
    assert a.total_cycles == b.total_cycles
    assert a.acts == b.acts
    assert a.per_core_finish_cycles == b.per_core_finish_cycles
