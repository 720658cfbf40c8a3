"""Cross-bank tracker arenas agree exactly with their scalar twins.

The turbo drain routes per-ACT scheme work through
:mod:`repro.sim.arena` whenever all banks run the same stock scheme;
golden byte-identity across backends rests on the arena replaying the
per-bank tracker semantics *exactly* — not statistically.  Hypothesis
drives randomized ACT streams (plus decrements, resets, and the RFM
demotes that mutate CbS state behind the arena's back) through an
arena and through untouched per-bank scheme objects, requiring
identical state at every observable point, including rows on bank
boundaries and one-ACT-per-bank drain epochs.
"""

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mithril import MithrilScheme
from repro.mitigations.blockhammer import BlockHammerScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.sim.arena import BlockHammerArena, CbsArena, RaaArena
from repro.streaming.counting_bloom import DualCountingBloomFilter

BANKS = 3
#: rows_per_bank for graphene; rows drawn over the full range so the
#: victim clipping at both bank boundaries (row 0, row max) is hit.
ROWS_PER_BANK = 16

FLATS = st.integers(min_value=0, max_value=BANKS - 1)
ROWS = st.integers(min_value=0, max_value=ROWS_PER_BANK - 1)


# ----------------------------------------------------------------------
# BlockHammer: dual-CBF counters adopted in place
# ----------------------------------------------------------------------


def _bh_schemes():
    """One small-geometry BlockHammer scheme per bank.

    A tiny CBF maximizes probe aliasing and a tiny epoch forces
    rotations inside short random streams — the regimes where an arena
    bug would diverge from the scalar filters.
    """
    schemes = []
    for _ in range(BANKS):
        scheme = BlockHammerScheme(
            flip_th=100, cbf_size=16, n_bl=3, num_hashes=2
        )
        scheme.cbf = DualCountingBloomFilter(
            16, epoch_length=8, num_hashes=2, seed=0xB10F
        )
        schemes.append(scheme)
    return schemes


def _assert_bh_state_equal(arena, twins):
    """Arena write-back state must equal the scalar twins', field for
    field (filters, rotation phase, blacklists, stats)."""
    arena.write_back()
    for flat, (scheme, twin) in enumerate(zip(arena.schemes, twins)):
        cbf, tcbf = scheme.cbf, twin.cbf
        assert cbf._active == tcbf._active
        assert cbf._since_swap == tcbf._since_swap
        for cbf_filter, twin_filter in zip(cbf._filters, tcbf._filters):
            assert list(cbf_filter._counters) == list(
                twin_filter._counters
            ), f"bank {flat} counters diverge"
            assert cbf_filter._total == twin_filter._total
        assert scheme._release == twin._release
        assert scheme.blacklisted_rows_seen == twin.blacklisted_rows_seen
        assert scheme.stats.acts_observed == twin.stats.acts_observed
        assert (
            scheme.stats.throttle_events == twin.stats.throttle_events
        )


_BH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("act"), FLATS, ROWS),
        st.tuples(st.just("decrement"), FLATS, ROWS),
        st.tuples(st.just("reset"), FLATS, ROWS),
        st.tuples(st.just("estimate"), FLATS, ROWS),
        # one drain epoch: a set of distinct banks, one ACT each,
        # observed in order
        st.tuples(
            st.just("epoch"),
            st.dictionaries(FLATS, ROWS, max_size=BANKS),
            st.none(),
        ),
    ),
    max_size=60,
)


class TestBlockHammerArena:
    @settings(max_examples=60, deadline=None)
    @given(ops=_BH_OPS)
    def test_observe_decrement_reset_match_scalar_twins(self, ops):
        arena = BlockHammerArena(_bh_schemes())
        twins = _bh_schemes()
        cycle = 0
        for name, flat, row in ops:
            cycle += 7
            if name == "epoch":
                for bank, bank_row in sorted(flat.items()):
                    arena.observe_one(bank, bank_row, cycle)
                    twins[bank].on_activate(bank_row, cycle)
            elif name == "act":
                arena.observe_one(flat, row, cycle)
                twins[flat].on_activate(row, cycle)
            elif name == "decrement":
                arena.decrement(flat, row, 2)
                for twin_filter in twins[flat].cbf._filters:
                    twin_filter.decrement(row, 2)
            elif name == "reset":
                arena.reset(flat)
                twins[flat].cbf.reset()
            else:
                assert arena.estimate(flat, row) == twins[
                    flat
                ].cbf.estimate(row)
        _assert_bh_state_equal(arena, twins)

    def test_counters_are_the_filters_own_arrays(self):
        """The arena adopts each filter's counter array in place: an
        ACT is visible in the filters without ``write_back`` and no
        second copy of the counters exists."""
        schemes = _bh_schemes()
        arena = BlockHammerArena(schemes)
        arena.observe_one(1, 5, 0)
        for side, cbf_filter in enumerate(schemes[1].cbf._filters):
            own = np.frombuffer(cbf_filter._counters, dtype=np.int64)
            assert np.shares_memory(arena.views[1][side], own)
            assert sum(cbf_filter._counters) == cbf_filter.num_hashes
        untouched = schemes[0].cbf._filters[0]._counters
        assert not any(untouched)

    @settings(max_examples=40, deadline=None)
    @given(
        acts=st.lists(st.tuples(FLATS, ROWS), max_size=40),
        probes=st.lists(ROWS, min_size=1, max_size=8),
    )
    def test_estimate_many_matches_per_bank_estimates(self, acts, probes):
        arena = BlockHammerArena(_bh_schemes())
        for cycle, (flat, row) in enumerate(acts):
            arena.observe_one(flat, row, cycle)
        matrix = arena.estimate_many(probes)
        assert matrix.shape == (BANKS, len(probes))
        for flat in range(BANKS):
            for j, row in enumerate(probes):
                assert matrix[flat, j] == arena.estimate(flat, row)

    def test_prefill_probes_equal_lazy_probes(self):
        arena = BlockHammerArena(_bh_schemes())
        rows = list(range(32))
        added = arena.prefill(rows)
        assert added == len(rows)
        lazy = BlockHammerArena(_bh_schemes())
        for row in rows:
            assert arena._probe_cache[row] == lazy._probes_for(row)

    def test_mismatched_geometry_rejected(self):
        schemes = _bh_schemes()
        schemes[1].cbf = DualCountingBloomFilter(
            32, epoch_length=8, num_hashes=2, seed=0xB10F
        )
        with pytest.raises(ValueError, match="geometry"):
            BlockHammerArena(schemes)


# ----------------------------------------------------------------------
# Mithril / Graphene: stacked CbS state
# ----------------------------------------------------------------------


def _mithril_schemes():
    # counter_bits large enough that random streams never trip the
    # wrapping-window OverflowError (raised identically by both paths,
    # but uninteresting here).
    return [
        MithrilScheme(n_entries=4, rfm_th=8, counter_bits=30)
        for _ in range(BANKS)
    ]


def _graphene_schemes():
    return [
        GrapheneScheme(
            flip_th=16,
            rows_per_bank=ROWS_PER_BANK,
            n_entries=4,
            reset_interval_cycles=60,
        )
        for _ in range(BANKS)
    ]


def _assert_cbs_scans_match(arena, tables):
    """Vectorized cross-bank scans equal the per-bank table queries."""
    mins = arena.min_counts()
    maxs = arena.max_counts()
    spreads = arena.spreads()
    for flat, table in enumerate(tables):
        assert mins[flat] == table.min_count()
        assert maxs[flat] == table.max_count()
        assert spreads[flat] == table.spread()


class TestCbsArenaMithril:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("act"), FLATS, ROWS),
                st.tuples(st.just("rfm"), FLATS, st.just(0)),
            ),
            max_size=50,
        )
    )
    def test_observe_and_rfm_demote_match_scalar_twins(self, ops):
        schemes = _mithril_schemes()
        arena = CbsArena.for_mithril(schemes)
        twins = _mithril_schemes()
        cycle = 0
        for name, flat, row in ops:
            cycle += 5
            if name == "act":
                arena.mithril_observe(flat, row)
                twins[flat].on_activate(row, cycle)
            else:
                # RFM demotes mutate the summary *behind* the arena
                # (greedy_select + demote_max on the scheme object);
                # sync-on-demand must still see the result.
                assert schemes[flat].on_rfm(cycle) == twins[
                    flat
                ].on_rfm(cycle)
        for scheme, twin in zip(schemes, twins):
            assert (
                scheme.table._summary._counts
                == twin.table._summary._counts
            )
            assert (
                scheme.table._max_spread_seen
                == twin.table._max_spread_seen
            )
            assert (
                scheme.stats.acts_observed == twin.stats.acts_observed
            )
        _assert_cbs_scans_match(arena, [t.table for t in twins])

    @settings(max_examples=40, deadline=None)
    @given(
        acts=st.lists(st.tuples(FLATS, ROWS), max_size=40),
        probes=st.lists(ROWS, min_size=1, max_size=6),
    )
    def test_estimate_many_matches_table_estimates(self, acts, probes):
        schemes = _mithril_schemes()
        arena = CbsArena.for_mithril(schemes)
        for flat, row in acts:
            arena.mithril_observe(flat, row)
        matrix = arena.estimate_many(probes)
        for flat, scheme in enumerate(schemes):
            for j, row in enumerate(probes):
                assert matrix[flat, j] == scheme.table.estimate(row)

    def test_mismatched_capacity_rejected(self):
        schemes = _mithril_schemes()
        schemes[-1] = MithrilScheme(
            n_entries=8, rfm_th=8, counter_bits=30
        )
        with pytest.raises(ValueError, match="capacity"):
            CbsArena.for_mithril(schemes)


class TestCbsArenaGraphene:
    @settings(max_examples=60, deadline=None)
    @given(
        acts=st.lists(
            st.tuples(FLATS, ROWS, st.integers(min_value=0, max_value=25)),
            max_size=50,
        )
    )
    def test_observe_matches_scalar_twins_across_resets(self, acts):
        """Monotone cycles with an interval of 60 cross multiple table
        resets; victims (including boundary clipping at rows 0 and
        max) and reset bookkeeping must match the scalar scheme."""
        schemes = _graphene_schemes()
        arena = CbsArena.for_graphene(schemes)
        twins = _graphene_schemes()
        cycle = 0
        for flat, row, step in acts:
            cycle += step
            victims = arena.graphene_observe(flat, row, cycle)
            expected = twins[flat].on_activate(row, cycle)
            assert (victims or []) == expected
        for scheme, twin in zip(schemes, twins):
            assert scheme.table._counts == twin.table._counts
            assert scheme.resets == twin.resets
            assert scheme._next_reset == twin._next_reset
            assert scheme._next_trigger == twin._next_trigger
            assert (
                scheme.stats.preventive_refresh_rows
                == twin.stats.preventive_refresh_rows
            )
        # Cross-bank scans against per-bank summary queries (Graphene's
        # table *is* the CounterSummary, so query it directly):
        mins = arena.min_counts()
        maxs = arena.max_counts()
        for flat, twin in enumerate(twins):
            assert mins[flat] == twin.table.min_count
            top = twin.table.max_entry()
            assert maxs[flat] == (0 if top is None else top[1])

    def test_observe_epoch_batch_form_matches_per_act_calls(self):
        schemes = _graphene_schemes()
        arena = CbsArena.for_graphene(schemes)
        twins = _graphene_schemes()
        twin_arena = CbsArena.for_graphene(twins)
        batch = [
            (0, 3, 10), (1, 0, 10), (2, ROWS_PER_BANK - 1, 10),
            (0, 3, 20), (0, 3, 30), (0, 3, 40), (0, 3, 50),
        ]
        results = arena.observe_epoch(batch)
        expected = [
            (flat, twin_arena.graphene_observe(flat, row, start))
            for flat, row, start in batch
        ]
        assert results == expected


# ----------------------------------------------------------------------
# RAA vector
# ----------------------------------------------------------------------


class TestRaaArena:
    def test_adopt_and_write_back_round_trip(self):
        from repro.mc.rfm import RfmIssueLogic

        logics = [RfmIssueLogic(4) for _ in range(BANKS)]
        logics[1].raa.value = 3
        arena = RaaArena(logics)
        assert arena.values.tolist() == [0, 3, 0]
        arena.mem[0] = 2
        arena.mem[1] = 0
        arena.write_back()
        assert [logic.raa.value for logic in logics] == [2, 0, 0]
