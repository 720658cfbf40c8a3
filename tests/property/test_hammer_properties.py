"""Property tests for the RowHammer fault model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.hammer import HammerModel


@given(st.lists(st.integers(min_value=1, max_value=62), min_size=1,
                max_size=300))
@settings(max_examples=150)
def test_disturbance_equals_adjacent_act_count(acts):
    """Each victim's disturbance equals ACTs on its two neighbours."""
    model = HammerModel(flip_th=10_000, rows_per_bank=64)
    for row in acts:
        model.on_activate(row)
    for victim in range(64):
        expected = sum(1 for a in acts if abs(a - victim) == 1)
        assert model.disturbance(victim) == expected


@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=1, max_value=30)),
                min_size=1, max_size=200))
@settings(max_examples=150)
def test_refresh_is_idempotent_reset(operations):
    """A refresh always zeroes a row; no operation can lower another
    row's disturbance."""
    model = HammerModel(flip_th=10_000, rows_per_bank=32)
    levels = {}
    for is_refresh, row in operations:
        if is_refresh:
            model.on_refresh_row(row)
            levels[row] = 0.0
        else:
            model.on_activate(row)
            for victim in (row - 1, row + 1):
                if 0 <= victim < 32:
                    levels[victim] = levels.get(victim, 0.0) + 1.0
    for victim, expected in levels.items():
        assert model.disturbance(victim) == expected
