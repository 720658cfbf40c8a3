"""Unit tests for BlockHammer."""

import pytest

from repro.engine.catalog import scaled_blockhammer_params, scheme_under_test
from repro.mitigations.blockhammer import (
    BlockHammerScheme,
    blockhammer_config,
    blockhammer_delay_cycles,
)


class TestConfig:
    def test_paper_configs(self):
        assert blockhammer_config(50_000) == (1024, 17_100)
        assert blockhammer_config(1_500) == (8192, 490)

    def test_unlisted_flip_th_steps_cbf_size(self):
        """Off the paper's grid N_BL is FlipTH/3 (at least 16), and the
        CBF size steps from 8192 to 1024 at N_BL 2048."""
        assert blockhammer_config(10_000) == (1024, 3333)
        assert blockhammer_config(6_144) == (1024, 2048)
        assert blockhammer_config(6_000) == (8192, 2000)
        assert blockhammer_config(2_000) == (8192, 666)
        assert blockhammer_config(20) == (8192, 16)

    def test_delay_grows_as_nbl_approaches_flip_th(self):
        tight = blockhammer_delay_cycles(1_500, 1_400)
        loose = blockhammer_delay_cycles(1_500, 490)
        assert tight > loose

    def test_delay_rejects_nbl_above_flip_th(self):
        with pytest.raises(ValueError):
            blockhammer_delay_cycles(1_000, 1_000)

    def test_delay_protects_flip_th(self, timings):
        """N_BL free ACTs + delayed ACTs cannot reach FlipTH in tREFW."""
        flip_th, n_bl = 6_250, 2_100
        delay = blockhammer_delay_cycles(flip_th, n_bl, timings)
        trefw_cycles = timings.trefw_cycles
        max_acts = n_bl + trefw_cycles / delay
        assert max_acts <= flip_th * 1.01

    def test_window_compression_never_below_one(self):
        """Above scale 16 the shim would stretch N_BL and FlipTH past the
        paper's values; it refuses instead."""
        _cbf_size, n_bl, flip_sim = scaled_blockhammer_params(3_125, 16)
        assert (n_bl, flip_sim) == (blockhammer_config(3_125)[1], 3_125)
        with pytest.raises(ValueError, match="scale must be at most 16"):
            scaled_blockhammer_params(3_125, 20)
        with pytest.raises(ValueError, match="16/20"):
            scheme_under_test("blockhammer", 3_125, scale=20)


class TestBlockHammerScheme:
    def test_no_refreshes_ever(self):
        scheme = BlockHammerScheme(flip_th=1_500, cbf_size=256, n_bl=8)
        for _ in range(20):
            assert scheme.on_activate(5, 0) == []

    def test_blacklists_hot_row(self):
        scheme = BlockHammerScheme(flip_th=1_500, cbf_size=1024, n_bl=8)
        for _ in range(8):
            scheme.on_activate(5, 0)
        assert scheme.is_blacklisted(5)

    def test_throttle_release_delays_blacklisted(self):
        scheme = BlockHammerScheme(flip_th=1_500, cbf_size=1024, n_bl=4)
        for cycle in range(4):
            scheme.on_activate(5, cycle)
        release = scheme.throttle_release(5, cycle=10)
        assert release > 10
        assert release >= 3 + scheme.delay_cycles

    def test_cold_row_not_throttled(self):
        scheme = BlockHammerScheme(flip_th=1_500, cbf_size=1024, n_bl=100)
        scheme.on_activate(5, 0)
        assert scheme.throttle_release(5, cycle=10) == 10

    def test_aliasing_rows_share_fate(self):
        """CBF collisions blacklist innocent rows — the false-positive
        behaviour behind the paper's adversarial pattern."""
        from repro.workloads.attacks import find_aliasing_rows

        scheme = BlockHammerScheme(flip_th=1_500, cbf_size=64, n_bl=16,
                                   num_hashes=2)
        aliases = find_aliasing_rows(
            scheme.cbf._filters[0], target_row=5, count=3,
            search_space=4096, min_shared=2,
        )
        assert aliases  # small filter: collisions exist

    def test_throttle_events_counted(self):
        scheme = BlockHammerScheme(flip_th=1_500, cbf_size=1024, n_bl=4)
        for cycle in range(8):
            scheme.on_activate(5, cycle)
        assert scheme.stats.throttle_events > 0

    def test_table_entries(self):
        scheme = BlockHammerScheme(flip_th=1_500, cbf_size=512, n_bl=16)
        assert scheme.table_entries() == 1024
