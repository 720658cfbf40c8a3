"""Unit tests for the DDR5 parameter set (Table III)."""

import pytest

from repro.params import (
    BLOCKHAMMER_CONFIGS,
    DEFAULT_CONFIG,
    DramOrganization,
    DramTimings,
    MITHRIL_DEFAULT_RFM_TH,
    PAPER_FLIP_THRESHOLDS,
)


class TestDramTimings:
    def test_table_iii_values(self, timings):
        assert timings.trfc == pytest.approx(295.0)
        assert timings.trc == pytest.approx(48.64)
        assert timings.trfm == pytest.approx(97.28)
        assert timings.trcd == timings.trp == timings.tcl == pytest.approx(16.64)
        assert timings.trefw == pytest.approx(32e6)
        assert timings.trefi == pytest.approx(32e6 / 8192)

    def test_trfm_is_twice_trc(self, timings):
        assert timings.trfm == pytest.approx(2 * timings.trc)

    def test_cycles_rounds_up(self, timings):
        assert timings.cycles(timings.tck) == 1
        assert timings.cycles(timings.tck * 1.5) == 2
        assert timings.cycles(0.0) == 0

    def test_cached_cycles_leave_the_dataclass_contract_alone(self):
        """Each ``*_cycles`` value is computed once per object; reading
        it changes nothing eq, hash, replace or asdict see."""
        import dataclasses

        names = ("trc", "tras", "trp", "trcd", "tcl", "tbl", "trfc",
                 "trfm", "tfaw", "trefi", "trefw")
        timings, fresh = DramTimings(), DramTimings()
        for name in names:
            assert getattr(timings, f"{name}_cycles") == \
                timings.cycles(getattr(timings, name))
        assert timings == fresh and hash(timings) == hash(fresh)
        assert dataclasses.asdict(timings) == dataclasses.asdict(fresh)
        slower = dataclasses.replace(timings, tck=2 * timings.tck)
        assert slower.trc_cycles == slower.cycles(slower.trc)
        assert slower.trc_cycles < timings.trc_cycles

    def test_acts_per_trefw_scale(self, timings):
        acts = timings.acts_per_trefw()
        # ~608k for DDR5-4800 with tRFC=295ns/tREFI=3.9us
        assert 550_000 < acts < 700_000

    def test_rfm_intervals_decrease_with_rfm_th(self, timings):
        w_values = [timings.rfm_intervals_per_trefw(r) for r in (16, 64, 256)]
        assert w_values == sorted(w_values, reverse=True)

    def test_rfm_intervals_rejects_bad_rfm_th(self, timings):
        with pytest.raises(ValueError):
            timings.rfm_intervals_per_trefw(0)


class TestDramOrganization:
    def test_total_banks(self, organization):
        assert organization.total_banks == 64  # 2ch x 1rank x 32banks

    def test_columns_per_row(self, organization):
        assert organization.columns_per_row == 128  # 8KB row / 64B line

    def test_rows_per_refresh_group(self, organization):
        assert organization.rows_per_refresh_group == 8  # 65536 / 8192


class TestSystemConfig:
    def test_defaults_match_paper(self):
        assert DEFAULT_CONFIG.num_cores == 16
        assert DEFAULT_CONFIG.scheduler == "bliss"
        assert DEFAULT_CONFIG.page_policy == "minimalist-open"

    def test_with_timings_returns_new_config(self):
        modified = DEFAULT_CONFIG.with_timings(trc=50.0)
        assert modified.timings.trc == 50.0
        assert DEFAULT_CONFIG.timings.trc == pytest.approx(48.64)

    def test_with_organization(self):
        modified = DEFAULT_CONFIG.with_organization(channels=1)
        assert modified.organization.channels == 1


class TestPaperConstants:
    def test_flip_thresholds(self):
        assert PAPER_FLIP_THRESHOLDS == (50_000, 25_000, 12_500, 6_250, 3_125, 1_500)

    def test_blockhammer_configs_cover_all_thresholds(self):
        assert set(BLOCKHAMMER_CONFIGS) == set(PAPER_FLIP_THRESHOLDS)

    def test_mithril_rfm_th_defaults(self):
        assert MITHRIL_DEFAULT_RFM_TH[50_000] == 256
        assert MITHRIL_DEFAULT_RFM_TH[1_500] == 32
