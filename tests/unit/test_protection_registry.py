"""Unit tests for the scheme table and base protocol."""

import pytest

from repro.core.mithril import MithrilScheme
from repro.engine.catalog import scheme_under_test
from repro.mitigations.cbt import CbtScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.mitigations.rfm_graphene import arr_graphene_safe_flip_th
from repro.mitigations.twice import TwiceScheme
from repro.params import PAPER_FLIP_THRESHOLDS
from repro.protection import NoProtection, ProtectionScheme, arr_trigger
from repro.schemes import build_scheme, paper_config, scheme_names


class TestRegistry:
    def test_all_paper_schemes_registered(self):
        names = scheme_names()
        for expected in (
            "mithril", "mithril+", "para", "parfm", "graphene",
            "rfm-graphene", "twice", "cbt", "blockhammer", "none",
        ):
            assert expected in names

    def test_build_scheme_with_kwargs(self):
        scheme = build_scheme("mithril", n_entries=32, rfm_th=16)
        assert isinstance(scheme, MithrilScheme)
        assert scheme.table.n_entries == 32

    def test_unknown_scheme_raises_with_hint(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            build_scheme("shield-o-matic")


class TestSchemeTable:
    @pytest.mark.parametrize("name", scheme_names())
    def test_paper_config_builds_at_every_paper_flip_th(self, name):
        """Each entry's configuration builds its scheme, with an RFM_TH
        exactly when the scheme takes RFM commands."""
        for flip_th in PAPER_FLIP_THRESHOLDS:
            params, rfm_th = paper_config(name, flip_th)
            scheme = build_scheme(name, **params)
            assert isinstance(scheme, ProtectionScheme)
            assert (rfm_th > 0) == scheme.uses_rfm

    @pytest.mark.parametrize("name", ["none", "mithril+", "parfm", "cbt"])
    def test_engine_factory_builds_the_paper_config(self, name):
        factory, rfm_th = scheme_under_test(name, 3_125, scale=16)
        params, paper_rfm_th = paper_config(name, 3_125)
        assert rfm_th == paper_rfm_th
        built, expected = factory(), build_scheme(name, **params)
        assert type(built) is type(expected)
        assert built.uses_mrr_gating == expected.uses_mrr_gating
        assert built.table_entries() == expected.table_entries()

    def test_mithril_plus_is_mithril_with_mrr_gating(self):
        params, rfm_th = paper_config("mithril+", 6_250)
        assert (params, rfm_th) == paper_config("mithril", 6_250)
        assert build_scheme("mithril+", **params).plus
        assert not build_scheme("mithril", **params).plus
        assert not build_scheme("mithril+", plus=False, **params).plus

    def test_arr_trackers_share_one_trigger(self):
        for flip_th in PAPER_FLIP_THRESHOLDS:
            trigger = arr_trigger(flip_th)
            assert GrapheneScheme(flip_th=flip_th).threshold == trigger
            assert TwiceScheme(flip_th=flip_th).arr_threshold == trigger
            assert CbtScheme(flip_th=flip_th).refresh_threshold == trigger
            assert arr_graphene_safe_flip_th(trigger) <= flip_th

    def test_unknown_scheme_in_paper_config(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            paper_config("shield-o-matic", 3_125)


class TestBaseDefaults:
    def test_no_protection_does_nothing(self):
        scheme = NoProtection()
        assert scheme.on_activate(5, 0) == []
        assert scheme.on_rfm(0) == []
        assert scheme.rfm_needed_flag()
        assert scheme.throttle_release(5, 42) == 42
        assert scheme.table_entries() == 0

    def test_stats_initialized(self):
        scheme = NoProtection()
        assert scheme.stats.acts_observed == 0
        scheme.on_activate(1, 0)
        assert scheme.stats.acts_observed == 1

    def test_name_property(self):
        assert NoProtection().name == "NoProtection"
