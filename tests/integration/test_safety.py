"""Integration: the deterministic protection guarantee under attack.

Every deterministic scheme must keep every victim's disturbance below
FlipTH against every adversarial stream; the unprotected baseline must
flip.  These replays run at full ACT rate with real refresh cadence.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.core.config import min_entries_for
from repro.core.mithril import MithrilScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.mitigations.parfm import ParfmScheme
from repro.mitigations.rfm_graphene import RfmGrapheneScheme
from repro.mitigations.twice import TwiceScheme
from repro.protection import NoProtection
from repro.schemes import build_scheme, paper_config
from repro.verify.adversary import (
    double_sided_stream,
    feinting_stream,
    many_sided_stream,
    random_stream,
    round_robin_stream,
)
from repro.verify.safety import run_safety_trace

FLIP_TH = 3_125
RFM_TH = 64
ACTS = 150_000


def _mithril(adaptive_th: int = 0, plus: bool = False) -> MithrilScheme:
    n = min_entries_for(FLIP_TH, RFM_TH, adaptive_th)
    assert n is not None
    return MithrilScheme(
        n_entries=n, rfm_th=RFM_TH, adaptive_th=adaptive_th, plus=plus
    )


class TestUnprotectedBaseline:
    def test_double_sided_flips(self):
        report = run_safety_trace(
            NoProtection(), double_sided_stream(1000, ACTS), FLIP_TH
        )
        assert not report.safe
        assert report.max_disturbance >= FLIP_TH

    def test_many_sided_flips(self):
        report = run_safety_trace(
            NoProtection(), many_sided_stream(33, ACTS * 2), FLIP_TH
        )
        assert not report.safe


class TestMithrilSafety:
    @pytest.mark.parametrize(
        "stream_name,stream",
        [
            ("double-sided", double_sided_stream(1000, ACTS)),
            ("many-sided-33", many_sided_stream(33, ACTS)),
            ("round-robin-2n", None),  # built per-config below
            ("feinting", feinting_stream(100, 60, 25)),
            ("random", random_stream(5000, ACTS)),
        ],
    )
    def test_no_flips_under_any_attack(self, stream_name, stream):
        scheme = _mithril()
        if stream is None:
            stream = round_robin_stream(2 * scheme.table.n_entries, ACTS)
        report = run_safety_trace(
            scheme, stream, FLIP_TH, rfm_th=RFM_TH
        )
        assert report.safe, f"{stream_name}: flips={len(report.flips)}"
        assert report.max_disturbance < FLIP_TH
        # without the MRR gate the MC sends one RFM per RFM_TH ACTs
        assert report.rfm_commands == report.acts_replayed // RFM_TH

    def test_adaptive_refresh_remains_safe(self):
        """AdTH=200 with the re-sized table still protects (Theorem 2)."""
        scheme = _mithril(adaptive_th=200)
        report = run_safety_trace(
            scheme, double_sided_stream(1000, ACTS), FLIP_TH, rfm_th=RFM_TH
        )
        assert report.safe
        assert report.max_disturbance < FLIP_TH

    def test_mithril_plus_remains_safe(self):
        scheme = _mithril(adaptive_th=200, plus=True)
        report = run_safety_trace(
            scheme, many_sided_stream(17, ACTS), FLIP_TH, rfm_th=RFM_TH
        )
        assert report.safe

    def test_mithril_plus_elides_rfms_on_benign_stream(self):
        """The MRR gate keeps most RFM commands off the bus."""
        acts = 100_000
        report = run_safety_trace(
            _mithril(adaptive_th=200, plus=True),
            random_stream(50_000, acts),
            FLIP_TH,
            rfm_th=RFM_TH,
        )
        assert report.safe
        assert report.rfm_commands < (acts // RFM_TH) / 2

    def test_mithril_plus_spends_rfms_under_attack(self):
        """Double-sided hammering keeps the MRR flag set: Mithril+ sends
        RFMs, refreshes victims and stays safe."""
        report = run_safety_trace(
            _mithril(adaptive_th=200, plus=True),
            double_sided_stream(1000, ACTS),
            FLIP_TH,
            rfm_th=RFM_TH,
        )
        assert report.safe
        assert report.max_disturbance < FLIP_TH
        assert report.rfm_commands > 0
        assert report.preventive_refresh_rows > 0

    def test_benign_stream_skips_most_refreshes(self):
        """Adaptive refresh: near-uniform traffic does almost no work."""
        scheme = _mithril(adaptive_th=200)
        report = run_safety_trace(
            scheme, random_stream(50_000, 100_000), FLIP_TH, rfm_th=RFM_TH
        )
        assert report.safe
        assert scheme.stats.rfms_skipped > scheme.stats.rfms_received * 0.9

    def test_headroom_reported(self):
        scheme = _mithril()
        report = run_safety_trace(
            scheme, double_sided_stream(1000, 50_000), FLIP_TH, rfm_th=RFM_TH
        )
        assert 0.0 < report.headroom <= 1.0


class TestBaselineSchemeSafety:
    def test_graphene_protects(self):
        scheme = GrapheneScheme(flip_th=FLIP_TH)
        report = run_safety_trace(
            scheme, double_sided_stream(1000, ACTS), FLIP_TH
        )
        assert report.safe

    def test_twice_protects(self):
        scheme = TwiceScheme(flip_th=FLIP_TH)
        report = run_safety_trace(
            scheme, double_sided_stream(1000, ACTS), FLIP_TH
        )
        assert report.safe

    def test_blockhammer_protects(self):
        """Throttling, not refreshing: ACT rate capping keeps counts
        below FlipTH inside the replay's tREFW-scale window."""
        params, _ = paper_config("blockhammer", FLIP_TH)
        scheme = build_scheme("blockhammer", **params)
        report = run_safety_trace(
            scheme, double_sided_stream(1000, ACTS), FLIP_TH
        )
        # throttling shows up as released-in-the-future ACT times, which
        # the raw replay cannot model; assert the blacklist caught it
        assert scheme.is_blacklisted(999)
        assert scheme.is_blacklisted(1001)

    def test_parfm_usually_protects(self):
        scheme = ParfmScheme(seed=5)
        report = run_safety_trace(
            scheme, double_sided_stream(1000, ACTS), FLIP_TH,
            rfm_th=16,
        )
        assert report.safe  # probability of failure is astronomically low


class TestRfmGrapheneWeakness:
    def test_feinting_overwhelms_rfm_graphene(self):
        """Figure 2's point: concentration defeats the threshold-buffer
        approach at a FlipTH that Mithril handles with the same table."""
        threshold = 400
        scheme = RfmGrapheneScheme(threshold=threshold, n_entries=2048)
        # Raise ~150 rows to the threshold nearly simultaneously, then
        # keep hammering: the queue drains one row per RFM while every
        # other buffered row keeps taking hits.
        stream = feinting_stream(150, threshold // 4, 30, spacing=2)
        report = run_safety_trace(
            scheme, stream, flip_th=FLIP_TH, rfm_th=RFM_TH,
            max_acts=600_000,
        )
        mithril = _mithril()
        mithril_report = run_safety_trace(
            mithril,
            feinting_stream(150, threshold // 4, 30, spacing=2),
            flip_th=FLIP_TH,
            rfm_th=RFM_TH,
            max_acts=600_000,
        )
        assert mithril_report.safe
        assert report.max_disturbance > mithril_report.max_disturbance
