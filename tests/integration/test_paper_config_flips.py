"""Every deterministic scheme, at its paper configuration, stops the
attacks in the full simulator.

Scale 16 makes BlockHammer's window compression exactly 1, so every
scheme runs the scheme table's entry as it is.  An 8-core attack mix
(one attacker, seven benign cores, attack seed 31) against each scheme
at three FlipTH values: the unprotected baseline must flip, and the
deterministic trackers must not, with the worst victim at most half of
FlipTH (the ARR trackers' FlipTH/4 trigger, double-sided).  PARA and
PARFM are probabilistic and are not asserted on.
"""

import pytest

from repro.engine import SimJob, attack_workload_spec
from repro.engine.executor import execute_job

pytestmark = pytest.mark.slow

SCALE = 16
FLIP_THRESHOLDS = (1_500, 3_125, 6_250)
ATTACKS = ("multi-sided", "bh-adversarial")
DETERMINISTIC = ("mithril", "mithril+", "graphene", "twice", "cbt")


def _run(scheme, attack, flip_th):
    spec = attack_workload_spec(
        attack, scale=SCALE, num_cores=8, flip_th=flip_th, seed=31
    )
    return execute_job(
        SimJob(workload=spec, scheme=scheme, flip_th=flip_th, scale=SCALE)
    )


@pytest.mark.parametrize("flip_th", FLIP_THRESHOLDS)
@pytest.mark.parametrize("attack", ATTACKS)
def test_unprotected_baseline_flips(attack, flip_th):
    assert _run("none", attack, flip_th).flips >= 1


@pytest.mark.parametrize("flip_th", FLIP_THRESHOLDS)
@pytest.mark.parametrize("attack", ATTACKS)
@pytest.mark.parametrize("scheme", DETERMINISTIC)
def test_deterministic_scheme_never_flips(scheme, attack, flip_th):
    result = _run(scheme, attack, flip_th)
    assert result.flips == 0
    assert result.max_disturbance <= 0.5 * flip_th


#: BlockHammer's entry spends one full FlipTH of ACTs per aggressor
#: over tCBF, so a victim between two aggressors reaches FlipTH: 128,
#: 64 and 32 flips on multi-sided at 1.5K, 3.125K and 6.25K.
BLOCKHAMMER_DOUBLE_SIDED = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: BlockHammer's full-FlipTH budget per "
           "aggressor lets a double-sided victim flip",
)


@pytest.mark.parametrize("flip_th", FLIP_THRESHOLDS)
@pytest.mark.parametrize(
    "attack",
    [
        pytest.param("multi-sided", marks=BLOCKHAMMER_DOUBLE_SIDED),
        "bh-adversarial",
    ],
)
def test_blockhammer_never_flips(attack, flip_th):
    assert _run("blockhammer", attack, flip_th).flips == 0
