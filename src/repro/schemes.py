"""The scheme table: each scheme's class and paper configuration.

An entry holds what builds a scheme and its configuration at a FlipTH
(Section VI-A): constructor arguments plus the RFM_TH the MC runs it
with (0 when the scheme takes no RFM).  :func:`build_scheme`, the
engine's factories (:func:`repro.engine.catalog.scheme_under_test`,
which adds BlockHammer's simulation-only window compression), the
CLI's ``safety`` and ``fuzz`` and the area model all read it.  The ARR
trackers take FlipTH and trigger at :func:`repro.protection.arr_trigger`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.core.config import paper_default_config
from repro.core.mithril import MithrilScheme
from repro.mitigations.blockhammer import BlockHammerScheme, blockhammer_config
from repro.mitigations.cbt import CbtScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.mitigations.para import ParaScheme
from repro.mitigations.parfm import ParfmScheme
from repro.mitigations.rfm_graphene import RfmGrapheneScheme
from repro.mitigations.twice import TwiceScheme
from repro.params import DEFAULT_ADAPTIVE_THRESHOLD
from repro.protection import NoProtection, ProtectionScheme

#: (constructor keyword arguments, RFM_TH)
PaperConfig = Tuple[Dict[str, object], int]


class SchemeEntry(NamedTuple):
    build: Callable[..., ProtectionScheme]
    paper: Callable[[int], PaperConfig]


def _no_config(_flip_th: int) -> PaperConfig:
    return {}, 0


def _flip_th_only(flip_th: int) -> PaperConfig:
    """PARA, Graphene, TWiCe and CBT derive everything from FlipTH."""
    return {"flip_th": flip_th}, 0


def _mithril(flip_th: int) -> PaperConfig:
    """The smallest safe table at the paper's RFM_TH, with AdTH 200."""
    config = paper_default_config(flip_th, DEFAULT_ADAPTIVE_THRESHOLD)
    params = dict(n_entries=config.n_entries, rfm_th=config.rfm_th,
                  adaptive_th=config.adaptive_th)
    return params, config.rfm_th


def _parfm(flip_th: int) -> PaperConfig:
    """Appendix C's largest RFM_TH meeting the 1e-15 failure target."""
    from repro.analysis.parfm_failure import parfm_rfm_th_for

    return {}, parfm_rfm_th_for(flip_th) or 2


def _blockhammer(flip_th: int) -> PaperConfig:
    """One full FlipTH of ACTs per aggressor over tCBF.  A victim between
    two aggressors can reach twice that, unlike the ARR trackers'
    FlipTH/4 (ROADMAP item 11)."""
    cbf_size, n_bl = blockhammer_config(flip_th)
    return {"flip_th": flip_th, "cbf_size": cbf_size, "n_bl": n_bl}, 0


def _rfm_graphene(_flip_th: int) -> PaperConfig:
    """Figure 2's strawman has no Section VI-A configuration: the class's
    default threshold (2,000) at Figure 2's RFM_TH of 64."""
    return {}, 64


SCHEMES: Dict[str, SchemeEntry] = {
    "none": SchemeEntry(NoProtection, _no_config),
    "mithril": SchemeEntry(MithrilScheme, _mithril),
    "mithril+": SchemeEntry(partial(MithrilScheme, plus=True), _mithril),
    "parfm": SchemeEntry(ParfmScheme, _parfm),
    "blockhammer": SchemeEntry(BlockHammerScheme, _blockhammer),
    "para": SchemeEntry(ParaScheme, _flip_th_only),
    "graphene": SchemeEntry(GrapheneScheme, _flip_th_only),
    "twice": SchemeEntry(TwiceScheme, _flip_th_only),
    "cbt": SchemeEntry(CbtScheme, _flip_th_only),
    "rfm-graphene": SchemeEntry(RfmGrapheneScheme, _rfm_graphene),
}


def scheme_names() -> List[str]:
    return sorted(SCHEMES)


def _entry(name: str) -> SchemeEntry:
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; known: {', '.join(scheme_names())}"
        ) from None


def paper_config(name: str, flip_th: int) -> PaperConfig:
    """(constructor arguments, RFM_TH) of a scheme at ``flip_th``."""
    return _entry(name).paper(flip_th)


def scheme_factory(name: str, **kwargs) -> Callable[[], ProtectionScheme]:
    """A per-bank factory: every call builds a fresh ``name`` scheme."""
    return partial(_entry(name).build, **kwargs)


def build_scheme(name: str, **kwargs) -> ProtectionScheme:
    """Instantiate a scheme by name with explicit constructor arguments."""
    return _entry(name).build(**kwargs)
