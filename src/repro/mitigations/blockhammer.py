"""BlockHammer (Yaglikci et al., HPCA 2021): blacklist + throttle.

A pair of interleaved counting Bloom filters estimates per-row ACT
counts over a tCBF (= tREFW) lifetime.  Rows whose estimate reaches the
blacklist threshold ``N_BL`` are throttled: consecutive ACTs to a
blacklisted row must be at least ``tDelay`` apart, with

    tDelay = (tCBF - N_BL * tRC) / (FlipTH - N_BL)

so a blacklisted row can never accumulate FlipTH ACTs within tREFW.
No preventive refreshes at all — but false positives from CBF aliasing
throttle *benign* rows, which is the performance-attack surface the
paper's Figure 10(c) probes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.params import BLOCKHAMMER_CONFIGS, DramTimings
from repro.protection import ProtectionScheme
from repro.streaming.counting_bloom import DualCountingBloomFilter
from repro.types import SchemeLocation


def blockhammer_config(flip_th: int) -> Tuple[int, int]:
    """(CBF size, N_BL) for a FlipTH, per Section VI-A of the paper.

    An unlisted FlipTH gets N_BL = FlipTH / 3 (at least 16) and a step
    in CBF size: 1024 counters once N_BL reaches 2048, else 8192.
    """
    if flip_th in BLOCKHAMMER_CONFIGS:
        return BLOCKHAMMER_CONFIGS[flip_th]
    n_bl = max(16, flip_th // 3)
    return (1024 if n_bl >= 2048 else 8192), n_bl


def blockhammer_delay_cycles(
    flip_th: int, n_bl: int, timings: Optional[DramTimings] = None
) -> int:
    """tDelay in memory-clock cycles."""
    timings = timings or DramTimings()
    if n_bl >= flip_th:
        raise ValueError(
            f"N_BL ({n_bl}) must be below FlipTH ({flip_th}) for throttling"
        )
    tcbf = timings.trefw
    delay_ns = (tcbf - n_bl * timings.trc) / (flip_th - n_bl)
    return max(1, timings.cycles(delay_ns))


class BlockHammerScheme(ProtectionScheme):
    """MC-side throttling scheme built on dual counting Bloom filters."""

    location = SchemeLocation.MC
    uses_rfm = False

    def __init__(
        self,
        flip_th: int = 10_000,
        timings: Optional[DramTimings] = None,
        cbf_size: Optional[int] = None,
        n_bl: Optional[int] = None,
        num_hashes: int = 4,
        seed: int = 0xB10F,
    ):
        super().__init__()
        timings = timings or DramTimings()
        default_size, default_nbl = blockhammer_config(flip_th)
        self.flip_th = flip_th
        self.cbf_size = cbf_size or default_size
        self.n_bl = n_bl or default_nbl
        self.delay_cycles = blockhammer_delay_cycles(
            flip_th, self.n_bl, timings
        )
        epoch_acts = max(2, timings.acts_per_trefw())
        self.cbf = DualCountingBloomFilter(
            self.cbf_size, epoch_length=epoch_acts, num_hashes=num_hashes,
            seed=seed,
        )
        self._release: Dict[int, int] = {}
        self.blacklisted_rows_seen = 0

    def on_activate(self, row: int, cycle: int) -> List[int]:
        self.stats.acts_observed += 1
        if self.cbf.observe_and_estimate(row) >= self.n_bl:
            if row not in self._release:
                self.blacklisted_rows_seen += 1
            self._release[row] = cycle + self.delay_cycles
            self.stats.throttle_events += 1
        return []

    def throttle_release(self, row: int, cycle: int) -> int:
        release = self._release.get(row)
        if release is None or release <= cycle:
            return cycle
        return release

    def is_blacklisted(self, row: int) -> bool:
        return self.cbf.estimate(row) >= self.n_bl

    def table_entries(self) -> int:
        return self.cbf_size * 2
