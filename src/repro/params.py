"""DDR5 timing and organization parameters used throughout the reproduction.

The values follow Table III of the Mithril paper (HPCA 2022):

* DDR5-4800, 2 channels, 1 rank, 32 banks per rank
* tRFC = 295 ns, tRC = 48.64 ns, tRFM = 97.28 ns
* tRCD = tRP = tCL = 16.64 ns
* tREFW = 32 ms, tREFI = tREFW / 8192

All timings are stored in nanoseconds (floats) and converted to integer
memory-clock cycles on demand.  The simulator works in clock cycles so
that event ordering is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property


#: DDR5-4800 command-clock period in nanoseconds (2400 MHz command clock).
DDR5_4800_TCK_NS = 1.0 / 2.4


@dataclass(frozen=True)
class DramTimings:
    """DRAM timing parameters, in nanoseconds.

    The defaults are the DDR5-4800 values from Table III of the paper.
    """

    tck: float = DDR5_4800_TCK_NS
    trc: float = 48.64       #: ACT-to-ACT on the same bank
    tras: float = 32.0       #: ACT-to-PRE minimum
    trp: float = 16.64       #: PRE-to-ACT
    trcd: float = 16.64      #: ACT-to-column command
    tcl: float = 16.64       #: column command to data
    tbl: float = 3.33        #: data-burst occupancy of the channel (BL16)
    trfc: float = 295.0      #: refresh cycle time (all-bank REF blockage)
    trfm: float = 97.28      #: RFM command time margin
    tfaw: float = 13.33      #: four-activation window per rank
    trrd: float = 3.33       #: ACT-to-ACT across banks of a rank
    trefw: float = 32e6      #: refresh window (32 ms)
    trefi: float = 32e6 / 8192.0  #: refresh interval (tREFW / 8192)

    def cycles(self, nanoseconds: float) -> int:
        """Convert a duration in nanoseconds to whole clock cycles."""
        return int(math.ceil(nanoseconds / self.tck - 1e-9))

    # Each ``*_cycles`` value is derived once per timings object and
    # kept in the instance ``__dict__`` (which the frozen dataclass's
    # eq, hash, ``replace`` and ``asdict`` never read): every bank of
    # a system reads the same handful of them at build time.

    @cached_property
    def trc_cycles(self) -> int:
        return self.cycles(self.trc)

    @cached_property
    def tras_cycles(self) -> int:
        return self.cycles(self.tras)

    @cached_property
    def trp_cycles(self) -> int:
        return self.cycles(self.trp)

    @cached_property
    def trcd_cycles(self) -> int:
        return self.cycles(self.trcd)

    @cached_property
    def tcl_cycles(self) -> int:
        return self.cycles(self.tcl)

    @cached_property
    def tbl_cycles(self) -> int:
        return self.cycles(self.tbl)

    @cached_property
    def trfc_cycles(self) -> int:
        return self.cycles(self.trfc)

    @cached_property
    def trfm_cycles(self) -> int:
        return self.cycles(self.trfm)

    @cached_property
    def tfaw_cycles(self) -> int:
        return self.cycles(self.tfaw)

    @cached_property
    def trefi_cycles(self) -> int:
        return self.cycles(self.trefi)

    @cached_property
    def trefw_cycles(self) -> int:
        return self.cycles(self.trefw)

    def acts_per_trefw(self) -> int:
        """Maximum single-bank ACT count within one tREFW window.

        The bank is unavailable for tRFC out of every tREFI, and each
        ACT occupies the bank for at least tRC.
        """
        usable = self.trefw * (1.0 - self.trfc / self.trefi)
        return int(usable / self.trc)

    def rfm_intervals_per_trefw(self, rfm_th: int) -> int:
        """``W`` of the paper: max RFM intervals within one tREFW.

        W = ceil((tREFW - (tREFW/tREFI) * tRFC) / (tRC * RFM_TH + tRFM))
        """
        if rfm_th <= 0:
            raise ValueError(f"rfm_th must be positive, got {rfm_th}")
        usable = self.trefw - (self.trefw / self.trefi) * self.trfc
        return int(math.ceil(usable / (self.trc * rfm_th + self.trfm)))


@dataclass(frozen=True)
class DramOrganization:
    """Main-memory organization (Table III defaults)."""

    channels: int = 2
    ranks_per_channel: int = 1
    banks_per_rank: int = 32
    rows_per_bank: int = 65536
    row_size_bytes: int = 8192
    cacheline_bytes: int = 64
    refresh_groups: int = 8192   #: row groups refreshed per tREFI tick

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def columns_per_row(self) -> int:
        return self.row_size_bytes // self.cacheline_bytes

    @property
    def rows_per_refresh_group(self) -> int:
        return max(1, self.rows_per_bank // self.refresh_groups)


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated-system configuration.

    Combines the DRAM organization and timings with the host-side
    parameters of the paper's evaluation setup (16 cores, BLISS
    scheduling, minimalist-open page policy).
    """

    timings: DramTimings = field(default_factory=DramTimings)
    organization: DramOrganization = field(default_factory=DramOrganization)
    num_cores: int = 16
    scheduler: str = "bliss"          #: "bliss" or "frfcfs"
    page_policy: str = "minimalist-open"  #: or "open" / "closed"
    core_clock_ghz: float = 3.6

    def with_timings(self, **kwargs) -> "SystemConfig":
        return replace(self, timings=replace(self.timings, **kwargs))

    def with_organization(self, **kwargs) -> "SystemConfig":
        return replace(self, organization=replace(self.organization, **kwargs))


#: Default configuration matching Table III of the paper.
DEFAULT_CONFIG = SystemConfig()

#: FlipTH values swept in the paper's evaluation (Figures 9-11, Table IV).
PAPER_FLIP_THRESHOLDS = (50_000, 25_000, 12_500, 6_250, 3_125, 1_500)

#: Default adaptive-refresh threshold used in the evaluation.
DEFAULT_ADAPTIVE_THRESHOLD = 200

#: BlockHammer (CBF size, blacklist threshold N_BL) pairs per FlipTH
#: from Section VI-A of the paper.
BLOCKHAMMER_CONFIGS = {
    50_000: (1024, 17_100),
    25_000: (1024, 8_600),
    12_500: (1024, 4_300),
    6_250: (2048, 2_100),
    3_125: (4096, 1_100),
    1_500: (8192, 490),
}

#: Paper's Mithril RFM_TH choice per FlipTH for the headline configuration
#: (Figure 9: high FlipTH fixes RFM_TH=256; the lowest uses 32).
MITHRIL_DEFAULT_RFM_TH = {
    50_000: 256,
    25_000: 256,
    12_500: 256,
    6_250: 128,
    3_125: 64,
    1_500: 32,
}
