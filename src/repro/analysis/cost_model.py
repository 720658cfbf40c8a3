"""Physical cost model: from table bits to mm² and nJ (Section VI-A).

The paper synthesizes the Mithril module with a TSMC 40 nm standard-cell
library, scales the area to a 20 nm DRAM node, then multiplies by 10x
(Devaux, HotChips'19) to account for the DRAM process's inferior logic
density.  This module reproduces that methodology with published
scaling constants so the headline claim — 0.024 mm² at FlipTH = 6.25K,
about 1% of a DDR5 chip when replicated over 32 banks — can be checked.

Constants are ballpark-public figures; as with the energy model, the
evaluation only consumes ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import MithrilConfig
from repro.params import DramOrganization


#: CAM bit cell in a 40nm logic process (um^2), incl. match-line logic.
CAM_BIT_UM2_40NM = 0.58
#: SRAM bit cell for non-CAM storage (um^2) at 40nm.
SRAM_BIT_UM2_40NM = 0.30
#: control logic overhead as a fraction of storage area
CONTROL_OVERHEAD = 0.35
#: linear-dimension scale factor from 40nm to 20nm (area scales ^2)
LINEAR_SCALE_40_TO_20 = 0.5
#: DRAM-process logic density penalty (Devaux, HotChips 2019)
DRAM_PROCESS_PENALTY = 10.0
#: die area of a 16Gb DDR5 chip (mm^2), ISSCC'19-scale part
DDR5_CHIP_AREA_MM2 = 76.0


@dataclass(frozen=True)
class ModuleCost:
    """Physical cost of one per-bank protection module."""

    storage_bits: int
    cam_bits: int
    area_mm2: float
    per_chip_area_mm2: float
    chip_fraction: float

    def summary(self) -> dict:
        return {
            "storage_bits": self.storage_bits,
            "area_mm2": round(self.area_mm2, 5),
            "per_chip_area_mm2": round(self.per_chip_area_mm2, 4),
            "chip_fraction_pct": round(100 * self.chip_fraction, 2),
        }


def logic_area_mm2(
    cam_bits: int,
    sram_bits: int = 0,
    control_overhead: float = CONTROL_OVERHEAD,
) -> float:
    """Area of a tracker module on the DRAM die, via the paper's route:
    40 nm synthesis -> 20 nm scaling -> 10x DRAM-process penalty."""
    um2_40 = cam_bits * CAM_BIT_UM2_40NM + sram_bits * SRAM_BIT_UM2_40NM
    um2_40 *= 1.0 + control_overhead
    um2_20 = um2_40 * (LINEAR_SCALE_40_TO_20 ** 2)
    um2_dram = um2_20 * DRAM_PROCESS_PENALTY
    return um2_dram / 1e6


def mithril_module_cost(
    config: MithrilConfig,
    organization: Optional[DramOrganization] = None,
) -> ModuleCost:
    """Physical cost of the Mithril module of Figure 4.

    Both the address and the counter fields sit in CAMs (the address
    CAM is searched on every ACT; the counter CAM supports the MaxPtr /
    MinPtr updates), so all table bits are CAM bits.
    """
    organization = organization or DramOrganization()
    bits = config.table_bits(organization)
    area = logic_area_mm2(cam_bits=bits)
    per_chip = area * organization.banks_per_rank
    return ModuleCost(
        storage_bits=bits,
        cam_bits=bits,
        area_mm2=area,
        per_chip_area_mm2=per_chip,
        chip_fraction=per_chip / DDR5_CHIP_AREA_MM2,
    )


def mc_table_cost(
    table_bits: int,
    organization: Optional[DramOrganization] = None,
) -> ModuleCost:
    """Cost of an MC-side table (SRAM-dominated, logic process).

    MC-side schemes skip the DRAM-process penalty but must provision
    for the worst-case bank count (the paper's 1,024-bank argument is
    reported by the caller through ``table_bits``).
    """
    organization = organization or DramOrganization()
    um2 = table_bits * SRAM_BIT_UM2_40NM * (1.0 + CONTROL_OVERHEAD)
    um2 *= LINEAR_SCALE_40_TO_20 ** 2  # a modern logic node
    area = um2 / 1e6
    return ModuleCost(
        storage_bits=table_bits,
        cam_bits=0,
        area_mm2=area,
        per_chip_area_mm2=area,
        chip_fraction=0.0,
    )


def paper_headline_check(flip_th: int = 6_250) -> dict:
    """The Section VI-E claim: ~0.024 mm² per bank, ~1% of the chip."""
    from repro.core.config import paper_default_config

    config = paper_default_config(flip_th)
    cost = mithril_module_cost(config)
    return {
        "flip_th": flip_th,
        "rfm_th": config.rfm_th,
        "n_entries": config.n_entries,
        "module_mm2": round(cost.area_mm2, 4),
        "paper_module_mm2": 0.024,
        "chip_fraction_pct": round(100 * cost.chip_fraction, 2),
        "paper_chip_fraction_pct": 1.0,
    }
