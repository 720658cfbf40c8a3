"""Address-to-(bank, row, column) mapping policies.

External traces (DRAMsim3-style CSVs, raw physical-address logs) carry
byte addresses; the simulator wants ``(flat bank, row, column)``
coordinates.  A *mapping policy* is the controller's address-decode
choice, and it materially changes the ACT stream a trace produces —
bank-interleaved low bits spread a sequential sweep across banks while
row-major low bits turn it into one long per-bank burst — so the
policy is recorded in TraceSet provenance next to the source file.

Policies are registered by name (:func:`register_mapping`) and decode
one cacheline-aligned address at a time against a
:class:`~repro.params.DramOrganization`::

    bank, row, column = map_address("row-bank-col", 0x2AB348A1C0, org)

The flat bank index is the simulator's ``entry.bank_index`` space
(``channel * ranks_per_channel * banks_per_rank + ...``), so decoded
addresses drop straight into a trace's ``bank_index`` column.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.params import DramOrganization

#: A policy maps (cacheline block index, organization) -> coordinates.
MappingPolicy = Callable[[int, DramOrganization], Tuple[int, int, int]]

_MAPPINGS: Dict[str, MappingPolicy] = {}

#: The default policy: what commodity controllers ship (bank bits low,
#: adjacent cachelines stripe across banks before moving rows).
DEFAULT_MAPPING = "row-bank-col"


def register_mapping(name: str):
    """Decorator registering an address-mapping policy under ``name``."""

    def decorator(policy: MappingPolicy) -> MappingPolicy:
        _MAPPINGS[name] = policy
        return policy

    return decorator


def mapping_names() -> List[str]:
    return sorted(_MAPPINGS)


def get_mapping(name: str) -> MappingPolicy:
    try:
        return _MAPPINGS[name]
    except KeyError:
        raise KeyError(
            f"unknown mapping policy {name!r}; "
            f"known: {', '.join(mapping_names())}"
        ) from None


def map_address(
    name: str, address: int, organization: DramOrganization
) -> Tuple[int, int, int]:
    """Decode a byte ``address`` into (flat bank, row, column)."""
    if address < 0:
        raise ValueError(f"address must be non-negative, got {address}")
    block = address // organization.cacheline_bytes
    return get_mapping(name)(block, organization)


@register_mapping("row-bank-col")
def _row_bank_col(
    block: int, org: DramOrganization
) -> Tuple[int, int, int]:
    """column low, bank middle, row high — bank-interleaved sweeps."""
    column = block % org.columns_per_row
    block //= org.columns_per_row
    bank = block % org.total_banks
    row = (block // org.total_banks) % org.rows_per_bank
    return bank, row, column


@register_mapping("bank-row-col")
def _bank_row_col(
    block: int, org: DramOrganization
) -> Tuple[int, int, int]:
    """column low, row middle, bank high — contiguous per-bank regions.

    A sequential sweep stays inside one bank for a whole
    rows-per-bank span (the NUMA-style partitioned layout).
    """
    column = block % org.columns_per_row
    block //= org.columns_per_row
    row = block % org.rows_per_bank
    bank = (block // org.rows_per_bank) % org.total_banks
    return bank, row, column


@register_mapping("xor-bank")
def _xor_bank(block: int, org: DramOrganization) -> Tuple[int, int, int]:
    """row-bank-col with the bank index XOR-permuted by low row bits.

    The permutation-based interleaving many controllers use to break
    pathological bank-conflict strides; two addresses in the same row
    still share a bank, but stride patterns no longer pin one bank.
    """
    bank, row, column = _row_bank_col(block, org)
    return (bank ^ row) % org.total_banks, row, column
