"""DRAM page (row-buffer) policies.

* open: keep the row open until a conflicting request arrives.
* closed: precharge after every access.
* minimalist-open (Kaseridis et al.): keep the row open just long
  enough to capture a small burst of spatial locality (default 4
  accesses), then close — which is why it pairs well with streaming
  workloads and caps the ACT amplification that RowHammer trackers see.
"""

from __future__ import annotations

from typing import List

from repro.types import MemoryRequest


class OpenPagePolicy:
    name = "open"

    def should_close(
        self,
        row: int,
        consecutive_hits: int,
        queue: List[MemoryRequest],
    ) -> bool:
        return False


class ClosedPagePolicy:
    name = "closed"

    def should_close(
        self,
        row: int,
        consecutive_hits: int,
        queue: List[MemoryRequest],
    ) -> bool:
        return True


class MinimalistOpenPolicy:
    """Close after a bounded burst, or when no same-row request waits."""

    name = "minimalist-open"

    def __init__(self, burst_limit: int = 4):
        self.burst_limit = burst_limit

    def should_close(
        self,
        row: int,
        consecutive_hits: int,
        queue: List[MemoryRequest],
    ) -> bool:
        if consecutive_hits >= self.burst_limit:
            return True
        for request in queue:  # plain loop: runs once per served request
            if request.address.row == row:
                return False
        return True


def make_page_policy(name: str):
    if name == "open":
        return OpenPagePolicy()
    if name == "closed":
        return ClosedPagePolicy()
    if name == "minimalist-open":
        return MinimalistOpenPolicy()
    raise ValueError(
        f"unknown page policy {name!r}; use 'open', 'closed' or 'minimalist-open'"
    )
