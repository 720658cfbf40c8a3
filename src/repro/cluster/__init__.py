"""Distributed campaign execution (docs/CAMPAIGNS.md § distributed).

A **coordinator** shards the hash-deduplicated campaign job pool
across **host agents** over a pluggable :class:`~repro.cluster.
transport.Transport` (filesystem spool today, SSH tomorrow).  Host
leases renewed by heartbeats layer on the engine's per-job leases;
dead or partitioned hosts have their outstanding chunks reassigned,
late duplicate results are discarded by hash, and the atomic
``manifest.json`` checkpoint stays the cluster's single source of
truth — kill any process at any instant and a resume re-simulates
zero completed points.

    from repro.campaigns import get_campaign, run_campaign

    result = run_campaign(get_campaign("smoke"), hosts=2, n_jobs=1)

``run_campaign`` drives the coordinator whenever ``hosts > 0``; this
package holds the coordinator, the agents and the transport.
"""

from repro.cluster.agent import HostAgent, agent_main
from repro.cluster.coordinator import (
    ClusterRunStats,
    Coordinator,
    HostState,
    LocalAgentLauncher,
)
from repro.cluster.transport import (
    COORDINATOR_MAILBOX,
    Message,
    SpoolTransport,
    Transport,
    heartbeat_gate,
    host_mailbox,
)

__all__ = [
    "COORDINATOR_MAILBOX",
    "ClusterRunStats",
    "Coordinator",
    "HostAgent",
    "HostState",
    "LocalAgentLauncher",
    "Message",
    "SpoolTransport",
    "Transport",
    "agent_main",
    "heartbeat_gate",
    "host_mailbox",
]
