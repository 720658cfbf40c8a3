"""Pluggable cluster messaging with a filesystem-spool implementation.

The coordinator and its host agents never share memory: every word
between them is a :class:`Message` envelope moving through a
:class:`Transport`.  The interface is deliberately tiny — ``send`` to
a named mailbox, ``recv`` everything pending in one — so tomorrow's
SSH transport only has to move the same envelopes over a wire.

Today's implementation, :class:`SpoolTransport`, is a shared-
filesystem spool: each mailbox is a directory of one-message JSON
files written atomically (temp + rename, sealed like every other
durable record in this repo), named so a sorted directory listing
replays per-sender order.  A torn or unparsable message file is
quarantined and skipped — messages are *transport*, the sealed result
store remains the only source of truth, so a lost message costs a
retransmit or a lease timeout, never a wrong result.

This is also where the fault harness (:mod:`repro.faults`,
docs/FAULTS.md) injects network weather deterministically:

* ``transport.send`` / ``transport.recv`` — key
  ``<mailbox>:<message type>:<sender>`` (glob it: a plan targeting
  one host's results matches ``coordinator:result:host-2``); kinds
  ``drop`` (message vanishes), ``delay`` (envelope carries a
  ``not_before`` stamp the receiver honours; ``seconds`` sets the
  delay), ``duplicate`` (delivered twice), ``torn`` (truncated file
  → quarantine on read).
* ``host.heartbeat`` — key = host id, consulted by the agent before
  each heartbeat; ``drop`` simulates a partition (the agent keeps
  working, its heartbeats vanish), ``crash`` a host death.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import faults
from repro.engine.durable import (
    CorruptEntryError,
    atomic_write_json,
    quarantine_file,
    read_json_verified,
    seal,
)

#: Mailbox name of the coordinator; agents use ``host-<id>``.
COORDINATOR_MAILBOX = "coordinator"

#: Injection sites implemented by this module.
SEND_SITE = "transport.send"
RECV_SITE = "transport.recv"
HEARTBEAT_SITE = "host.heartbeat"


def host_mailbox(host_id: str) -> str:
    """Mailbox name of a host agent."""
    return f"host-{host_id}"


@dataclass
class Message:
    """One envelope: routing metadata plus an arbitrary JSON payload."""

    type: str
    sender: str
    payload: Dict[str, Any] = field(default_factory=dict)
    seq: int = 0
    sent: float = 0.0
    not_before: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": self.type,
            "sender": self.sender,
            "payload": self.payload,
            "seq": self.seq,
            "sent": self.sent,
            "not_before": self.not_before,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Message":
        return cls(
            type=str(data.get("type", "")),
            sender=str(data.get("sender", "")),
            payload=dict(data.get("payload") or {}),
            seq=int(data.get("seq", 0)),
            sent=float(data.get("sent", 0.0)),
            not_before=float(data.get("not_before", 0.0)),
        )


class Transport:
    """Abstract message fabric between coordinator and host agents.

    Implementations must deliver messages at-most-once per ``send``
    call (duplicates only under injected faults), preserve per-sender
    order, and never deliver a torn message as if it were whole.
    """

    def send(self, mailbox: str, message: Message) -> None:
        raise NotImplementedError

    def recv(self, mailbox: str, limit: Optional[int] = None) -> List[Message]:
        raise NotImplementedError


class SpoolTransport(Transport):
    """Shared-filesystem spool transport.

    Layout under ``root``::

        <root>/<mailbox>/inbox/msg-<sender>-<seq:010d>.json
        <root>/<mailbox>/inbox/quarantine/   # torn/unparsable messages

    Writers are atomic (temp + rename), so a reader never sees a
    half-written file through the normal path — torn messages exist
    only when injected or when the filesystem itself tears a write,
    and either way they quarantine instead of crashing the receiver.
    """

    def __init__(self, root: Path, sender: str = "?"):
        self.root = Path(root)
        self.sender = sender
        self._seq = 0
        self._lock = threading.Lock()

    # -- paths ---------------------------------------------------------

    def inbox(self, mailbox: str) -> Path:
        return self.root / mailbox / "inbox"

    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    # -- send ----------------------------------------------------------

    def send(self, mailbox: str, message: Message) -> None:
        message.sender = message.sender or self.sender
        message.seq = message.seq or self._next_seq()
        message.sent = time.time()
        rule = faults.maybe_fail(
            SEND_SITE, f"{mailbox}:{message.type}:{message.sender}"
        )
        if rule is not None and rule.kind == "drop":
            return
        if rule is not None and rule.kind == "delay":
            message.not_before = time.time() + rule.seconds
        copies = 2 if rule is not None and rule.kind == "duplicate" else 1
        inbox = self.inbox(mailbox)
        inbox.mkdir(parents=True, exist_ok=True)
        record = seal(message.as_dict())
        for copy in range(copies):
            name = (f"msg-{message.sender}-{message.seq:010d}"
                    + (f"-dup{copy}" if copy else "") + ".json")
            path = inbox / name
            if rule is not None and rule.kind == "torn":
                text = json.dumps(record, sort_keys=True)
                path.write_text(text[: max(1, len(text) // 2)])
                continue
            atomic_write_json(path, record)

    # -- recv ----------------------------------------------------------

    def recv(self, mailbox: str, limit: Optional[int] = None) -> List[Message]:
        """All deliverable messages in ``mailbox``, oldest first.

        Each returned message's spool file is deleted (delivery is
        consumption).  Delayed envelopes stay spooled until their
        ``not_before`` passes; torn/unparsable files are quarantined.
        """
        inbox = self.inbox(mailbox)
        pending = sorted(self._spooled(inbox))
        now = time.time()
        delivered: List[Message] = []
        for path in pending:
            if limit is not None and len(delivered) >= limit:
                break
            try:
                record = read_json_verified(path)
            except FileNotFoundError:
                continue
            except CorruptEntryError as error:
                quarantine_file(path, f"torn message: {error}", root=inbox)
                continue
            message = Message.from_dict(record)
            if message.not_before > now:
                continue
            rule = faults.maybe_fail(
                RECV_SITE,
                f"{mailbox}:{message.type}:{message.sender}",
            )
            if rule is not None and rule.kind == "drop":
                path.unlink(missing_ok=True)
                continue
            if rule is not None and rule.kind == "delay":
                message.not_before = now + rule.seconds
                atomic_write_json(path, seal(message.as_dict()))
                continue
            if rule is not None and rule.kind == "torn":
                text = path.read_text()
                path.write_text(text[: max(1, len(text) // 2)])
                try:
                    read_json_verified(path)
                except CorruptEntryError as error:
                    quarantine_file(path, f"torn message: {error}",
                                    root=inbox)
                continue
            path.unlink(missing_ok=True)
            delivered.append(message)
            if rule is not None and rule.kind == "duplicate":
                delivered.append(Message.from_dict(record))
        return delivered

    def purge(self, mailbox: str) -> int:
        """Discard every pending message in ``mailbox``, unread.

        Used when a mailbox changes hands: a fresh cluster epoch must
        not replay assignments (or a shutdown order) addressed to a
        previous incarnation's agent.
        """
        spooled = self._spooled(self.inbox(mailbox))
        for path in spooled:
            path.unlink(missing_ok=True)
        return len(spooled)

    # -- introspection -------------------------------------------------

    def pending_count(self, mailbox: str) -> int:
        return len(self._spooled(self.inbox(mailbox)))

    @staticmethod
    def _spooled(inbox: Path) -> List[Path]:
        """Published messages only: ``msg-*.json``, never a sender's
        in-flight ``msg-*.tmp.<pid>`` temp file awaiting its rename."""
        try:
            return [p for p in inbox.iterdir()
                    if p.name.startswith("msg-") and p.suffix == ".json"]
        except FileNotFoundError:
            return []


def heartbeat_gate(host_id: str) -> bool:
    """Consult the ``host.heartbeat`` site before sending a heartbeat.

    Returns False when a ``drop`` rule fired (the heartbeat must not
    be sent — that *is* the partition).  ``crash``/``hang``/``error``
    rules act in place as usual, so a ``crash`` with ``"hard": true``
    here is the canonical injected host death.
    """
    rule = faults.maybe_fail(HEARTBEAT_SITE, host_id)
    return not (rule is not None and rule.kind == "drop")
