"""Unit tests for the cluster spool transport (repro.cluster.transport).

The transport is the only channel between coordinator and host
agents, so its contract is load-bearing for every distributed
invariant: atomic one-message files, per-sender ordering, quarantine
of torn envelopes, and deterministic fault injection at
``transport.send`` / ``transport.recv`` / ``host.heartbeat``
(docs/FAULTS.md).
"""

import json
import time

import pytest

from repro.faults import FAULT_PLAN_ENV, InjectedError
from repro.cluster.transport import (
    COORDINATOR_MAILBOX,
    Message,
    SpoolTransport,
    heartbeat_gate,
    host_mailbox,
)


def _activate(monkeypatch, rules, state_dir=None):
    doc = {"faults": rules}
    if state_dir is not None:
        doc["state_dir"] = str(state_dir)
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(doc))


@pytest.fixture
def spool(tmp_path):
    return SpoolTransport(tmp_path / "cluster", sender="host-1")


class TestRoundtrip:
    def test_send_recv_preserves_payload_and_order(self, spool):
        for n in range(3):
            spool.send(COORDINATOR_MAILBOX, Message(
                type="result", sender="host-1", payload={"n": n},
            ))
        got = spool.recv(COORDINATOR_MAILBOX)
        assert [m.payload["n"] for m in got] == [0, 1, 2]
        assert all(m.type == "result" for m in got)
        assert all(m.sender == "host-1" for m in got)

    def test_recv_consumes(self, spool):
        spool.send(COORDINATOR_MAILBOX, Message(type="hello", sender="h"))
        assert len(spool.recv(COORDINATOR_MAILBOX)) == 1
        assert spool.recv(COORDINATOR_MAILBOX) == []
        assert spool.pending_count(COORDINATOR_MAILBOX) == 0

    def test_empty_mailbox_is_empty(self, spool):
        assert spool.recv("never-created") == []
        assert spool.pending_count("never-created") == 0

    def test_inflight_temp_file_is_invisible(self, spool):
        """A sender's half-written ``msg-*.tmp.<pid>`` (the window
        before its rename) is neither delivered, quarantined, purged
        nor counted — otherwise the sender's rename would fail."""
        inbox = spool.inbox("m")
        inbox.mkdir(parents=True)
        partial = inbox / "msg-host-2-0000000001.tmp.4242"
        partial.write_text('{"type": "res')
        assert spool.recv("m") == []
        assert not (inbox / "quarantine").exists()
        assert spool.pending_count("m") == 0
        assert spool.purge("m") == 0
        assert partial.read_text() == '{"type": "res'

    def test_limit_leaves_remainder_spooled(self, spool):
        for n in range(5):
            spool.send("m", Message(type="t", sender="s", payload={"n": n}))
        first = spool.recv("m", limit=2)
        assert [m.payload["n"] for m in first] == [0, 1]
        assert spool.pending_count("m") == 3
        rest = spool.recv("m")
        assert [m.payload["n"] for m in rest] == [2, 3, 4]

    def test_default_sender_is_stamped(self, spool):
        spool.send("m", Message(type="t", sender=""))
        [got] = spool.recv("m")
        assert got.sender == "host-1"
        assert got.seq > 0 and got.sent > 0

    def test_keys_sorting_after_the_seal_survive(self, spool):
        """``type`` and the payload sort after ``sha256``: the seal is
        still written last, and the message reads back whole."""
        spool.send(COORDINATOR_MAILBOX, Message(
            type="result", sender="host-1", payload={"z": 1},
        ))
        [path] = spool.inbox(COORDINATOR_MAILBOX).glob("msg-*.json")
        assert list(json.loads(path.read_text()))[-1] == "sha256"
        [got] = spool.recv(COORDINATOR_MAILBOX)
        assert (got.type, got.payload) == ("result", {"z": 1})
        assert not list(spool.inbox(COORDINATOR_MAILBOX).rglob("*.json*"))

    def test_mailbox_names(self):
        assert host_mailbox("2") == "host-2"
        assert COORDINATOR_MAILBOX == "coordinator"


class TestSendFaults:
    def test_drop_loses_the_message(self, spool, monkeypatch):
        _activate(monkeypatch, [
            {"site": "transport.send", "kind": "drop", "times": 1},
        ])
        spool.send("m", Message(type="result", sender="h"))
        spool.send("m", Message(type="result", sender="h"))
        assert len(spool.recv("m")) == 1

    def test_delay_holds_delivery_until_not_before(self, spool,
                                                   monkeypatch):
        _activate(monkeypatch, [
            {"site": "transport.send", "kind": "delay",
             "seconds": 0.2, "times": 1},
        ])
        spool.send("m", Message(type="result", sender="h"))
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert spool.recv("m") == []          # still embargoed
        assert spool.pending_count("m") == 1  # but spooled, not lost
        time.sleep(0.25)
        assert len(spool.recv("m")) == 1

    def test_duplicate_delivers_twice(self, spool, monkeypatch):
        _activate(monkeypatch, [
            {"site": "transport.send", "kind": "duplicate", "times": 1},
        ])
        spool.send("m", Message(type="result", sender="h",
                                payload={"k": "v"}))
        monkeypatch.delenv(FAULT_PLAN_ENV)
        got = spool.recv("m")
        assert len(got) == 2
        assert got[0].payload == got[1].payload == {"k": "v"}

    def test_torn_message_quarantines_not_delivers(self, spool,
                                                   monkeypatch):
        _activate(monkeypatch, [
            {"site": "transport.send", "kind": "torn", "times": 1},
        ])
        spool.send("m", Message(type="result", sender="h"))
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert spool.recv("m") == []
        quarantine = spool.inbox("m") / "quarantine"
        assert any(quarantine.glob("msg-*"))

    def test_key_scopes_to_mailbox_type_and_sender(self, spool,
                                                   monkeypatch):
        # A plan can target one host's result traffic and nothing else.
        _activate(monkeypatch, [
            {"site": "transport.send", "kind": "drop",
             "match": "coordinator:result:host-2", "times": None},
        ])
        spool.send(COORDINATOR_MAILBOX,
                   Message(type="result", sender="host-2"))
        spool.send(COORDINATOR_MAILBOX,
                   Message(type="result", sender="host-1"))
        spool.send(COORDINATOR_MAILBOX,
                   Message(type="heartbeat", sender="host-2"))
        got = spool.recv(COORDINATOR_MAILBOX)
        assert {(m.type, m.sender) for m in got} == {
            ("result", "host-1"), ("heartbeat", "host-2"),
        }


class TestRecvFaults:
    def test_drop_deletes_without_delivering(self, spool, monkeypatch):
        spool.send("m", Message(type="result", sender="h"))
        _activate(monkeypatch, [
            {"site": "transport.recv", "kind": "drop", "times": 1},
        ])
        assert spool.recv("m") == []
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert spool.recv("m") == []  # really gone, not embargoed

    def test_delay_restamps_and_redelivers_later(self, spool,
                                                 monkeypatch):
        spool.send("m", Message(type="result", sender="h"))
        _activate(monkeypatch, [
            {"site": "transport.recv", "kind": "delay",
             "seconds": 0.2, "times": 1},
        ])
        assert spool.recv("m") == []
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert spool.pending_count("m") == 1
        time.sleep(0.25)
        assert len(spool.recv("m")) == 1

    def test_duplicate_delivers_twice_from_one_file(self, spool,
                                                    monkeypatch):
        spool.send("m", Message(type="result", sender="h"))
        _activate(monkeypatch, [
            {"site": "transport.recv", "kind": "duplicate", "times": 1},
        ])
        assert len(spool.recv("m")) == 2
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert spool.recv("m") == []

    def test_torn_on_read_quarantines(self, spool, monkeypatch):
        spool.send("m", Message(type="result", sender="h"))
        _activate(monkeypatch, [
            {"site": "transport.recv", "kind": "torn", "times": 1},
        ])
        assert spool.recv("m") == []
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert spool.recv("m") == []
        quarantine = spool.inbox("m") / "quarantine"
        assert any(quarantine.glob("msg-*"))

    def test_externally_torn_file_quarantines(self, spool):
        # A half-written file with no fault plan at all (filesystem
        # tearing) quarantines instead of crashing the receiver.
        spool.send("m", Message(type="result", sender="h",
                                payload={"big": "x" * 200}))
        [path] = [p for p in spool.inbox("m").iterdir()
                  if p.name.startswith("msg-")]
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert spool.recv("m") == []
        quarantine = spool.inbox("m") / "quarantine"
        assert any(quarantine.glob("msg-*"))


class TestHeartbeatGate:
    def test_open_without_a_plan(self):
        assert heartbeat_gate("1") is True

    def test_drop_closes_the_gate(self, monkeypatch):
        _activate(monkeypatch, [
            {"site": "host.heartbeat", "kind": "drop",
             "match": "2", "times": None},
        ])
        assert heartbeat_gate("2") is False  # the partition
        assert heartbeat_gate("1") is True   # other hosts unaffected

    def test_error_kind_acts_in_place(self, monkeypatch):
        _activate(monkeypatch, [
            {"site": "host.heartbeat", "kind": "error"},
        ])
        with pytest.raises(InjectedError):
            heartbeat_gate("1")
