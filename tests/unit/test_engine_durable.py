"""Durable JSON records: seals, atomic writes, quarantine.

The write path must guarantee "previous contents or new contents,
never a torn file"; the read path must turn every corruption mode —
truncation, bit rot, foreign payloads — into a quarantine + miss, not
an exception mid-campaign.  The injected torn/corrupt writes exercise
the exact window the atomic protocol protects.
"""

import hashlib
import json

import pytest

from repro.engine.durable import (
    QUARANTINE_DIR,
    QUARANTINE_LOG,
    SEAL_KEY,
    CorruptEntryError,
    atomic_write_json,
    payload_checksum,
    quarantine_file,
    quarantine_log,
    read_json_verified,
    read_jsonl,
    seal,
    sealed_json,
)
from repro.faults import FAULT_PLAN_ENV
from repro.telemetry import read_events


class TestSeal:
    def test_seal_roundtrip(self):
        record = seal({"a": 1, "b": [2, 3]})
        assert record[SEAL_KEY] == payload_checksum(record)

    def test_tamper_breaks_the_seal(self):
        record = seal({"a": 1})
        record["a"] = 2
        assert record[SEAL_KEY] != payload_checksum(record)

    def test_checksum_ignores_the_seal_field(self):
        record = {"a": 1}
        assert payload_checksum(record) == payload_checksum(seal(record))

    def test_seal_is_the_last_member_over_the_bytes_before_it(self):
        digest = hashlib.sha256(b'{"a":1,"z":[2]}').hexdigest()
        assert sealed_json({"z": [2], "a": 1}) == (
            '{"a":1,"z":[2],"sha256":"' + digest + '"}'
        )
        empty = hashlib.sha256(b"{}").hexdigest()
        assert sealed_json({}) == '{"sha256":"' + empty + '"}'

    def test_sealed_text_matches_the_canonical_dump(self):
        record = {"job": {"b": 1, "a": [1.5, None]}, "result": {"x": "y"}}
        assert sealed_json(record) == json.dumps(
            seal(record), sort_keys=True, separators=(",", ":")
        )


class TestReadVerified:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"x": 41}, sealed=True)
        assert read_json_verified(path)["x"] == 41

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json_verified(tmp_path / "absent.json")

    @pytest.mark.parametrize("text", [
        "",                       # empty
        '{"a": 1',                # truncated JSON
        "[1, 2, 3]",              # non-object
        "not json at all",
    ])
    def test_unparsable_content_is_corrupt(self, tmp_path, text):
        path = tmp_path / "entry.json"
        path.write_text(text)
        with pytest.raises(CorruptEntryError):
            read_json_verified(path)

    def test_unsealed_record_is_corrupt(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({"x": 1}))
        with pytest.raises(CorruptEntryError, match="no sha256 seal"):
            read_json_verified(path)

    @pytest.mark.parametrize("record", [
        {},
        {"a": 1},
        {"type": "result", "seq": 3, "payload": {"n": 1}},
    ])
    def test_sealed_writes_round_trip(self, tmp_path, record):
        path = tmp_path / "entry.json"
        atomic_write_json(path, record, sealed=True)
        assert path.read_text().rstrip().endswith(
            '"' + SEAL_KEY + '":"' + payload_checksum(record) + '"}'
        )
        assert read_json_verified(path) == seal(record)

    def test_pretty_printed_record_with_correct_seal_is_corrupt(
        self, tmp_path
    ):
        """The seal covers the writer's bytes: the same record in any
        other layout reads as corrupt, even with the right digest."""
        path = tmp_path / "entry.json"
        record = seal({"a": 1, "b": [2, 3]})
        path.write_text(json.dumps(record, indent=2, sort_keys=True))
        with pytest.raises(CorruptEntryError, match="seal mismatch"):
            read_json_verified(path)

    def test_non_string_seal_is_corrupt(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text('{"a":1,"sha256":7}')
        with pytest.raises(CorruptEntryError, match="seal mismatch"):
            read_json_verified(path)

    def test_failed_seal_is_corrupt(self, tmp_path):
        path = tmp_path / "entry.json"
        record = seal({"x": 1})
        record["x"] = 2
        path.write_text(json.dumps(record))
        with pytest.raises(CorruptEntryError):
            read_json_verified(path)


class TestAtomicWrite:
    def test_overwrites_atomically_leaving_no_temp(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert json.loads(path.read_text())["v"] == 2
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_injected_torn_write_truncates_final_path(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
            "faults": [{"site": "test.write", "kind": "torn",
                        "times": 1}],
        }))
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"x": 1}, sealed=True,
                          fault_site="test.write")
        with pytest.raises(CorruptEntryError):
            read_json_verified(path)
        # budget spent: the next write is clean
        atomic_write_json(path, {"x": 2}, sealed=True,
                          fault_site="test.write")
        assert read_json_verified(path)["x"] == 2

    def test_injected_corrupt_write_fails_the_seal(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
            "faults": [{"site": "test.write", "kind": "corrupt",
                        "times": 1}],
        }))
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"x": 1}, sealed=True,
                          fault_site="test.write")
        # valid JSON on disk — the seal is what catches it
        assert isinstance(json.loads(path.read_text()), dict)
        with pytest.raises(CorruptEntryError):
            read_json_verified(path)

    def test_injected_corrupt_write_reverses_only_the_seal(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
            "faults": [{"site": "test.rot", "kind": "corrupt",
                        "times": 1}],
        }))
        record = {"a": 1, "b": [2, 3]}
        rotted, clean = tmp_path / "rotted.json", tmp_path / "clean.json"
        atomic_write_json(rotted, record, sealed=True,
                          fault_site="test.rot")
        atomic_write_json(clean, record, sealed=True,
                          fault_site="test.rot")
        digest = payload_checksum(record)
        assert rotted.read_text() != clean.read_text()
        assert rotted.read_text() == clean.read_text().replace(
            digest, digest[::-1]
        )

    def test_unrelated_site_does_not_fire(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
            "faults": [{"site": "other.site", "kind": "torn"}],
        }))
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"x": 1}, sealed=True,
                          fault_site="test.write")
        assert read_json_verified(path)["x"] == 1


class TestQuarantine:
    def test_move_and_log(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("garbage")
        target = quarantine_file(path, "torn by test")
        assert not path.exists()
        assert target == tmp_path / QUARANTINE_DIR / "bad.json"
        assert target.read_text() == "garbage"
        records = quarantine_log(tmp_path)
        assert len(records) == 1
        assert records[0]["file"] == "bad.json"
        assert records[0]["reason"] == "torn by test"

    def test_name_collisions_get_suffixes(self, tmp_path):
        for content in ("one", "two"):
            path = tmp_path / "bad.json"
            path.write_text(content)
            quarantine_file(path, "again")
        names = sorted(
            p.name for p in (tmp_path / QUARANTINE_DIR).iterdir()
            if p.name != QUARANTINE_LOG
        )
        assert names == ["bad.json", "bad.json.1"]

    def test_explicit_root_pools_quarantine(self, tmp_path):
        shard = tmp_path / "ab"
        shard.mkdir()
        path = shard / "bad.json"
        path.write_text("x")
        target = quarantine_file(path, "why", root=tmp_path)
        assert target.parent == tmp_path / QUARANTINE_DIR

    def test_missing_file_returns_none(self, tmp_path):
        assert quarantine_file(tmp_path / "absent.json", "?") is None


#: Lines every newline-JSON reader must skip: valid JSON that is not an
#: object, a blank line, and a torn record.
_NOT_OBJECTS = '[1, 2]\n7\n"text"\nnull\n\n{"torn": \n'


class TestReadJsonl:
    def test_missing_file_reads_as_empty(self, tmp_path):
        assert list(read_jsonl(tmp_path / "absent.jsonl")) == []

    def test_every_reader_skips_non_object_lines(self, tmp_path):
        stream = tmp_path / "stream.jsonl"
        stream.write_text(
            '{"hash": "aa", "scheme": "none"}\n' + _NOT_OBJECTS
            + '{"hash": "bb", "scheme": "mithril"}\n'
        )
        assert list(read_jsonl(stream)) == [
            {"hash": "aa", "scheme": "none"},
            {"hash": "bb", "scheme": "mithril"},
        ]

        log = tmp_path / QUARANTINE_DIR / QUARANTINE_LOG
        log.parent.mkdir()
        log.write_text(
            '{"file": "x.json"}\n' + _NOT_OBJECTS + '{"file": "y.json"}\n'
        )
        assert quarantine_log(tmp_path) == [
            {"file": "x.json"}, {"file": "y.json"}
        ]

        stream = tmp_path / "events-1.jsonl"
        stream.write_text(
            '{"kind": "a"}\n' + _NOT_OBJECTS + '{"kind": "b"}\n'
        )
        assert list(read_events(stream)) == [{"kind": "a"}, {"kind": "b"}]
