"""Durable JSON records: atomic writes, sealed payloads, quarantine.

Every result-store, cache, and manifest write in this repo goes
through :func:`atomic_write_json`: the payload lands in a temp file
next to its destination and is renamed into place, so a process killed
mid-write leaves the previous contents intact — never a half-written
JSON file.  Store entries and cluster messages are additionally
**sealed**: the writer serializes the payload once as compact
``sort_keys`` JSON, hashes those bytes, and appends the digest as a
``sha256`` member written **last**.  The seal covers the bytes before
that last member, closed with ``}`` — exactly the payload's canonical
JSON — so a reader checks it by hashing the bytes it read, without
serializing the parsed record again.  Truncation, silent bit rot, a
missing seal, and a file that is not in the writer's byte form (for
example pretty-printed by hand, even with a correct digest) all
surface as :class:`CorruptEntryError` instead of wrong results.

Corruption is handled by **quarantine, not exceptions mid-campaign**:
:func:`quarantine_file` moves the offending file into a sibling
``quarantine/`` directory (out of every entry glob) and logs why, so
the read path reports a miss, the point is re-simulated, and the
evidence survives for diagnosis.

The writer is also where the fault-injection harness
(:mod:`repro.faults`, docs/FAULTS.md) hooks in: a ``torn`` rule makes
the write land truncated at the *final* path (simulating the
pre-atomic writers this module retires, or a filesystem eating a
write), a ``corrupt`` rule reverses a sealed write's digest and
changes nothing else (bit rot), and a ``crash`` rule kills the process
in the window between temp write and rename — the exact window the
atomic protocol must make safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.faults import maybe_fail

#: Name of the seal field added to durable records.
SEAL_KEY = "sha256"

#: Quarantine directory name inside a store generation / campaign dir.
QUARANTINE_DIR = "quarantine"

#: Append-only log of quarantined files inside the quarantine dir.
QUARANTINE_LOG = "log.jsonl"


class CorruptEntryError(ValueError):
    """A durable record that is unreadable, truncated, or unsealed."""


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def payload_checksum(record: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of ``record`` minus its seal."""
    unsealed = {k: v for k, v in record.items() if k != SEAL_KEY}
    return hashlib.sha256(_canonical(unsealed).encode("utf-8")).hexdigest()


def seal(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` carrying its payload checksum."""
    sealed = dict(record)
    sealed[SEAL_KEY] = payload_checksum(record)
    return sealed


def _seal_member(digest: str) -> str:
    return f'"{SEAL_KEY}":"{digest}"}}'


def _append_seal(body: str, digest: str) -> str:
    """``body`` (a JSON object's text) with the seal as its last member."""
    comma = "," if body != "{}" else ""
    return body[:-1] + comma + _seal_member(digest)


def _body_and_digest(record: Dict[str, Any]) -> Tuple[str, str]:
    """``record``'s canonical JSON (any ``sha256`` member dropped) and
    the sha256 of those bytes."""
    if SEAL_KEY in record:
        record = {k: v for k, v in record.items() if k != SEAL_KEY}
    body = _canonical(record)
    return body, hashlib.sha256(body.encode()).hexdigest()


def sealed_json(record: Dict[str, Any]) -> str:
    """The sealed text of ``record``: its canonical JSON with the seal
    over those bytes appended as the last member."""
    return _append_seal(*_body_and_digest(record))


def _seal_matches(data: bytes, digest: Any) -> bool:
    """Whether ``data`` ends with the seal member for ``digest`` and the
    bytes before it, closed with ``}``, hash to ``digest``."""
    if not isinstance(digest, str):
        return False
    member = _seal_member(digest).encode()
    body = data.rstrip()
    if not body.endswith(member):
        return False
    head = body[: -len(member)]
    if head.endswith(b","):
        payload = head[:-1] + b"}"
    elif head == b"{":
        payload = b"{}"
    else:
        return False
    return hashlib.sha256(payload).hexdigest() == digest


def read_json_verified(path: Path) -> Dict[str, Any]:
    """Load a sealed record, raising :class:`CorruptEntryError`.

    ``FileNotFoundError`` passes through untouched (a missing entry is
    a miss, not corruption); anything else unreadable — truncated
    JSON, a non-object payload, a missing or failed seal, bytes not in
    the writer's form — is corruption.  The seal is checked over the
    bytes read, not over a re-serialization of the parsed record.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise
    except OSError as error:
        raise CorruptEntryError(f"unreadable: {error}") from error
    try:
        record = json.loads(data)
    except ValueError as error:
        raise CorruptEntryError(f"invalid JSON: {error}") from error
    if not isinstance(record, dict):
        raise CorruptEntryError(
            f"expected a JSON object, got {type(record).__name__}"
        )
    if SEAL_KEY not in record:
        raise CorruptEntryError("no sha256 seal")
    if not _seal_matches(data, record[SEAL_KEY]):
        raise CorruptEntryError("sha256 seal mismatch (payload tampered "
                                "or partially written)")
    return record


def atomic_write_json(
    path: Path,
    record: Dict[str, Any],
    indent: Optional[int] = None,
    fault_site: Optional[str] = None,
    fault_key: str = "",
    sealed: bool = False,
) -> None:
    """Write ``record`` to ``path`` via temp-file rename.

    ``sealed`` writes :func:`sealed_json` (the form
    :func:`read_json_verified` accepts; ``indent`` is ignored).
    ``fault_site`` names the injection point consulted *between* the
    temp write and the rename — the window a ``kill -9`` would hit.
    Exceptions from the filesystem propagate; callers that must
    degrade gracefully (the cache) wrap the call.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if sealed:
        body, digest = _body_and_digest(record)
        text = _append_seal(body, digest)
    else:
        text = json.dumps(record, indent=indent, sort_keys=indent is None,
                          separators=(",", ":") if indent is None else None)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(text + "\n")
    rule = maybe_fail(fault_site, fault_key) if fault_site else None
    if rule is not None and rule.kind == "torn":
        # Simulate a non-atomic writer torn mid-payload: the final
        # path gets the first half of the text, the temp file goes.
        path.write_text(text[: max(1, len(text) // 2)])
        tmp.unlink(missing_ok=True)
        return
    if rule is not None and rule.kind == "corrupt" and sealed:
        # Simulate silent bit rot: the writer's bytes with only the
        # digest reversed — valid JSON, failed seal.
        tmp.write_text(_append_seal(body, digest[::-1]) + "\n")
    os.replace(tmp, path)


def quarantine_file(
    path: Path, reason: str, root: Optional[Path] = None
) -> Optional[Path]:
    """Move a corrupt file into ``<root>/quarantine/`` and log why.

    ``root`` defaults to the file's parent (for flat layouts); sharded
    callers pass the generation directory so all quarantined entries
    pool in one place.  Best-effort: returns the new path, or None if
    the move failed (the file is left alone and stays a cache miss).
    """
    path = Path(path)
    root = Path(root) if root is not None else path.parent
    target_dir = root / QUARANTINE_DIR
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        n = 0
        while target.exists():
            n += 1
            target = target_dir / f"{path.name}.{n}"
        os.replace(path, target)
    except OSError:
        return None
    try:
        with (target_dir / QUARANTINE_LOG).open("a") as handle:
            handle.write(json.dumps({
                "file": path.name,
                "quarantined_as": target.name,
                "reason": reason,
                "time": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
            }, sort_keys=True) + "\n")
    except OSError:
        pass
    return target


def read_jsonl(path: Path) -> Iterator[Dict[str, Any]]:
    """Yield the JSON objects of a newline-JSON file, skipping the rest.

    Blank lines, lines that do not parse (a writer killed mid-append
    tears at most its trailing line) and valid JSON that is not an
    object are all skipped; a missing or unreadable file reads as
    empty.
    """
    try:
        with Path(path).open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield record
    except OSError:
        return


def quarantine_log(root: Path) -> list:
    """Parsed quarantine log records under ``root`` (may be empty)."""
    return list(read_jsonl(Path(root) / QUARANTINE_DIR / QUARANTINE_LOG))
