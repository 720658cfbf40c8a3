"""Byte-level pins on generator output and the shipped example TraceSet.

The goldens pin simulation *results*; these pin the traces themselves,
so a change to how a trace is stored or built cannot shift a single
request unnoticed.  Each core trace hashes its name, its intensity
flag and every ``(gap_cycles, bank_index, row, column, is_write,
instructions)`` request in order, read through the trace's entry
iterator (the storage-independent view).
"""

import hashlib
from pathlib import Path

import pytest

from repro.engine.catalog import (
    attack_workload_spec,
    build_workload,
    smoke_workload_specs,
)
from repro.traces.ingest import TraceSet
from repro.workloads.attacks import double_sided_trace, rotation_attack_trace
from repro.workloads.synthetic import (
    random_access_trace,
    streaming_sweep_trace,
    strided_trace,
)

EXAMPLE_SET = (
    Path(__file__).resolve().parents[2] / "examples" / "traces" / "example-set"
)


def core_digest(trace) -> str:
    h = hashlib.sha256()
    h.update(f"{trace.name}|{int(trace.memory_intensive)}|".encode())
    for e in trace:
        h.update(
            f"{int(e.gap_cycles)},{int(e.bank_index)},{int(e.row)},"
            f"{int(e.column)},{int(bool(e.is_write))},"
            f"{int(e.instructions)};".encode()
        )
    return h.hexdigest()[:16]


def _specs(scale):
    specs = dict(smoke_workload_specs(scale=scale))
    for pattern in ("multi-sided", "bh-adversarial"):
        specs["attack:" + pattern] = attack_workload_spec(pattern, scale=scale)
    return specs


_ATTACK_BENIGN_005 = [
    "2dd8913c7b118e5e", "fcb57bfb69eeed27", "5b608d8e34aa3e78",
    "aa8987ae8e087b98", "af64870cbd235bd9", "a6c656abfcc765de",
    "aa411def1eb63ff3",
]
_ATTACK_BENIGN_1 = [
    "a62f65b561e759da", "f57dd0713f77db90", "4cfc0f8042c6d4d6",
    "883454cd287fc9de", "9a6c47d92e4d2448", "952b95324e74fa48",
    "b4131f2821051e5f",
]

PINS = {
    0.05: {
        "attack": ["2dd8913c7b118e5e", "a28bd9e6690f8458"],
        "attack:bh-adversarial": _ATTACK_BENIGN_005 + ["c97fc6445f75b6c5"],
        "attack:multi-sided": _ATTACK_BENIGN_005 + ["a28bd9e6690f8458"],
        "capacity-pressure": ["21be55989e4f64b9", "21958ea847017c96"],
        "fft": ["69b6d84847ba4bd9", "9e19f5952a14c9e2"],
        "mix-blend": ["c706d60f815d93b9", "6408d94250d036a3"],
        "mix-high": ["e8ecba5e57c1db3f", "208fc5493236f734"],
        "multi-channel-imbalanced": ["5f381ec0fb4f4df6", "2a471c142167abb1"],
        "pagerank": ["130ec9c511d96e83", "4e3747d27c619909"],
        "radix": ["6472f1cb5b690d55", "ebc010cb8915c166"],
        "row-conflict-heavy": ["99b975089bd18b29", "cd0abb51feb88c6e"],
    },
    1.0: {
        "attack": ["a62f65b561e759da", "e23dac848629f27e"],
        "attack:bh-adversarial": _ATTACK_BENIGN_1 + ["6f73bba575b3116d"],
        "attack:multi-sided": _ATTACK_BENIGN_1 + ["e23dac848629f27e"],
        "capacity-pressure": ["8b7f680c9f82be2a", "a18a43d0d1aa3194"],
        "fft": ["69432ddecb57158d", "ca42b3b315048b1d"],
        "mix-blend": ["cabb0e80703db32e", "94f47a177c527a54"],
        "mix-high": ["2872bab7ab66e994", "4519c69e2df9e75a"],
        "multi-channel-imbalanced": ["14a3a7a2e4dbd894", "2d10a1de221981b0"],
        "pagerank": ["9fd3704fac4f3c95", "0de17e6251e8b65d"],
        "radix": ["dc25df5e817e08f4", "dd0ebfbbbaac88f6"],
        "row-conflict-heavy": ["2336768b657bfd6f", "b0c638eb26904b26"],
    },
}


@pytest.mark.parametrize("scale", sorted(PINS))
def test_catalog_workload_digests(scale):
    got = {
        name: [core_digest(trace) for trace in build_workload(spec)]
        for name, spec in _specs(scale).items()
    }
    assert got == PINS[scale]


@pytest.mark.parametrize(
    "name, build, digest",
    [
        ("double-sided", lambda: double_sided_trace(total_requests=300),
         "2313f740c90542b7"),
        ("rotation",
         lambda: rotation_attack_trace(num_rows=40, total_requests=300),
         "6733157018cee05e"),
        ("strided",
         lambda: strided_trace(num_requests=1500, phase_length=100),
         "13d88cbda14ad4c8"),
        ("sweep-zero-gap",
         lambda: streaming_sweep_trace(num_requests=300, mean_gap=0),
         "2ed82f1838873ba0"),
        ("random", lambda: random_access_trace(num_requests=300),
         "13c1533cb5e27280"),
    ],
)
def test_generator_digests(name, build, digest):
    assert core_digest(build()) == digest


def test_example_set_digest():
    traceset = TraceSet.load(EXAMPLE_SET, verify=True)
    assert traceset.digest() == "8056719e707bfd82"
    assert [len(trace) for trace in traceset.traces] == [160, 160]
