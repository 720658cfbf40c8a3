"""Workload substrate: trace format, benign generators, attack patterns."""

from repro.workloads.trace import CoreTrace, TraceEntry
from repro.workloads.synthetic import (
    random_access_trace,
    streaming_sweep_trace,
    strided_trace,
)
from repro.workloads.spec_like import mix_blend, mix_high
from repro.workloads.multithreaded import fft_like, pagerank_like, radix_like
from repro.workloads.attacks import (
    blockhammer_adversarial_trace,
    double_sided_trace,
    multi_sided_trace,
    rotation_attack_trace,
)

__all__ = [
    "CoreTrace",
    "TraceEntry",
    "random_access_trace",
    "streaming_sweep_trace",
    "strided_trace",
    "mix_high",
    "mix_blend",
    "fft_like",
    "radix_like",
    "pagerank_like",
    "double_sided_trace",
    "multi_sided_trace",
    "rotation_attack_trace",
    "blockhammer_adversarial_trace",
]
