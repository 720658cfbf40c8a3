"""Property tests for the counting Bloom filters."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.counting_bloom import (
    CountingBloomFilter,
    DualCountingBloomFilter,
)

streams = st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                   max_size=300)


@given(streams, st.integers(min_value=4, max_value=128))
@settings(max_examples=150)
def test_cbf_never_underestimates(stream, size):
    cbf = CountingBloomFilter(size=size)
    truth = Counter()
    for element in stream:
        cbf.observe(element)
        truth[element] += 1
    for element, actual in truth.items():
        assert cbf.estimate(element) >= actual


@given(streams, st.integers(min_value=16, max_value=128))
@settings(max_examples=100)
def test_dual_cbf_covers_last_half_epoch(stream, size):
    """Estimates from the dual CBF cover at least the most recent
    half-epoch of observations of an element."""
    epoch = 40
    dual = DualCountingBloomFilter(size=size, epoch_length=epoch)
    recent = Counter()
    since_rotation = 0
    for element in stream:
        dual.observe(element)
        recent[element] += 1
        since_rotation += 1
        if since_rotation >= dual.half_epoch:
            recent.clear()  # conservative: only check the newest window
            since_rotation = 0
    for element, actual in recent.items():
        assert dual.estimate(element) >= actual
