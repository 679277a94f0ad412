"""Tests for the dyadic cover of an epoch window."""

import math

import pytest

from repro.errors import StreamingError
from repro.streaming.tree import dyadic_cover


def node_span(level, index):
    """The half-open epoch interval a dyadic node covers."""
    return index << level, (index + 1) << level


class TestDyadicCover:
    def test_empty_window(self):
        assert dyadic_cover(3, 3) == []

    def test_single_epoch(self):
        assert dyadic_cover(5, 6) == [(0, 5)]

    def test_aligned_power_of_two(self):
        assert dyadic_cover(0, 8) == [(3, 0)]

    def test_mixed_window(self):
        assert dyadic_cover(1, 7) == [(0, 1), (1, 1), (1, 2), (0, 6)]
        assert dyadic_cover(1, 5) == [(0, 1), (1, 1), (0, 4)]

    def test_invalid_rejected(self):
        with pytest.raises(StreamingError, match="invalid epoch window"):
            dyadic_cover(-1, 2)
        with pytest.raises(StreamingError, match="invalid epoch window"):
            dyadic_cover(4, 2)

    def test_cover_is_exact_disjoint_and_sorted(self):
        for lo in range(0, 40):
            for hi in range(lo, 41):
                cover = dyadic_cover(lo, hi)
                position = lo
                for level, index in cover:
                    span_lo, span_hi = node_span(level, index)
                    assert span_lo == position
                    position = span_hi
                assert position == hi

    def test_nodes_are_aligned(self):
        for lo in range(0, 40):
            for hi in range(lo, 41):
                for level, index in dyadic_cover(lo, hi):
                    span_lo, _ = node_span(level, index)
                    assert span_lo % (1 << level) == 0

    def test_cover_available_in_closed_prefix(self):
        """Every cover node's span ends inside the window's closed prefix."""
        for lo in range(0, 33):
            for hi in range(lo + 1, 33):
                for level, index in dyadic_cover(lo, hi):
                    assert node_span(level, index)[1] <= hi

    def test_cover_size_within_bound(self):
        """At most 2*ceil(log2 length) nodes per window (1 for one epoch)."""
        for total in range(1, 66):
            for lo in range(0, total):
                for hi in range(lo + 1, total + 1):
                    bound = max(1, 2 * math.ceil(math.log2(hi - lo)))
                    assert len(dyadic_cover(lo, hi)) <= bound
