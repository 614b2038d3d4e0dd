"""Tests for temporal coalescing (repro.temporal.coalesce)."""

from hypothesis import given, strategies as st

from repro.temporal.chrono import XSDateTime
from repro.temporal.coalesce import Versioned, coalesce_versions
from repro.temporal.interval import TimeInterval

T = XSDateTime.parse


def v(value, begin, end) -> Versioned:
    return Versioned(value, TimeInterval(T(begin), T(end)))


class TestCoalesce:
    def test_merges_equal_adjacent(self):
        versions = [
            v("5000", "2003-01-01", "2003-02-01"),
            v("5000", "2003-02-01", "2003-03-01"),
        ]
        merged = coalesce_versions(versions)
        assert merged == [v("5000", "2003-01-01", "2003-03-01")]

    def test_keeps_different_values(self):
        versions = [
            v("2000", "2003-01-01", "2003-02-01"),
            v("5000", "2003-02-01", "2003-03-01"),
        ]
        assert coalesce_versions(versions) == versions

    def test_gap_prevents_merge(self):
        versions = [
            v("x", "2003-01-01", "2003-01-10"),
            v("x", "2003-02-01", "2003-02-10"),
        ]
        assert len(coalesce_versions(versions)) == 2

    def test_overlapping_equal_merge(self):
        versions = [
            v("x", "2003-01-01", "2003-01-20"),
            v("x", "2003-01-10", "2003-02-10"),
        ]
        merged = coalesce_versions(versions)
        assert merged == [v("x", "2003-01-01", "2003-02-10")]

    def test_custom_equality(self):
        versions = [
            v("A", "2003-01-01", "2003-02-01"),
            v("a", "2003-02-01", "2003-03-01"),
        ]
        merged = coalesce_versions(versions, equal=lambda x, y: x.lower() == y.lower())
        assert len(merged) == 1

    def test_empty(self):
        assert coalesce_versions([]) == []


_value = st.sampled_from(["a", "b", "c"])
_times = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=2, max_size=12, unique=True
).map(sorted)


@st.composite
def _chains(draw):
    times = draw(_times)
    boundaries = [XSDateTime.from_epoch_seconds(1_000_000_000 + t) for t in times]
    return [
        Versioned(draw(_value), TimeInterval(begin, end))
        for begin, end in zip(boundaries, boundaries[1:])
    ]


class TestCoalesceProperties:
    @given(_chains())
    def test_idempotent(self, chain):
        once = coalesce_versions(chain)
        assert coalesce_versions(once) == once

    @given(_chains())
    def test_never_grows(self, chain):
        assert len(coalesce_versions(chain)) <= len(chain)

    @given(_chains())
    def test_no_adjacent_equal_values_remain(self, chain):
        merged = coalesce_versions(chain)
        for left, right in zip(merged, merged[1:]):
            if left.interval.meets(right.interval):
                assert left.value != right.value

    @given(_chains())
    def test_total_span_preserved(self, chain):
        merged = coalesce_versions(chain)
        if chain:
            assert merged[0].interval.begin == chain[0].interval.begin
            assert merged[-1].interval.end == chain[-1].interval.end
