"""Temporal coalescing of value-equivalent versions.

The paper (§9, citing Dyreson's SIGMOD 2003 work) performs temporal
coalescing implicitly: fillers are interrogated in ``validTime`` order and a
version's lifespan runs from its own timestamp to the next version's
timestamp (or ``now`` for the last version).  This module provides the
explicit operation as a reusable utility: merging adjacent versions whose
*values* are equal into a single version with a covering lifespan, so that
e.g. a creditLimit that is "re-set" to the same amount does not create a
spurious version boundary.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.temporal.interval import TimeInterval

__all__ = ["coalesce_versions", "Versioned"]

T = TypeVar("T")


class Versioned:
    """A value paired with the interval during which it is valid."""

    __slots__ = ("value", "interval")

    def __init__(self, value: object, interval: TimeInterval):
        self.value = value
        self.interval = interval

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Versioned):
            return NotImplemented
        return self.value == other.value and self.interval == other.interval

    def __repr__(self) -> str:
        return f"Versioned({self.value!r}, {self.interval})"


def coalesce_versions(
    versions: Iterable[Versioned],
    equal: Callable[[object, object], bool] = lambda a, b: a == b,
) -> list[Versioned]:
    """Merge adjacent or overlapping value-equivalent versions.

    ``versions`` must be resolved-interval versions sorted by ``begin`` (the
    order in which fillers arrive, per the paper's validTime ordering).  Two
    consecutive versions merge when their values are ``equal`` and their
    intervals touch or overlap; the merged interval is the cover of both.

    The operation is idempotent and preserves non-equal boundaries, which is
    exactly the classical temporal-coalescing contract.
    """
    out: list[Versioned] = []
    for version in versions:
        if out:
            prev = out[-1]
            touching = not prev.interval.before(version.interval) or prev.interval.meets(
                version.interval
            )
            if touching and equal(prev.value, version.value):
                out[-1] = Versioned(prev.value, prev.interval.cover(version.interval))
                continue
        out.append(version)
    return out


