"""Interval arithmetic for model coordinates and events.

Events and supports are finite unions of intervals, so interiors and
closures can be derived exactly from the endpoints; that exactness is what
the LDP bounds need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

INF = float("inf")


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) and self.lo_closed:
            object.__setattr__(self, "lo_closed", False)
        if math.isinf(self.hi) and self.hi_closed:
            object.__setattr__(self, "hi_closed", False)

    def contains(self, z: float) -> bool:
        if z < self.lo or z > self.hi:
            return False
        if z == self.lo and not self.lo_closed:
            return False
        if z == self.hi and not self.hi_closed:
            return False
        return True

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def interior(self) -> "Interval | None":
        if self.lo == self.hi:
            return None
        return replace(self, lo_closed=False, hi_closed=False)

    def closure(self) -> "Interval":
        return Interval(
            self.lo, self.hi,
            lo_closed=math.isfinite(self.lo),
            hi_closed=math.isfinite(self.hi),
        )


def intersect(a: Interval, b: Interval) -> Interval | None:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return None
    lo_closed = (a.contains(lo) if lo == a.lo else True) and (
        b.contains(lo) if lo == b.lo else True
    )
    hi_closed = (a.contains(hi) if hi == a.hi else True) and (
        b.contains(hi) if hi == b.hi else True
    )
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def intersect_unions(xs, ys):
    """Pairwise intersection of two unions of intervals."""
    out = []
    for a in xs:
        for b in ys:
            c = intersect(a, b)
            if c is not None:
                out.append(c)
    return normalize_union(out)


def normalize_union(intervals):
    """Sort and merge overlapping or touching intervals."""
    items = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    merged: list[Interval] = []
    for iv in items:
        if not merged:
            merged.append(iv)
            continue
        last = merged[-1]
        touching = iv.lo < last.hi or (
            iv.lo == last.hi and (iv.lo_closed or last.hi_closed)
        )
        if touching:
            if iv.hi > last.hi:
                merged[-1] = Interval(
                    last.lo, iv.hi, last.lo_closed, iv.hi_closed
                )
            elif iv.hi == last.hi and iv.hi_closed and not last.hi_closed:
                merged[-1] = replace(last, hi_closed=True)
        else:
            merged.append(iv)
    return tuple(merged)


def complement(intervals) -> tuple:
    """Complement of a normalized union within the whole real line."""
    items = normalize_union(intervals)
    out = []
    cursor = -INF
    cursor_closed = False
    for iv in items:
        if cursor < iv.lo or (cursor == iv.lo and not (cursor_closed or iv.lo_closed)):
            out.append(Interval(cursor, iv.lo, cursor_closed, not iv.lo_closed))
        cursor = iv.hi
        cursor_closed = not iv.hi_closed
    if cursor < INF:
        out.append(Interval(cursor, INF, cursor_closed, False))
    return tuple(out)
