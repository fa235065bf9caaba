"""Finite per-level vertex windows used to truncate infinite levels."""

from __future__ import annotations

from .errors import EmptyWindowError
from .indexing import VertexIndexing


def clamped_interval(indexing: VertexIndexing, window) -> tuple[int, int]:
    """The inclusive interval `window` intersected with the vertex range;
    EmptyWindowError (a ValueError) when no vertex is left."""
    wlo, whi = window
    lo, hi = indexing.clamp(wlo, whi)
    if lo > hi:
        where = "" if wlo > whi else f" below one-sided base {indexing.base}"
        raise EmptyWindowError(f"empty interval [{wlo},{whi}]{where}")
    return lo, hi


class LevelWindow:
    """Per-level inclusive intervals [lo_n, hi_n] for levels 0..N."""

    def __init__(self, intervals):
        self._intervals = {}
        for n, (lo, hi) in dict(intervals).items():
            if lo > hi:
                raise ValueError(f"empty interval [{lo},{hi}] at level {n}")
            self._intervals[int(n)] = (int(lo), int(hi))

    @classmethod
    def uniform(cls, indexing: VertexIndexing, levels: int, radius: int) -> "LevelWindow":
        """Same centered interval on every level 0..levels."""
        iv = indexing.default_interval(radius)
        return cls({n: iv for n in range(levels + 1)})

    @property
    def levels(self):
        return sorted(self._intervals)

    @property
    def max_level(self) -> int:
        return max(self._intervals)

    def interval(self, n: int) -> tuple[int, int]:
        return self._intervals[n]

    def __contains__(self, item) -> bool:
        n, v = item
        if n not in self._intervals:
            return False
        lo, hi = self._intervals[n]
        return lo <= v <= hi

    def describe(self):
        return {n: list(self._intervals[n]) for n in self.levels}

    def __repr__(self):
        return f"LevelWindow({self.describe()})"
