"""Vertex indexing of diagram levels.

Every level of a generalized Bratteli diagram is identified with one
countable index set: the integers from some base upward (one-sided) or
all integers (two-sided).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidVertexError, SchemaError, echo, reject_unknown_keys

ONE_SIDED = "one_sided"
TWO_SIDED = "two_sided"


@dataclass(frozen=True)
class VertexIndexing:
    """Index set used for every level of a diagram."""

    mode: str
    base: int = 1

    def __post_init__(self):
        if self.mode not in (ONE_SIDED, TWO_SIDED):
            raise ValueError(f"unknown indexing mode {self.mode!r}")

    def contains(self, v: int) -> bool:
        if self.mode == TWO_SIDED:
            return True
        return v >= self.base

    def check(self, v: int, what: str = "vertex"):
        # `contains`, inline: every row read and push runs this
        if self.mode == ONE_SIDED and v < self.base:
            raise InvalidVertexError(f"{what} {v} below one-sided base {self.base}")

    def clamp(self, lo: int, hi: int) -> tuple[int, int]:
        """Intersect the interval [lo, hi] with the valid vertex range."""
        if self.mode == ONE_SIDED:
            lo = max(lo, self.base)
        return lo, hi

    def canonical_rank(self, v: int) -> int:
        """Position of v in the canonical enumeration.

        Two-sided order is 0, 1, -1, 2, -2, ...; one-sided order is
        base, base+1, ...  Used by table-plus-fill bijections.
        """
        self.check(v)
        if self.mode == ONE_SIDED:
            return v - self.base
        return 2 * v - 1 if v > 0 else -2 * v

    def from_rank(self, r: int) -> int:
        """Inverse of canonical_rank."""
        if r < 0:
            raise ValueError("rank must be nonnegative")
        if self.mode == ONE_SIDED:
            return self.base + r
        return (r + 1) // 2 if r % 2 == 1 else -(r // 2)

    def default_interval(self, radius: int) -> tuple[int, int]:
        """Symmetric window of about 2*radius+1 vertices around the origin."""
        if self.mode == ONE_SIDED:
            return self.base, self.base + 2 * radius
        return -radius, radius


def one_sided(base: int = 1) -> VertexIndexing:
    return VertexIndexing(ONE_SIDED, base)


def two_sided() -> VertexIndexing:
    return VertexIndexing(TWO_SIDED, 0)


def _parse_indexing(desc) -> VertexIndexing:
    """Indexing from a spec mapping {mode, base}; the one parser for
    diagram specs and bijection documents alike."""
    if not isinstance(desc, dict) or "mode" not in desc:
        raise SchemaError("indexing needs {mode, base}")
    reject_unknown_keys(desc, ("mode", "base"), "an indexing")
    mode = desc["mode"]
    if mode == TWO_SIDED:
        return two_sided()
    if mode == ONE_SIDED:
        try:
            return one_sided(int(desc.get("base", 1)))
        except (TypeError, ValueError):
            raise SchemaError(
                f"one-sided base must be an integer, got {echo(desc['base'])}") from None
    raise SchemaError(f"unknown indexing mode {echo(mode)}")
