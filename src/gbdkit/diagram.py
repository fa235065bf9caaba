"""Diagram handles: lazily evaluable incidence rules with structural flags.

A generalized Bratteli diagram is determined by its incidence matrices
F_n, one per level, with entry (v, w) counting the edges from vertex w at
level n to vertex v at level n+1.  Rows (in-edges of a fixed target) are
finite and nonempty; columns (out-edges of a fixed source) may be
infinite.  A handle therefore takes the row rule as the primitive.
`DiagramHandle.column_support` is the one reader of columns: it asks the
optional column-support rule of a family without a row-width bound, and
otherwise derives the column from the rows within that bound.

Edges are identified as (level, source, target, copy_index) with
copy_index ranging over 0..multiplicity-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (
    GbdError,
    InvalidVertexError,
    InvariantError,
    UndeclaredRowError,
    UnsupportedLevelError,
    WindowTooLargeError,
)
from .indexing import VertexIndexing
from .windows import LevelWindow

FLAG_VERIFY_LEVELS = 4
FLAG_VERIFY_RADIUS = 16

# default bounds of the probes, the orbit probes and the CLI
DEFAULT_DEPTH = 24
DEFAULT_RADIUS = 16
DEFAULT_HORIZON = 512
# the most cells a dense incidence window may hold
MAX_WINDOW_CELLS = 1_000_000


# --- structural flags -------------------------------------------------------
#
# Each flag's verify(d, n, rows, cols) spot-checks it at level n and raises
# InvariantError on a failure.  rows maps each window target v to its row
# (declared rows only); cols maps each source w to its windowed column
# [(v, mult), ...], targets ascending.

@dataclass(frozen=True)
class BandedFlag:
    """f(v, w) = offsets[w - v], level-independent; zero elsewhere."""

    offsets: tuple  # sorted tuple of (offset, value)

    def __post_init__(self):
        if not self.offsets:
            raise InvariantError("a banded flag needs at least one offset")

    @classmethod
    def from_dict(cls, d) -> "BandedFlag":
        items = tuple(sorted((int(o), int(m)) for o, m in dict(d).items()))
        return cls(items)

    @property
    def width(self) -> int:
        return max(abs(o) for o, _ in self.offsets)

    @property
    def row_sum(self) -> int:
        return sum(m for _, m in self.offsets)

    def verify(self, d, n, rows, cols):
        for v, row in rows.items():
            want = tuple(sorted(
                (v + o, m) for o, m in self.offsets if d.indexing.contains(v + o)))
            if row != want:
                raise InvariantError(f"Banded flag fails at level {n}, vertex {v}")


@dataclass(frozen=True)
class TriangularFlag:
    """Support bound on every row: each source w of target v satisfies
    w <= v + slack ('lower') or w >= v + slack ('upper')."""

    direction: str  # "lower" | "upper"
    slack: int = 0

    def admits(self, v: int, w: int) -> bool:
        """Whether source w may feed target v under this support bound."""
        return w <= v + self.slack if self.direction == "lower" else w >= v + self.slack

    def verify(self, d, n, rows, cols):
        for v, row in rows.items():
            for w, _ in row:
                if not self.admits(v, w):
                    raise InvariantError(
                        f"Triangular({self.direction}) flag fails at level {n}: "
                        f"source {w} of target {v}")


@dataclass(frozen=True)
class FullOutColumnFlag:
    """The column of this vertex covers every vertex on the next level."""

    vertex: int

    def verify(self, d, n, rows, cols):
        d.indexing.check(self.vertex, "full-out column vertex")
        covered = {v for v, _ in cols.get(self.vertex, ())}
        for v in rows:
            if v not in covered:
                raise InvariantError(
                    f"FullOutColumn({self.vertex}) misses target {v} at level {n}")


@dataclass(frozen=True)
class InfiniteOutDegreesFlag:
    """Every vertex has infinitely many outgoing edges."""

    def verify(self, d, n, rows, cols):
        # plausibility only: each source near the origin feeds at least 3
        # window targets, reaching 8 or more above itself
        lo, hi = d.indexing.default_interval(4)
        for w in range(lo, hi + 1):
            out = cols.get(w, ())
            if len(out) < 3 or out[-1][0] < w + 8:
                raise InvariantError(
                    f"InfiniteOutDegrees flag implausible at vertex {w}, level {n}")


@dataclass(frozen=True)
class BoundedSizeFlag:
    """Row support within distance t of the target, at every level; row
    sums bounded by L when a sum bound is known."""

    t: int
    L: Optional[int] = None

    def verify(self, d, n, rows, cols):
        t = self.t
        for v, row in rows.items():
            if any(abs(w - v) > t for w, _ in row):
                raise InvariantError(f"BoundedSize t={t} fails at level {n}, vertex {v}")
            if self.L is not None and sum(m for _, m in row) > self.L:
                raise InvariantError(
                    f"BoundedSize row-sum bound fails at level {n}, vertex {v}")


@dataclass(frozen=True)
class ExplicitLevelsFlag:
    """Rows come from finitely many explicit matrices plus an extension policy."""

    extension: str = "error_beyond"
    declared_levels: int = 0

    def verify(self, d, n, rows, cols):
        """Nothing to spot-check: the handle ends or repeats the levels."""


# --- column support ---------------------------------------------------------

@dataclass(frozen=True)
class ColumnSupport:
    """Exact knowledge about one column of an incidence matrix.

    kind 'finite': entries is the complete list of (target, mult).
    kind 'all': the column covers every vertex of the next level.
    kind 'infinite': infinitely many targets, not further described.
    """

    kind: str
    entries: tuple = ()

    @classmethod
    def finite(cls, entries) -> "ColumnSupport":
        return cls("finite", tuple(sorted((int(v), int(m)) for v, m in entries)))

    @classmethod
    def all_targets(cls) -> "ColumnSupport":
        return cls("all")

    @classmethod
    def infinite(cls) -> "ColumnSupport":
        return cls("infinite")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


# --- band knowledge ---------------------------------------------------------

class Translates:
    """The vertices u = v (mod step) around v whose rows at one stored
    level are v's row translated, ((u + offset, mult), ...) for each
    (offset, mult) in offs, step the gcd of the offsets.

    Every such u in [lo, hi] has been read and holds; below and above,
    once known, are such vertices outside that interval whose row does
    not hold or whose read raises a `GbdError`.  Both only grow outward
    from v, and each bound is written after the rows it claims were read,
    so concurrent readers may lose an extension but never claim an
    unread row.
    """

    __slots__ = ("offs", "step", "lo", "hi", "below", "above")

    def __init__(self, offs: tuple, v: int):
        self.offs = offs
        self.step = math.gcd(*[o for o, _ in offs]) or 1
        self.lo = self.hi = v
        self.below = self.above = None

    def covers(self, d: "DiagramHandle", n: int, lo: int, hi: int) -> bool:
        """Whether every u = v (mod step) in [lo, hi], an interval around
        v, holds: rows not checked before are read outward from [lo, hi]
        of the record, a vertex a side in turn, up to the first that does
        not hold."""
        while lo < self.lo or self.hi < hi:
            if lo < self.lo:
                if self.below is not None and lo <= self.below:
                    return False
                u = self.lo - self.step
                if not self._holds(d, n, u):
                    self.below = u
                    return False
                self.lo = min(self.lo, u)
            if self.hi < hi:
                if self.above is not None and self.above <= hi:
                    return False
                u = self.hi + self.step
                if not self._holds(d, n, u):
                    self.above = u
                    return False
                self.hi = max(self.hi, u)
        return True

    def _holds(self, d: "DiagramHandle", n: int, u: int) -> bool:
        try:
            row = d.in_edges(n, u)
        except GbdError:
            return False
        return row == tuple([(u + o, mult) for o, mult in self.offs])


# --- the handle -------------------------------------------------------------

def _canonical(raw, indexing: VertexIndexing) -> bool:
    """Whether a row a rule handed over is already what validation makes
    of it: (source, mult) tuples of exact ints, sources strictly
    ascending from a first inside `indexing`, multiplicities at least 1,
    and at least one entry.  Such a row needs no sort; any other takes
    the sorting path, which raises for its faults."""
    prev = None
    for e in raw:
        if type(e) is not tuple or len(e) != 2:
            return False
        w, m = e
        if type(w) is not int or type(m) is not int or m < 1:
            return False
        if prev is None:
            if not indexing.contains(w):
                return False
        elif w <= prev:
            return False
        prev = w
    return prev is not None


class DiagramHandle:
    """Immutable evaluable incidence rule for a generalized Bratteli diagram.

    All queries are pure; the only internal state is a transparent row
    cache, column cache and band cache (`translates`), safe under
    concurrent reads.  Every level from stationary_from on has that level's
    rows (from 0 on a catalog family); None: rows may change at any level.
    """

    def __init__(
        self,
        indexing: VertexIndexing,
        row_rule: Callable[[int, int], list],
        *,
        stationary_from: Optional[int] = None,
        flags: tuple = (),
        col_rule: Optional[Callable[[int, int], Optional[ColumnSupport]]] = None,
        name: str = "custom",
        params: Optional[dict] = None,
    ):
        self.indexing = indexing
        self.stationary_from = stationary_from
        self.flags = tuple(flags)
        # the number of levels when an explicit spec ends them, else None
        exp = self.get_flag(ExplicitLevelsFlag)
        ends = exp is not None and exp.extension == "error_beyond"
        self._end = exp.declared_levels if ends else None
        self._repeats = stationary_from if self._end is None else None
        # the row-width bound of every level: a BoundedSize flag's t, else
        # a Banded flag's width, else None
        bs = self.get_flag(BoundedSizeFlag)
        banded = self.get_flag(BandedFlag)
        self.width = (bs.t if bs is not None
                      else banded.width if banded is not None else None)
        self.name = name
        self.params = dict(params or {})
        self._row_rule = row_rule
        self._col_rule = col_rule
        self._row_cache: dict = {}
        self._col_cache: dict = {}
        # (stored level, v) -> the Translates of v's row, or False when v
        # holds no cone beyond itself
        self._band_cache: dict = {}
        self._verify_flags()

    # -- basic queries --------------------------------------------------

    @property
    def stationary(self) -> bool:
        """Whether every level has level 0's rows."""
        return self.stationary_from == 0

    def level_known(self, n: int) -> bool:
        """Whether level n's incidence is defined (explicit specs may end)."""
        return n >= 0 and (self._end is None or n < self._end)

    def in_edges(self, n: int, v: int) -> tuple:
        """Complete row of F_n at target v: ((source, mult), ...), sources
        ascending; the cached tuple itself, without a copy."""
        if n < 0:
            raise InvalidVertexError(f"negative level {n}")
        s = self._repeats  # stationary_from unless the levels end
        key = (s if s is not None and n >= s else self._stored_level(n), v)
        row = self._row_cache.get(key)
        if row is None:
            self.indexing.check(v)  # so only vertices in range are cached
            row = self._validated_row(*key)
            self._row_cache[key] = row
        return row

    def _stored_level(self, n: int) -> int:
        """The level whose rules serve level n, and under which `in_edges` and
        `column_support` cache it: min(n, stationary_from), after an
        UnsupportedLevelError for a level past an explicit spec's end."""
        if self._end is not None and n >= self._end:
            raise UnsupportedLevelError(
                f"level {n} beyond the {self._end} declared levels")
        s = self.stationary_from
        return n if s is None or n < s else s

    def _validated_row(self, n: int, v: int) -> tuple:
        raw = self._row_rule(n, v)
        if type(raw) is tuple or type(raw) is list:
            if _canonical(raw, self.indexing):
                return raw if type(raw) is tuple else tuple(raw)
        row = sorted((int(w), int(m)) for w, m in raw)
        if not row:
            raise InvariantError(f"empty incidence row at level {n}, vertex {v}")
        # the first faulty entry raises, a fault of its multiplicity first;
        # sources ascend, so a duplicate follows its twin and only the
        # least source can lie below the base
        prev = None
        for w, m in row:
            if m < 1:
                raise InvariantError(f"nonpositive multiplicity {m} at ({n}, {v}, {w})")
            if w == prev:
                raise InvariantError(f"duplicate source {w} in row ({n}, {v})")
            if prev is None and not self.indexing.contains(w):
                raise InvariantError(
                    f"source {w} below one-sided base {self.indexing.base} "
                    f"in row ({n}, {v})")
            prev = w
        return tuple(row)

    def translates(self, n: int, v: int) -> Optional[Translates]:
        """The kept `Translates` of v's row at level n, or None when a
        vertex next to v that the sweep from v reads over any two or
        more levels does not hold: v - step when an offset is negative,
        v + step when one is positive.  A failing read of v's row raises.
        Only those two rows are read beyond v's, so a caller can turn
        down v's offsets before the rest of the cone is read.

        Each vertex keeps its own record, so the rows a query reads do
        not depend on which other vertices were asked before, and a
        vertex known not to hold costs a lookup."""
        key = (self._stored_level(n), v)
        band = self._band_cache.get(key)
        if band is None:
            band = Translates(
                tuple([(src - v, mult) for src, mult in self.in_edges(n, v)]), v)
            offs = band.offs
            lo = v - band.step if offs[0][0] < 0 else v
            hi = v + band.step if offs[-1][0] > 0 else v
            if not band.covers(self, n, lo, hi):
                band = False
            self._band_cache[key] = band
        return band or None

    def window_rows(self, n: int, lo: int, hi: int) -> dict:
        """{v: row} for the vertices of [lo, hi] that have a row at level n.

        Rows are the cached tuples of `in_edges`.  Vertices outside the vertex
        range, or without a declared row (explicit specs), are skipped;
        every other failure of a row read propagates.
        """
        lo, hi = self.indexing.clamp(lo, hi)
        rows = {}
        for v in range(lo, hi + 1):
            try:
                rows[v] = self.in_edges(n, v)
            except UndeclaredRowError:
                pass
        return rows

    def entry(self, n: int, v: int, w: int) -> int:
        """Single matrix entry f^(n)_{vw}."""
        for src, m in self.in_edges(n, v):
            if src == w:
                return m
        return 0

    def out_edges_in_window(self, n: int, w: int, win) -> list:
        """All (target, mult) with target in win; complete within win only."""
        self.indexing.check(w)
        if win is None:
            raise ValueError("window required: columns may be infinite")
        return [(v, m) for v, row in self.window_rows(n, *win).items()
                for src, m in row if src == w]

    def incidence_window(self, n: int, row_win, col_win) -> list:
        """Dense matrix M[v][w] = f^(n)_{vw} for v in row_win, w in col_win;
        WindowTooLargeError, before any row is read, past
        MAX_WINDOW_CELLS cells."""
        rlo, rhi = row_win
        clo, chi = col_win
        for v in (rlo, rhi):
            self.indexing.check(v, "row vertex")
        for w in (clo, chi):
            self.indexing.check(w, "column vertex")
        cells = max(0, rhi - rlo + 1) * max(0, chi - clo + 1)
        if cells > MAX_WINDOW_CELLS:
            raise WindowTooLargeError(
                f"a dense window of {cells} cells is over the limit of "
                f"{MAX_WINDOW_CELLS}")
        mat = []
        for v in range(rlo, rhi + 1):
            line = [0] * (chi - clo + 1)
            for w, m in self.in_edges(n, v):
                if clo <= w <= chi:
                    line[w - clo] = m
            mat.append(line)
        return mat

    @property
    def has_column_rule(self) -> bool:
        """Whether the handle was built with a column-support rule."""
        return self._col_rule is not None

    def column_support(self, n: int, w: int) -> Optional[ColumnSupport]:
        """Exact column knowledge, else None: the column rule's answer when
        it gives one, else, under a row-width bound t (`width`), the
        targets within t of w whose rows hold w.  The width flag puts every
        target of w there, so the derived column is exact; a row read that
        fails raises.  Cached under the key of `in_edges`."""
        self.indexing.check(w)
        t = self.width
        if self._col_rule is None and t is None:
            return None
        n = self._stored_level(n)
        key = (n, w)
        if key not in self._col_cache:
            sup = None if self._col_rule is None else self._col_rule(n, w)
            if sup is None and t is not None:
                # targets ascend, and rows hold validated ints: no sort
                lo, hi = self.indexing.clamp(w - t, w + t)
                sup = ColumnSupport("finite", tuple([
                    (v, m) for v in range(lo, hi + 1)
                    for src, m in self.in_edges(n, v) if src == w]))
            self._col_cache[key] = sup
        return self._col_cache[key]

    # -- flags ------------------------------------------------------------

    def get_flag(self, cls):
        for f in self.flags:
            if isinstance(f, cls):
                return f
        return None

    def get_flags(self, cls):
        return [f for f in self.flags if isinstance(f, cls)]

    def _verify_flags(self):
        """Spot-verify every declared flag, then the column rule, on a
        default window; reject failures.

        No flag's bound depends on the level, so each stored level
        (`_stored_level`) is checked once, at the first level n that
        serves it, which is also the level a failure names; a stationary
        handle checks one.  One snapshot of that level's window rows,
        read on first need, serves every check.  Flags remain assumptions
        beyond the verified window; certificate consumers report them as
        such.  Window vertices without declared rows (explicit specs) are
        skipped, and so are the columns that would read one.
        """
        lo, hi = self.indexing.default_interval(FLAG_VERIFY_RADIUS)
        firsts = {}
        for n in range(FLAG_VERIFY_LEVELS + 1):
            if self.level_known(n):
                firsts.setdefault(self._stored_level(n), n)
        levels = list(firsts.values())
        snapshots = {}

        def snapshot(n):
            if n not in snapshots:
                rows = self.window_rows(n, lo, hi)
                cols = {}
                for v, row in rows.items():
                    for w, m in row:
                        cols.setdefault(w, []).append((v, m))
                snapshots[n] = rows, cols
            return snapshots[n]

        for flag in self.flags:
            for n in levels:
                flag.verify(self, n, *snapshot(n))
        if self._col_rule is None:
            return
        slo, shi = self.indexing.default_interval(8)
        for n in levels:
            rows, cols = snapshot(n)
            for w in range(slo, shi + 1):
                try:
                    sup = self.column_support(n, w)
                except UndeclaredRowError:
                    continue  # as window_rows skips the row
                if sup is None:
                    continue
                windowed = cols.get(w, [])
                if sup.is_finite:
                    claimed = [(v, m) for v, m in sup.entries if lo <= v <= hi]
                    if claimed != windowed:
                        raise InvariantError(
                            f"column rule disagrees with rows at level {n}, "
                            f"source {w}")
                    for v, m in sup.entries:
                        if lo <= v <= hi:
                            continue  # matched above
                        row = self.window_rows(n, v, v).get(v)
                        if row is not None and dict(row).get(w, 0) != m:
                            raise InvariantError(
                                f"column rule claims ({v},{m}) missing from rows "
                                f"at level {n}, source {w}")
                elif sup.kind == "all":
                    covered = {v for v, _ in windowed}
                    if any(v not in covered for v in rows):
                        raise InvariantError(
                            f"column rule 'all' fails at level {n}, source {w}")

    # -- misc -------------------------------------------------------------

    def default_window(self, levels: int = 5,
                       radius: int = DEFAULT_RADIUS) -> LevelWindow:
        return LevelWindow.uniform(self.indexing, levels, radius)

    def fingerprint(self) -> str:
        import hashlib
        import json

        payload = json.dumps(
            {"name": self.name, "params": self.params,
             "indexing": [self.indexing.mode, self.indexing.base]},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __repr__(self):
        return f"<DiagramHandle {self.name} {self.params or ''}>"
