"""Per-level vertex bijections and diagram relabeling.

A bijection sequence g assigns to every level n an invertible map from
the source diagram's vertex ids to the target ids.  Relabeling rewrites
the incidence rule through g; the relabeled handle's row at v' equals
the source row at g_{n+1}^{-1}(v') with sources pushed through g_n.
Structural flags of the result are recomputed from what the bijection
kind provably preserves, never inherited blindly.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import indexing as ix
from .diagram import (
    BandedFlag,
    BoundedSizeFlag,
    ColumnSupport,
    DiagramHandle,
    ExplicitLevelsFlag,
    FullOutColumnFlag,
    InfiniteOutDegreesFlag,
    TriangularFlag,
)
from .errors import (
    IndexingMismatchError,
    InvariantError,
    UnknownKindError,
    WindowTooSmallError,
    reject_unknown_keys,
)
from .indexing import VertexIndexing


# --- level maps --------------------------------------------------------------

class _LevelMap:
    """An invertible map of vertex ids; subclasses give forward and inverse."""

    def inverted(self) -> "_LevelMap":
        return _Swapped(self)


class _Swapped(_LevelMap):
    """The inverse of any level map: forward and inverse trade places."""

    def __init__(self, m: _LevelMap):
        self.m = m

    def forward(self, v: int) -> int:
        return self.m.inverse(v)

    def inverse(self, x: int) -> int:
        return self.m.forward(x)


class AffineMap(_LevelMap):
    def __init__(self, c: int):
        self.c = c

    def forward(self, v: int) -> int:
        return v + self.c

    def inverse(self, x: int) -> int:
        return x - self.c

    def inverted(self) -> "AffineMap":
        # a shift stays a shift, so shift families relabel without a wrapper
        return AffineMap(-self.c)


class InterleaveMap(_LevelMap):
    """Fold the integers onto the nonnegatives: v >= 0 -> 2v, v < 0 -> -2v-1."""

    def forward(self, v: int) -> int:
        return 2 * v if v >= 0 else -2 * v - 1

    def inverse(self, x: int) -> int:
        return x // 2 if x % 2 == 0 else -(x + 1) // 2


class FillMap(_LevelMap):
    """Finite pin table completed to a total bijection by canonical fill.

    Pinned sources take their table labels; remaining sources, in
    canonical enumeration order, take the smallest unused labels in the
    target's canonical order.  Deterministic and invertible at every
    vertex.
    """

    def __init__(self, src: VertexIndexing, tgt: VertexIndexing, pins: dict):
        self.src = src
        self.tgt = tgt
        self.pins = dict(pins)
        if len(set(self.pins.values())) != len(self.pins):
            raise InvariantError(f"pin table is not injective: {pins}")
        self._by_label = {lab: v for v, lab in self.pins.items()}
        self._src_ranks = sorted(src.canonical_rank(v) for v in self.pins)
        self._tgt_ranks = sorted(tgt.canonical_rank(l) for l in self.pins.values())

    def forward(self, v: int) -> int:
        if v in self.pins:
            return self.pins[v]
        r = self.src.canonical_rank(v)
        r -= sum(1 for pr in self._src_ranks if pr < r)
        for pr in self._tgt_ranks:
            if pr <= r:
                r += 1
        return self.tgt.from_rank(r)

    def inverse(self, x: int) -> int:
        if x in self._by_label:
            return self._by_label[x]
        r = self.tgt.canonical_rank(x)
        r -= sum(1 for pr in self._tgt_ranks if pr < r)
        for pr in self._src_ranks:
            if pr <= r:
                r += 1
        return self.src.from_rank(r)


class PartialMap(_LevelMap):
    """Table-only map; raises WindowTooSmallError outside the table."""

    def __init__(self, table: dict):
        self.table = dict(table)
        self._inv = {x: v for v, x in self.table.items()}
        if len(self._inv) != len(self.table):
            raise InvariantError("partial table is not injective")

    def forward(self, v: int) -> int:
        if v not in self.table:
            raise WindowTooSmallError(f"vertex {v} outside the bijection table")
        return self.table[v]

    def inverse(self, x: int) -> int:
        if x not in self._inv:
            raise WindowTooSmallError(f"label {x} outside the bijection table")
        return self._inv[x]

    def inverted(self) -> "PartialMap":
        # the swapped table, so a miss names a vertex of the inverse's source
        return PartialMap(self._inv)


# --- bijection sequences ------------------------------------------------------

class VertexBijectionSeq:
    """Level-indexed family of vertex bijections, evaluable both ways."""

    def __init__(self, kind: str, source_indexing: VertexIndexing,
                 target_indexing: VertexIndexing,
                 map_at: Callable[[int], _LevelMap],
                 *, level_const: bool = False,
                 step: Optional[int] = None,
                 params: Optional[dict] = None):
        self.kind = kind
        self.source_indexing = source_indexing
        self.target_indexing = target_indexing
        self._map_at = map_at
        self._cache: dict = {}
        self.level_const = level_const
        # step = offset(n+1) - offset(n) at every n, for shift families
        # whose offset grows by a constant; None otherwise
        self.step = step
        self.params = dict(params or {})

    def map_at(self, n: int) -> _LevelMap:
        m = self._cache.get(n)
        if m is None:
            m = self._map_at(n)
            self._cache[n] = m
        return m

    def forward(self, n: int, v: int) -> int:
        self.source_indexing.check(v)
        x = self.map_at(n).forward(v)
        self.target_indexing.check(x, "image vertex")
        return x

    def inverse(self, n: int, x: int) -> int:
        self.target_indexing.check(x, "image vertex")
        v = self.map_at(n).inverse(x)
        self.source_indexing.check(v)
        return v

    @property
    def is_shift_family(self) -> bool:
        return self.kind in ("identity", "level_shift", "cone_shift", "affine")

    def shift_at(self, n: int) -> int:
        if not self.is_shift_family:
            raise ValueError(f"{self.kind} is not a shift family")
        return self.map_at(n).c

    def inverted(self) -> "VertexBijectionSeq":
        """The level-wise inverse, mapping the target ids back."""
        return VertexBijectionSeq(
            _INVERSE_KIND.get(self.kind, self.kind),
            self.target_indexing, self.source_indexing,
            lambda n: self.map_at(n).inverted(),
            level_const=self.level_const,
            step=None if self.step is None else -self.step,
            params={**self.params, "inverse_of": self.kind})

    def __repr__(self):
        return f"<VertexBijectionSeq {self.kind} {self.params or ''}>"


# kind names of inverses; a kind missing here is its own inverse's kind
_INVERSE_KIND = {"interleave": "interleave_inv", "interleave_inv": "interleave",
                 "identity": "affine", "level_shift": "affine",
                 "cone_shift": "affine"}


def identity(indexing: VertexIndexing) -> VertexBijectionSeq:
    return VertexBijectionSeq("identity", indexing, indexing,
                              lambda n: AffineMap(0), level_const=True, step=0)


def interleave() -> VertexBijectionSeq:
    return VertexBijectionSeq("interleave", ix.two_sided(), ix.one_sided(0),
                              lambda n: InterleaveMap(), level_const=True)


def level_shift(step: int) -> VertexBijectionSeq:
    """g_n(i) = i + step*n on two-sided levels."""
    return VertexBijectionSeq("level_shift", ix.two_sided(), ix.two_sided(),
                              lambda n: AffineMap(step * n),
                              level_const=(step == 0), step=step,
                              params={"step": step})


def cone_shift(t, tail=0) -> VertexBijectionSeq:
    """g_n(v) = v - sum of the widths of the levels below n; straightens
    width-t slants.  t is one width for every level, or a table of the
    widths of levels 0, 1, ..., with width `tail` on every later level."""
    if not isinstance(t, (list, tuple)):
        t = int(t)
        return VertexBijectionSeq("cone_shift", ix.two_sided(), ix.two_sided(),
                                  lambda n: AffineMap(-t * n),
                                  level_const=(t == 0), step=-t, params={"t": t})
    table, tail = [int(x) for x in t], int(tail)

    def offset(n):
        k = min(n, len(table))
        return -sum(table[:k]) - tail * (n - k)

    return VertexBijectionSeq("cone_shift", ix.two_sided(), ix.two_sided(),
                              lambda n: AffineMap(offset(n)),
                              params={"t": table, "tail": tail})


def affine_levels(offsets: Callable[[int], int], source: VertexIndexing,
                  target: VertexIndexing, *, params=None) -> VertexBijectionSeq:
    return VertexBijectionSeq("affine", source, target,
                              lambda n: AffineMap(offsets(n)), params=params)


def fill_sequence(src: VertexIndexing, tgt: VertexIndexing,
                  pins_at: Callable[[int], dict], *, params=None) -> VertexBijectionSeq:
    """Finite-table-plus-canonical-fill bijections, pins supplied per level."""
    return VertexBijectionSeq("table_fill", src, tgt,
                              lambda n: FillMap(src, tgt, pins_at(n)),
                              params=params)


def partial_sequence(src: VertexIndexing, tgt: VertexIndexing,
                     tables: dict) -> VertexBijectionSeq:
    """Window-restricted tables, e.g. an isomorphism-search witness."""
    tbl = {int(n): dict(t) for n, t in tables.items()}

    def map_at(n):
        if n not in tbl:
            raise WindowTooSmallError(f"no bijection table at level {n}")
        return PartialMap(tbl[n])

    return VertexBijectionSeq("partial", src, tgt, map_at)


# the parameters each named bijection reads
_BIJECTION_KEYS = {"identity": ("mode", "base"), "interleave": (),
                   "level_shift": ("step",), "cone_shift": ("t", "tail"),
                   "table_fill": ("source", "target", "tables")}


def builtin_bijection(kind: str, params: Optional[dict] = None) -> VertexBijectionSeq:
    """Named bijection constructors usable from spec files."""
    params = dict(params or {})
    if not isinstance(kind, str) or kind not in _BIJECTION_KEYS:
        raise UnknownKindError(f"unknown bijection kind {kind!r}")
    known = _BIJECTION_KEYS[kind]
    if kind == "cone_shift" and not isinstance(params.get("t"), (list, tuple)):
        known = ("t",)  # a tail follows only a table of widths
    reject_unknown_keys(params, known, f"the {kind} bijection")
    if kind == "identity":
        return identity(ix._parse_indexing({"mode": "two_sided", **params}))
    if kind == "interleave":
        return interleave()
    if kind == "level_shift":
        return level_shift(int(params.get("step", 1)))
    if kind == "cone_shift":
        return cone_shift(params.get("t", 0), params.get("tail", 0))
    # table_fill
    src = ix._parse_indexing(params.get("source", {"mode": "two_sided"}))
    tgt = ix._parse_indexing(params.get("target", {"mode": "one_sided", "base": 0}))
    tables = {int(n): {int(v): int(lab) for v, lab in t.items()}
              for n, t in dict(params.get("tables", {})).items()}
    return fill_sequence(src, tgt, lambda n: tables.get(n, {}),
                         params={"tables": tables})


# --- relabeling ---------------------------------------------------------------

def _check_compatible(d: DiagramHandle, g: VertexBijectionSeq):
    si = g.source_indexing
    if si.mode != d.indexing.mode or (
            si.mode == ix.ONE_SIDED and si.base != d.indexing.base):
        raise IndexingMismatchError(
            f"bijection source indexing {si} does not match diagram {d.indexing}")
    if g.is_shift_family and d.indexing.mode == ix.ONE_SIDED:
        if any(g.shift_at(n) != 0 for n in range(6)):
            raise IndexingMismatchError(
                "nonzero level shifts would move a one-sided base per level")


def _relabeled_flags(d: DiagramHandle, g: VertexBijectionSeq) -> tuple:
    flags = []
    banded = d.get_flag(BandedFlag)
    bsize = d.get_flag(BoundedSizeFlag)
    if g.step is not None:
        delta = g.step
        if banded is not None:
            flags.append(BandedFlag(tuple(sorted(
                (o - delta, m) for o, m in banded.offsets))))
        if bsize is not None:
            t = bsize.t
            flags.append(BoundedSizeFlag(t + abs(delta), bsize.L))
            if -t - delta >= 0:
                flags.append(TriangularFlag("upper", -t - delta))
            if t - delta <= 0:
                flags.append(TriangularFlag("lower", t - delta))
        for tf in d.get_flags(TriangularFlag):
            flags.append(TriangularFlag(tf.direction, tf.slack - delta))
    elif g.kind == "interleave":
        if bsize is not None:
            flags.append(BoundedSizeFlag(2 * bsize.t, bsize.L))
    if g.level_const:
        for f in d.get_flags(FullOutColumnFlag):
            flags.append(FullOutColumnFlag(g.forward(0, f.vertex)))
    if d.get_flag(InfiniteOutDegreesFlag) is not None:
        flags.append(InfiniteOutDegreesFlag())
    # the extension policy carries over only where replaying the last
    # declared level is still right: nothing is replayed, or g is the same
    # map at every level
    exp = d.get_flag(ExplicitLevelsFlag)
    if exp is not None and (exp.extension == "error_beyond" or g.level_const):
        flags.append(exp)
    # drop duplicates, such as a triangular flag derived twice
    return tuple(dict.fromkeys(flags))


def _relabeled_stationary(d: DiagramHandle, g: VertexBijectionSeq) -> bool:
    return d.stationary and (g.level_const or (
        g.step is not None and d.get_flag(BandedFlag) is not None))


def pushed_row(d: DiagramHandle, g: VertexBijectionSeq, n: int, v: int) -> list:
    """Row of d at level n, target v, with its sources pushed through g_n,
    sorted by pushed source: the row the g-relabeled diagram has at g_{n+1}(v)."""
    return sorted((g.forward(n, w), m) for w, m in d.in_edges(n, v))


def relabel(d: DiagramHandle, g: VertexBijectionSeq) -> DiagramHandle:
    """Diagram carrying the same edges under relabeled vertex ids."""
    _check_compatible(d, g)
    tgt = g.target_indexing

    def rows(n, v_new):
        return pushed_row(d, g, n, g.inverse(n + 1, v_new))

    def cols(n, w_new):
        w = g.inverse(n, w_new)
        sup = d.column_support(n, w)
        if sup is None:
            return None
        if sup.is_finite:
            return ColumnSupport.finite(
                (g.forward(n + 1, v), m) for v, m in sup.entries)
        return sup

    return DiagramHandle(
        tgt, rows,
        stationary=_relabeled_stationary(d, g),
        flags=_relabeled_flags(d, g),
        col_rule=cols,
        name=f"relabel({d.name},{g.kind})",
        params={"base": d.name, "base_params": d.params, "bijection": g.kind,
                **g.params})
