"""Exact finite-path counting, enumeration, and backward and forward
reachability.

Counting, enumeration and backward reach sweep backward from the target
one level at a time: rows of the incidence matrices are finite and
exact, so each step is finite even though columns may be infinite.
Counts are plain Python integers, hence exact at any magnitude.
Forward cones go through `forward_layers`, whose docstring states when
a forward step is exact.

Probes that ask for the first level m at which w@n reaches a target
t(m)@m go through `first_reach`: on a band w@n reaches t@m exactly when
w - t is a sum of m - n offsets (`_band_offsets`, `_sumset`); elsewhere
it tests the reach sets of `reach_frontiers`, the one place that
chooses how a reach set is found, from one `_Frontier` record per
target.  Its witness is walked once, at the hit, one column step per
level (`_first_path`), through the layers that record already holds
(the sweep below the level from which the handle is stationary, the
steps above it), else through the layers of one sweep;
`enumerate_paths` stays the reference it matches.

`count_paths` answers on the same bands from the polynomial power
instead of sweeping: the count is one coefficient of the (m - n)-th
power of the row polynomial, sum of mult * x^offset, which Miller's
recurrence reaches in one pass over the lower coefficients, keeping
only the last deg P of them (`_band_count`).  Any other handle, or a
row read that raises, is left to the sweep, so the answer and the error
raised are the sweep's.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .diagram import DiagramHandle
from .errors import GbdError, InvalidEdgeError


class Edge(NamedTuple):
    level: int
    source: int
    target: int
    copy: int = 0


@dataclass(frozen=True)
class FinitePath:
    """Edge chain from start_vertex at start_level downward."""

    start_level: int
    start_vertex: int
    edges: tuple = ()

    def __post_init__(self):
        lvl, at = self.start_level, self.start_vertex
        for e in self.edges:
            if e.level != lvl or e.source != at:
                raise InvalidEdgeError(f"edge {e} does not chain at level {lvl}, vertex {at}")
            if e.copy < 0:
                raise InvalidEdgeError(f"negative copy index in {e}")
            lvl, at = e.level + 1, e.target

    def __len__(self):
        return len(self.edges)

    @property
    def end_level(self) -> int:
        return self.start_level + len(self.edges)

    @property
    def end_vertex(self) -> int:
        return self.edges[-1].target if self.edges else self.start_vertex

    def vertex_trace(self) -> list:
        return [self.start_vertex] + [e.target for e in self.edges]

    def check_ends(self, start: tuple, end: tuple):
        """InvalidEdgeError unless the path runs from start to end, each a
        (vertex, level) pair."""
        ends = ((self.start_vertex, self.start_level),
                (self.end_vertex, self.end_level))
        if ends != (start, end):
            raise InvalidEdgeError(f"path runs from {ends[0]} to {ends[1]}, "
                                   f"not from {start} to {end}")

    def validate(self, d: DiagramHandle):
        """Re-check every edge against the diagram's rows."""
        d.indexing.check(self.start_vertex)
        for e in self.edges:
            mult = d.entry(e.level, e.target, e.source)
            if e.copy >= mult:
                raise InvalidEdgeError(
                    f"edge {e} absent: multiplicity {mult} at "
                    f"({e.level}, {e.target}, {e.source})")
        return True

    def describe(self):
        return {"start_level": self.start_level,
                "vertices": self.vertex_trace(),
                "copies": [e.copy for e in self.edges]}

    @classmethod
    def from_description(cls, desc) -> "FinitePath":
        """The path that `describe` returned desc for."""
        n, vs = desc["start_level"], desc["vertices"]
        return cls(n, vs[0], tuple(Edge(n + k, vs[k], vs[k + 1], copy)
                                   for k, copy in enumerate(desc["copies"])))


def _step(d: DiagramHandle, level: int, layer, counting: bool):
    """The layer one level down: the sources at `level` of the vertices in
    layer, with summed path counts when counting."""
    if counting:
        nxt: dict = {}
        for u, paths in layer.items():
            for src, mult in d.in_edges(level, u):
                nxt[src] = nxt.get(src, 0) + mult * paths
        return nxt
    return {src for u in layer for src, _ in d.in_edges(level, u)}


def _sweep(d: DiagramHandle, v: int, m: int, n: int, counting: bool):
    """Backward layers from v@m, one per level m, m-1, ..., n: the vertices
    with a path to v@m, as {vertex: path count} when counting, else as a
    set.  Each layer is built from the previous one alone."""
    if m < n:
        raise ValueError(f"levels out of order: {n} > {m}")
    d.indexing.check(v)
    layer = {v: 1} if counting else {v}
    yield layer
    for level in range(m - 1, n - 1, -1):
        layer = _step(d, level, layer, counting)
        yield layer


def forward_step(d: DiagramHandle, level: int, layer) -> Optional[set]:
    """The layer one level up: the targets at level + 1 of the vertices
    in layer at level, read from their columns; see `forward_layers`."""
    nxt: set = set()
    for u in layer:
        try:
            sup = d.column_support(level, u)
        except GbdError:
            return None
        if sup is None or not sup.is_finite:
            return None
        nxt.update(tgt for tgt, _ in sup.entries)
    return nxt


def forward_layers(d: DiagramHandle, w: int, n: int, steps: int):
    """Forward layers from w@n: {w}, then the vertices with a path from
    w@n at each level n+1, ..., n+steps, each built from the previous one.

    A step reads the columns of the layer through
    `DiagramHandle.column_support`, and the walk ends early, after the
    layer it was reading, at a column that is not exactly known: none
    known, an infinite or full column, or a read that raises a
    `GbdError`, such as a row the width band needs but a spec does not
    declare.

    Each step reads its own level, so the walk is exact on any handle;
    but a layer equal to the one before proves the cone stays put only
    from the level from which the handle is stationary.
    """
    d.indexing.check(w)
    layer: Optional[set] = {w}
    yield layer
    for level in range(n, n + steps):
        layer = forward_step(d, level, layer)
        if layer is None:
            return
        yield layer


def _band_offsets(d: DiagramHandle, n: int, v: int, m: int) -> Optional[tuple]:
    """v's row at level n as ascending (offset, mult) pairs, when the
    handle is stationary from a level s <= n, n < m, level m - 1 is known
    and every row the sweep from v@m to level n could read is a translate
    of it; else None.

    The sweep's layer j holds v plus sums of j offsets, so it reads rows
    only at the vertices u = v (mod g) in [v + min(0, (k-1) o_min),
    v + max(0, (k-1) o_max)], k = m - n and g the gcd of the offsets:
    v's row alone when k = 1.  Beyond that the handle keeps what it has
    checked (`DiagramHandle.translates`).  Offsets too wide for a
    `_sumset` table are left to the sweep before the cone is read, and so
    is a read that raises (a vertex out of range, an undeclared row).
    """
    s = d.stationary_from
    if s is None or not (s <= n < m and d.level_known(m - 1)):
        return None
    try:
        if m - n == 1:  # the sweep reads v's row alone
            return tuple([(src - v, mult) for src, mult in d.in_edges(n, v)])
        band = d.translates(n, v)
    except GbdError:
        return None
    if band is None or _sumset(band.offs) is None:
        return None
    offs, k = band.offs, m - n - 1
    if band.covers(d, n, v + min(0, k * offs[0][0]), v + max(0, k * offs[-1][0])):
        return offs
    return None


# the most entries a `_sumset` table may have; wider offsets leave the band
# to the sweep, whose layers are sparse in the cone interval the band
# check reads (offsets {0, 999, 1000}: a table of 10^6 entries, built in
# 1 s, and 1,000 rows checked per level)
SUMSET_TABLE_MAX = 4096


@lru_cache(maxsize=64)
def _sumset(offs):
    """holds(x, h): whether x is a sum of h offsets of offs, which on a
    band (`_band_offsets`) is whether w@l reaches v@(l + h), x = w - v;
    None when the table of `_fewest` would exceed SUMSET_TABLE_MAX
    entries.

    Shift the offsets to start at 0 and divide them by the gcd g of their
    gaps: y = (x - h o_min) / g must be a sum of h elements of the
    shifted set T, that is of at most h of its nonzero elements, the
    coins.  So holds compares fewest(y), the least number of coins that
    sum to y, with h.  When the coins are exactly 1..a, fewest(y) is
    ceil(y / a), so y holds exactly when y <= h a, and no table is built.
    """
    base = offs[0][0]
    if len(offs) == 1:
        return lambda x, h: x == h * base
    gaps = [o - base for o, _ in offs[1:]]
    g = math.gcd(*gaps)
    coins = [gap // g for gap in gaps]
    a = coins[-1]
    if len(coins) == a:  # the coins are 1..a
        def holds(x: int, h: int) -> bool:
            y, r = divmod(x - h * base, g)
            return not r and 0 <= y <= h * a

        return holds
    fewest = _fewest(coins)
    if fewest is None:
        return None

    def holds(x: int, h: int) -> bool:
        y, r = divmod(x - h * base, g)
        return not r and y >= 0 and fewest(y) <= h

    return holds


def _fewest(coins):
    """fewest(y): the least number of coins, ascending positive integers
    with gcd 1, that sum to y >= 0; None when its table would exceed
    SUMSET_TABLE_MAX entries.

    Fewer than a coins of an optimal sum are below the largest coin a: a
    of them hold a block summing to a multiple of a, which fewer coins a
    replace.  So for y >= Y = (a - 1) b, b the largest coin below a, an
    optimal sum of y + a holds a coin a and fewest(y + a) = fewest(y) +
    1, and one table of fewest over [0, Y + a) answers every y.  For
    large h this gives hT the shape M. B. Nathanson found (Sums of finite
    sets of integers, Amer. Math. Monthly 79, 1972): a fixed finite set,
    an interval, and a fixed finite set below hT's top.
    """
    a = coins[-1]
    start = (a - 1) * (coins[-2] if len(coins) > 1 else 0)
    if start + a > SUMSET_TABLE_MAX:
        return None
    table = [0]
    for y in range(1, start + a):
        table.append(1 + min([table[y - c] for c in coins if c <= y],
                             default=math.inf))

    def fewest(y: int):
        if y < start:
            return table[y]
        q, y = divmod(y - start, a)
        return table[y + start] + q

    return fewest


def _band_count(offs, k: int, t: int) -> int:
    """Coefficient t of P^k, P(x) = sum of p_i x^i with p_(o - o_min) the
    mult of each (o, mult) in offs, by J.C.P. Miller's recurrence (Knuth,
    TAOCP vol. 2, 4.7): q_0 = p_0^k and s p_0 q_s = sum over i = 1..min(s,
    deg P) of ((k + 1) i - s) p_i q_(s-i), an exact division.  Only the
    last deg P coefficients are kept."""
    base, p0 = offs[0]
    terms = [(o - base, mult) for o, mult in offs[1:]]
    deg = offs[-1][0] - base
    if not 0 <= t <= k * deg:
        return 0
    q = deque([p0 ** k], maxlen=max(deg, 1))  # q[i - 1] is q_(s - i)
    for s in range(1, t + 1):
        q.appendleft(sum([((k + 1) * i - s) * mult * q[i - 1]
                          for i, mult in terms if i <= s]) // (s * p0))
    return q[0]


def count_paths(d: DiagramHandle, w: int, n: int, v: int, m: int) -> int:
    """Exact number of finite paths from w at level n to v at level m."""
    offs = _band_offsets(d, n, v, m)
    if offs is not None:
        count = _band_count(offs, m - n, w - v - (m - n) * offs[0][0])
    else:
        for layer in _sweep(d, v, m, n, counting=True):
            pass
        count = layer.get(w, 0)
    d.indexing.check(w)
    return count


def backward_reach_set(d: DiagramHandle, v: int, m: int, n: int) -> set:
    """All vertices at level n with at least one path to v at level m."""
    for reach in _sweep(d, v, m, n, counting=False):
        pass
    return reach


def enumerate_paths(d: DiagramHandle, w: int, n: int, v: int, m: int,
                    cap: Optional[int] = None):
    """Distinct paths w@n -> v@m in lexicographic edge order.

    Returns (paths, truncated); truncated is True when more than cap
    paths exist.  cap=None enumerates everything.  With cap=1 on a band
    (`_band_offsets`) the first path is walked without a sweep
    (`_first_band_path`).
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    offs = _band_offsets(d, n, v, m) if cap == 1 and m - n > 1 else None
    if offs is not None:
        return _first_band_path(d, w, n, v, m, offs)
    # reach[k]: vertices at level n + k that reach v@m, as sorted lists,
    # which take an eighth of the memory of sets on deep profiles
    reach = [sorted(s) for s in _sweep(d, v, m, n, counting=False)][::-1]
    d.indexing.check(w)
    if w not in reach[0]:
        return [], False

    def steps(level: int, at: int):
        for u in reach[level + 1 - n]:
            for copy in range(d.entry(level, u, at)):
                yield Edge(level, at, u, copy)

    # Depth-first over one shared edge list; stack[k] yields the choices
    # for edges[k], so len(stack) == len(edges) + 1 at the loop head.
    out: list = []
    edges: list = []
    stack = [steps(n, w)]
    while stack:
        if len(edges) == m - n:
            if len(out) == cap:
                return out, True
            out.append(FinitePath(n, w, tuple(edges)))
            e = None
        else:
            e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if edges:
                edges.pop()
        else:
            edges.append(e)
            stack.append(steps(e.level + 1, e.target))
    return out, False


def _first_band_path(d: DiagramHandle, w: int, n: int, v: int, m: int, offs):
    """enumerate_paths(d, w, n, v, m, cap=1) on a band (`_band_offsets`
    holds offs for v@m and level n), with no sweep.

    Every vertex of a reach layer reaches v@m, so the depth-first search
    never backtracks: from each vertex it takes the smallest target
    at - o whose remaining sumset holds it (`_sumset`), copy 0.  More
    than one path exists exactly when some step has a second (target,
    copy) choice inside the reach set.
    """
    d.indexing.check(w)
    holds = _sumset(offs)
    if not holds(w - v, m - n):
        return [], False
    edges, more, at = [], False, w
    for level in range(n, m):
        u, left = None, m - level - 1
        for o, mult in reversed(offs):  # targets at - o ascending
            if holds(at - o - v, left):
                if u is not None:
                    more = True
                    break
                u, more = at - o, more or mult > 1
                if more:
                    break
        edges.append(Edge(level, at, u, 0))
        at = u
    return [FinitePath(n, w, tuple(edges))], more


class _Frontier:
    """What one call of `reach_frontiers` or `first_reach` keeps of a
    target t, with top = max(n, s) and s the level from which the handle
    is stationary (`_reach`):

    - front, the vertices at level top with a path to t@(top + k), after
      k steps of the rows at top, or with k = None once a step returned
      it unchanged: then it answers every later level;
    - steps, when a witness is walked: F_0 = [t], F_1, ..., the front
      after each step that changed it, as sorted lists, so the layer at
      level top + j for t@m is F_(m-top-j), or the last one once fixed;
    - below, the layers at levels top, top - 1, ..., n of the last sweep
      down from the front `swept`, when top > n: all of them while steps
      is kept, else the last one;
    - holds, `first_reach`'s sumset test (`_sumset`): None before the
      first test, False once t's cone left the band.

    A list takes an eighth of the memory of a set on deep profiles.
    """

    __slots__ = ("k", "front", "steps", "swept", "below", "holds")

    def __init__(self, t: int, walk: bool):
        self.k, self.front, self.holds = 0, {t}, None
        self.steps = [[t]] if walk else None
        self.swept = self.below = None

    def forget(self):
        """Drop the layers a witness walks; keep the front and the reach
        set at level n."""
        self.steps = None
        self.below = self.below and deque(self.below, maxlen=1)

    def layers(self, d: DiagramHandle, t: int, n: int, m: int) -> list:
        """reach for `_first_path` to t@m.  While the steps are kept, the
        layers the record holds: the sweep from top down to n, then the
        steps above top.  Else, or while k = 0 (`_reach` answered t@m by
        a fresh sweep: levels ascend, so a front stepped once answers
        every later level), the layers of one sweep from t@m."""
        if self.steps is None or self.k == 0:
            return [sorted(s) for s in _sweep(d, t, m, n, counting=False)][::-1]
        last = len(self.steps) - 1
        below = [sorted(layer) for layer in reversed(self.below or ())]
        return below + [self.steps[min(m - level, last)]
                        for level in range(n + len(below), m + 1)]


def _reach(d: DiagramHandle, n: int, m: int, t: int, f: _Frontier) -> set:
    """The vertices at level n with a path to t@m, from t's record f
    (`_Frontier`) when the handle is stationary from a level s < m, else
    from a fresh sweep.

    The front at top = max(n, s) is stepped on from where f left it, up
    to m - top steps; from top the rows repeat, so that is t's reach set
    at top for any m.  When top > n, the levels below top are swept
    again only when a step changed the front."""
    s = d.stationary_from
    if s is None or not (0 <= n < m and s < m and d.level_known(m - 1)):
        return backward_reach_set(d, t, m, n)
    top = n if n >= s else s
    d.indexing.check(t)
    if f.k is not None:  # None: a step returned the front unchanged
        for _ in range(m - top - f.k):
            nxt = _step(d, top, f.front, counting=False)
            if nxt == f.front:
                f.k = None
                break
            f.front = nxt
            if f.steps is not None:
                f.steps.append(sorted(nxt))
        else:
            f.k = m - top
    if top == n:
        return f.front
    if f.swept is not f.front and f.swept != f.front:
        f.swept, f.below = f.front, deque([f.front], None if f.steps else 1)
        for level in range(top - 1, n - 1, -1):
            f.below.append(_step(d, level, f.below[-1], counting=False))
    return f.below[-1]


def reach_frontiers(d: DiagramHandle, n: int, levels, target):
    """Yield (m, t, reach) for each m in levels, ascending, with t = target(m)
    and reach the set of vertices at level n with a path to t@m.

    One `_Frontier` per target is kept for the whole call (`_reach`):
    from level top = max(n, s), s the level from which the handle is
    stationary, its front is extended a step at a time as m grows, and
    the levels below top are swept again only when a step changed it.
    Every step from top applies the same rows, so a step that returns
    the front unchanged marks it fixed, and later levels read no row.
    With no s, and at levels m <= top or undeclared, every m sweeps
    afresh.
    """
    fronts: dict = {}  # target -> its _Frontier
    for m in levels:
        t = target(m)
        f = fronts.get(t) or fronts.setdefault(t, _Frontier(t, False))
        yield m, t, _reach(d, n, m, t, f)


def first_reach(d: DiagramHandle, w: int, n: int, levels, target):
    """First m in levels (ascending) with a path w@n -> target(m)@m, as
    (m, path) where path is the first one enumerate_paths yields; None when
    no level has one.

    Each target t keeps one `_Frontier` for the call.  A level m >= n + 2
    whose target's cone is a band (`_band_offsets`) is tested by the
    sumset of the offsets (`_sumset`) and sweeps nothing; any other
    level, the first one above n included, is tested on the reach set of
    t's front (`_reach`).  A cone only grows with m, so a target whose
    cone left the band once keeps the front.

    The witness is walked once, at the hit, one step per level: on a band
    by the sumset (`_first_band_path`); else through the layers the
    record holds, the sweep below top and the steps from top, so a hit
    from a kept front sweeps nothing again; else through the layers of
    one sweep from the hit (`_Frontier.layers`, `_first_path`).  Only
    the target being asked keeps its layers: when the target changes,
    the last one forgets them, and if it comes back its hit sweeps.
    """
    d.indexing.check(w)
    fronts: dict = {}  # target -> its _Frontier
    asked = None  # the record of the last target asked
    for m in levels:
        t = target(m)
        f = fronts.get(t) or fronts.setdefault(t, _Frontier(t, True))
        if asked is not f and asked is not None:
            asked.forget()
        asked, holds = f, None
        if m - n > 1 and f.holds is not False:
            offs = _band_offsets(d, n, t, m)
            holds = f.holds = offs is not None and (f.holds or _sumset(offs))
        if holds:
            if holds(w - t, m - n):
                paths, _ = _first_band_path(d, w, n, t, m, offs)
                return m, paths[0]
        elif w in _reach(d, n, m, t, f):
            return m, _first_path(d, w, n, f.layers(d, t, n, m))
    return None


def _first_path(d: DiagramHandle, w: int, n: int, reach: list) -> FinitePath:
    """The first path enumerate_paths yields from w@n through reach, where
    reach[k] is the sorted list of the vertices at level n + k with a path
    to the one vertex of reach[-1], and w is in reach[0].

    Every vertex of a layer reaches the end, so that depth-first search
    never backtracks: from each vertex `at` it takes the least u of the
    next layer whose row holds at, copy 0.  Where the column rule knows
    at's column, u is its first target in the layer, or, when the column
    is all of the next level, the layer's first vertex confirmed on its
    row; else u is the first vertex of the layer within the row width of
    at, else of the whole layer, whose row holds at.  The walk reads the
    rows of layer vertices only, which the sweep read to build the layers.
    """
    column = d.column_support if d.has_column_rule else None
    width = d.width
    edges, at = [], w
    for level, layer in enumerate(reach[1:], n):
        sup = u = None
        if column is not None:
            try:
                sup = column(level, at)
            except GbdError:
                pass
        if sup is not None and sup.kind == "finite":
            for v, _ in sup.entries:
                i = bisect_left(layer, v)
                if i < len(layer) and layer[i] == v:
                    u = v
                    break
        elif sup is not None and sup.kind == "all":
            u = _first_holding(d, level, at, layer, 0, 1)
        elif width is not None:
            u = _first_holding(d, level, at, layer, bisect_left(layer, at - width),
                               bisect_right(layer, at + width))
        if u is None:
            u = _first_holding(d, level, at, layer, 0, len(layer))
        edges.append(Edge(level, at, u, 0))
        at = u
    return FinitePath(n, w, tuple(edges))


def _first_holding(d: DiagramHandle, level: int, at: int, layer: list,
                   lo: int, hi: int) -> Optional[int]:
    """The first u of layer[lo:hi] whose row at level holds the source at
    (found by bisect: sources ascend), else None."""
    key = (at,)
    for k in range(lo, hi):
        row = d.in_edges(level, layer[k])
        i = bisect_left(row, key)
        if i < len(row) and row[i][0] == at:
            return layer[k]
    return None
