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
target that the handle keeps across calls.  Its witness is walked once,
at the hit, one column step per level (`_first_path`), down the
record's entry log above the level from which the handle is stationary
and through the call's sweep below it, else through the layers of one
sweep; `enumerate_paths` stays the reference it matches.

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
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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


# the least front on which `_Frontier` keeps counts: below it, stepping the
# whole front by a set comprehension is faster
COUNT_FROM = 16

# what a handle keeps (`_put_back`): records of at most KEEP_SIZE, a larger
# one going back to no keep, and at most KEEP_RECORDS of them, so that the
# 15 targets of a 15 x 15 grid of probes (acceptance criterion 4) stay kept
KEEP_SIZE = 1024
KEEP_RECORDS = 16


class _Frontier:
    """The backward front of a target t on a handle stationary from s, kept
    across calls (`_asked`): the rows repeat from s on, so F_j, the vertices
    at any level top >= s with a path to t@(top + j), depends on j alone.

    - front: F_k after k steps, and F_j for every j >= k once fixed;
    - count: how many rows of F_(k-1) hold each source, so F_k is its keys
      and a step reads only the rows of new and gone, the vertices that
      entered and left F_k; None while whole fronts are stepped;
    - log: the entry log, (entered, left) at each step 1..k, along which
      `layer` moves a set to F_j and `walk` undoes it;
    - size: 1 + k + the vertices the log holds, which bounds the front
      and the counts too: what the record costs the keep.

    holds, below and cur (at step cj) belong to the call that has the
    record out.  No record refers to its handle.
    """

    __slots__ = ("t", "k", "fixed", "front", "count", "new", "gone", "log",
                 "size", "holds", "below", "cur", "cj")

    def __init__(self, t: int):
        self.t = t
        self.k = 0
        self.size = 1
        self.fixed = False
        self.front = {t}
        self.log = []
        self.count = self.holds = self.below = self.cur = None

    def layer(self, j: int) -> set:
        """F_j, for j <= k or once fixed: the front from step k on, else cur
        moved along the log; neither is the caller's to keep."""
        if j >= self.k:
            return self.front
        cur = self.cur
        if cur is None or self.cj > j:
            cur, self.cj = {self.t}, 0
        for entered, left in self.log[self.cj:j]:
            cur.difference_update(left)
            cur.update(entered)
        self.cur, self.cj = cur, j
        return cur

    def walk(self, j: int):
        """Yield F_(j-1), ..., F_0: one set, undoing the log a step at a time."""
        cur = set(self.front) if j >= self.k else self.layer(j)
        self.cur = None
        for i in range(j - 1, -1, -1):
            if i < self.k:
                entered, left = self.log[i]
                cur.difference_update(entered)
                cur.update(left)
            yield cur

    def advance(self, d: DiagramHandle, top: int, j: int):
        """Step on to F_j, or until fixed, by the rows at top: by the counts
        when fewer vertices moved than the front holds, else by the whole
        front, counted again only when it has COUNT_FROM vertices or more
        and less than a quarter of them moved.  A step reads its rows
        before it changes the record, so a read that raises changes none."""
        rows = d.in_edges
        while self.k < j and not self.fixed:
            front, count = self.front, self.count
            counted = count is not None and len(self.new) + len(self.gone) < len(front)
            if counted:
                moves = [(rows(top, u), 1) for u in self.new] + \
                    [(rows(top, u), -1) for u in self.gone]
                was: dict = {}  # each touched source's count before the step
                for row, step in moves:
                    for x, _ in row:
                        c = count.get(x, 0)
                        was.setdefault(x, c)
                        if c + step:
                            count[x] = c + step
                        else:
                            del count[x]
                entered = [x for x, c in was.items() if not c and x in count]
                left = [x for x, c in was.items() if c and x not in count]
            else:
                nxt = {x for u in front for x, _ in rows(top, u)}
                entered, left = nxt - front, front - nxt
            if not entered and not left:
                self.fixed = True
                return
            if counted:
                front.update(entered)
                front.difference_update(left)
            else:
                self.count = None
                if len(front) >= COUNT_FROM and 4 * (len(entered) + len(left)) < len(front):
                    self.count = Counter(x for u in front for x, _ in rows(top, u))
                self.front = nxt
            self.k += 1
            self.size += 1 + len(entered) + len(left)
            self.new, self.gone = entered, left
            self.log.append((entered, left))


def _asked(keep: dict, f: Optional[_Frontier], t: int) -> _Frontier:
    """The record of target t for a call that holds f: f when it is t's,
    else t's record out of the keep (the handle's `_fronts`), or a new
    one, with f then put back, so that a full keep cannot drop the record
    the call is taking.  A call holds the records it asks out of the keep,
    so no two calls step one record."""
    if f is not None and f.t == t:
        return f
    asked = keep.pop(t, None) or _Frontier(t)
    _put_back(keep, f)
    return asked


def _put_back(keep: dict, f: Optional[_Frontier]):
    """Return a record that a call stops asking, as it moves to another
    target or ends, to the keep, without the call's state, unless it has
    taken no step or is larger than KEEP_SIZE, so the keep of a handle
    stationary from no level stays empty (`_top`).  A keep of more than
    KEEP_RECORDS records drops the one put back longest ago."""
    if f is None or f.size > KEEP_SIZE or f.k == 0 and not f.fixed:
        return
    f.holds = f.below = f.cur = None
    keep[f.t] = f
    if len(keep) > KEEP_RECORDS:  # a copy: other calls may take records out
        keep.pop(list(keep)[0], None)


def _top(d: DiagramHandle, n: int, m: int) -> Optional[int]:
    """top = max(n, s) when the reach at level n of a target at m comes from
    the target's record: the handle is stationary from a level s < m and
    level m - 1 is known; else None."""
    s = d.stationary_from
    if s is None or not (0 <= n < m and s < m and d.level_known(m - 1)):
        return None
    return n if n >= s else s


def _reach(d: DiagramHandle, n: int, m: int, t: int, f: _Frontier):
    """The vertices at level n with a path to t@m: from t's record f, stepped
    on to F_(m - top), when `_top` gives a top, else from a fresh sweep.
    When top = n that is `f.layer(m - n)`, the caller's to read but not to
    keep.  When top > n, f.below keeps j and the layers swept from F_j at
    top down to n, swept again only when the front changed.  A read that
    raises raises what a fresh sweep from t@m raises first."""
    top = _top(d, n, m)
    if top is None:
        return backward_reach_set(d, t, m, n)
    d.indexing.check(t)
    j = m - top
    try:
        if f.k < j and not f.fixed:
            f.advance(d, top, j)
        if top == n:
            return f.layer(j)
        below = f.below
        if below is None or below[0] != j and not (f.fixed and below[0] >= f.k):
            front = set(f.layer(j))
            if below is None or below[1][0] != front:
                layers = [front]
                for level in range(top - 1, n - 1, -1):
                    layers.append(_step(d, level, layers[-1], counting=False))
                below = j, layers
            f.below = below = j, below[1]
        return below[1][-1]
    except Exception:
        backward_reach_set(d, t, m, n)
        raise


def reach_frontiers(d: DiagramHandle, n: int, levels, target):
    """Yield (m, t, reach) for each m in levels, ascending, with t = target(m)
    and reach a new set of the vertices at level n with a path to t@m.

    On a handle stationary from a level s, the call takes a target's
    record (`_Frontier`) out of the handle's keep while it asks that
    target, and puts it back when it moves to another target or ends
    (`_asked`, `_put_back`), so the front one call stepped serves the
    next, and a target that comes back finds the steps it took
    (`_reach`).  With no s, and at levels m <= max(n, s) or undeclared,
    every m sweeps afresh.
    """
    f = None  # the record of the target asked last
    try:
        for m in levels:
            t = target(m)
            f = _asked(d._fronts, f, t)
            yield m, t, set(_reach(d, n, m, t, f))
    except GeneratorExit:
        _put_back(d._fronts, f)
        raise
    _put_back(d._fronts, f)


def first_reach(d: DiagramHandle, w: int, n: int, levels, target):
    """First m in levels (ascending) with a path w@n -> target(m)@m, as
    (m, path) where path is the first one enumerate_paths yields; None when
    no level has one.

    A level m >= n + 2 whose target's cone is a band (`_band_offsets`) is
    tested by the sumset of its offsets (`_sumset`); any other level is
    tested on the reach set of the target's record, kept as in
    `reach_frontiers` (`_reach`).  A cone only grows with m, so a target
    whose cone left the band once keeps to its record while it is asked.
    The witness is walked once, at the hit: on a band by the sumset
    (`_first_band_path`),
    else down the record's log (`_walk_layers`, `_first_path`), or through
    one sweep from the hit when the record was not used.  A record the
    call stops asking goes back to the keep when it moves to another target
    or ends, as in `reach_frontiers`; the one it holds when it raises goes
    back to nothing.
    """
    d.indexing.check(w)
    f = hit = None  # the record of the target asked last
    for m in levels:
        t = target(m)
        f = _asked(d._fronts, f, t)
        holds = None
        if m - n > 1 and f.holds is not False:
            offs = _band_offsets(d, n, t, m)
            holds = f.holds = offs is not None and (f.holds or _sumset(offs))
        if holds:
            if holds(w - t, m - n):
                paths, _ = _first_band_path(d, w, n, t, m, offs)
                hit = m, paths[0]
                break
        elif w in _reach(d, n, m, t, f):
            hit = m, _first_path(d, w, n, _walk_layers(d, n, m, t, f))
            break
    _put_back(d._fronts, f)
    return hit


def _walk_layers(d: DiagramHandle, n: int, m: int, t: int, f: _Frontier):
    """The reach layers at levels n + 1..m for t@m, right after `_reach`:
    the call's sweep below top, then the record's walk down its log; with
    no top, the layers of one sweep from t@m."""
    top = _top(d, n, m)
    if top is None:
        return list(_sweep(d, t, m, n, counting=False))[-2::-1]
    if top == n:
        return f.walk(m - n)
    return chain(f.below[1][-2::-1], f.walk(m - top))


def _first_path(d: DiagramHandle, w: int, n: int, layers) -> FinitePath:
    """The first path enumerate_paths yields from w@n through layers, the
    sets of the vertices at levels n + 1, n + 2, ... with a path to the one
    vertex of the last, where w@n has one; each is read before the next is
    drawn, so they may be one set moved in place.

    Every vertex of a layer reaches the end, so that depth-first search
    never backtracks: from each vertex `at` it takes the least u of the
    next layer whose row holds at, copy 0.  Where the column rule knows
    at's column, u is its first target in the layer; else, unless the
    column is all of the next level, the first vertex in the layer within
    the row width of at whose row holds at; else the first such vertex of
    the whole layer, sorted.  The walk reads the rows of layer vertices
    only, which the steps read to build the layers.
    """
    column = d.column_support if d.has_column_rule else None
    width = d.width
    edges, at = [], w
    for level, layer in enumerate(layers, n):
        sup = u = None
        if column is not None:
            try:
                sup = column(level, at)
            except GbdError:
                pass
        if sup is not None and sup.kind == "finite":
            for v, _ in sup.entries:
                if v in layer:
                    u = v
                    break
        elif width is not None and (sup is None or sup.kind != "all"):
            lo, hi = at - width, at + width
            near = (range(lo, hi + 1) if hi - lo < len(layer)
                    else sorted(v for v in layer if lo <= v <= hi))
            u = _first_holding(d, level, at, (v for v in near if v in layer))
        if u is None:
            u = _first_holding(d, level, at, sorted(layer))
        edges.append(Edge(level, at, u, 0))
        at = u
    return FinitePath(n, w, tuple(edges))


def _first_holding(d: DiagramHandle, level: int, at: int, candidates) -> Optional[int]:
    """The first u of candidates whose row at level holds the source at
    (found by bisect: sources ascend), else None."""
    key = (at,)
    for u in candidates:
        row = d.in_edges(level, u)
        i = bisect_left(row, key)
        if i < len(row) and row[i][0] == at:
            return u
    return None
