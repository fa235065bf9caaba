"""Exact finite-path counting, enumeration, and backward and forward
reachability.

Counting, enumeration and backward reach sweep backward from the target
one level at a time: rows of the incidence matrices are finite and
exact, so each step is finite even though columns may be infinite.
Counts are plain Python integers, hence exact at any magnitude.
Forward cones go through `forward_layers`, whose docstring states when
a forward step is exact.

Probes that ask for the first level m at which w@n reaches a target
t(m)@m go through `first_reach`, which tests each m on the reach set
`reach_frontiers` yields and enumerates the witness path once, at the
hit.  `reach_frontiers` alone chooses how a reach set is found: on a
stationary handle the rows are the same at every level, so the k-step
backward reach set of a vertex is too, and one frontier per distinct
target is kept for the whole query and extended a step at a time as m
grows; on any other handle the rows may change with the level, so every
m restarts the sweep.

`count_paths` answers from the band's polynomial power instead of
sweeping when the handle is stationary and every row the sweep from v@m
to level n could read is a translate of v's row, as on the catalog's
bands, their level shifts and `odometer_one_sided` away from its base
(`_band_offsets` checks those rows): the count is then one coefficient
of the (m - n)-th power of the row polynomial, sum of mult * x^offset,
taken by Kronecker substitution (`_band_count`).  Any other handle, or
a row read that raises, is left to the sweep, so the answer and the
error raised are the sweep's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
            for src, mult in d.row(level, u):
                nxt[src] = nxt.get(src, 0) + mult * paths
        return nxt
    return {src for u in layer for src, _ in d.row(level, u)}


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
    but a layer equal to the one before proves the cone stays put only on
    a stationary handle.
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
    handle is stationary, m > n, level m - 1 is known and every row the
    sweep from v@m to level n could read is a translate of it; else None.

    The sweep's layer j holds v plus sums of j offsets, so it reads rows
    only at the vertices u = v (mod g) in [v + min(0, (k-1) o_min),
    v + max(0, (k-1) o_max)], k = m - n and g the gcd of the offsets;
    each is checked, and a read that raises (a vertex out of range, an
    undeclared row) leaves the question to the sweep.
    """
    if not (d.stationary and m > n and d.level_known(m - 1)):
        return None
    try:
        offs = tuple([(src - v, mult) for src, mult in d.row(n, v)])
        lo, hi = offs[0][0] * (m - n - 1), offs[-1][0] * (m - n - 1)
        step = math.gcd(*[o for o, _ in offs]) or 1
        for u in range(v + min(0, lo), v + max(0, hi) + 1, step):
            if d.row(n, u) != tuple([(u + o, mult) for o, mult in offs]):
                return None
    except GbdError:
        return None
    return offs


def _band_count(offs, k: int, t: int) -> int:
    """Coefficient t of P^k, P(x) = sum of mult * x^(o - o_min) over offs.

    P is packed into one integer, one byte-aligned field per coefficient,
    each wide enough for row_sum^ceil(k/2), which bounds every
    coefficient of both half powers; the two are unpacked and convolved
    at t alone."""
    base, half = offs[0][0], k // 2
    width = ((sum([mult for _, mult in offs]) ** (k - half)).bit_length() + 7) // 8
    p = 0
    for o, mult in offs:
        p |= mult << 8 * width * (o - base)

    def fields(x):  # the coefficients of a packed power, lowest first
        buf = memoryview(x.to_bytes((x.bit_length() + 7) // 8, "little"))
        return [int.from_bytes(buf[i:i + width], "little")
                for i in range(0, len(buf), width)]

    low = pow(p, half)
    a = fields(low)
    b = fields(low * p) if k % 2 else a
    return sum([a[i] * b[t - i]
                for i in range(max(0, t - len(b) + 1), min(t + 1, len(a)))])


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
    paths exist.  cap=None enumerates everything.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
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


def reach_frontiers(d: DiagramHandle, n: int, levels, target):
    """Yield (m, t, reach) for each m in levels, ascending, with t = target(m)
    and reach the set of vertices at level n with a path to t@m.

    On a stationary handle every level has the same rows, so the reach set
    of t after k backward steps is the same for every m with m - n == k.
    One frontier per distinct target is kept for the whole call and
    extended a step at a time as m grows, reading rows at level n, the
    level a fresh sweep reads last.  On other handles the rows may change
    with the level, so every m sweeps afresh; so do levels that need no
    step (m <= n) or that the handle does not declare.
    """
    fronts: dict = {}
    for m in levels:
        t = target(m)
        if d.stationary and 0 <= n < m and d.level_known(m - 1):
            d.indexing.check(t)
            k, reach = fronts.get(t, (0, {t}))
            for _ in range(m - n - k):
                reach = _step(d, n, reach, counting=False)
            fronts[t] = (m - n, reach)
        else:
            reach = backward_reach_set(d, t, m, n)
        yield m, t, reach


def first_reach(d: DiagramHandle, w: int, n: int, levels, target):
    """First m in levels (ascending) with a path w@n -> target(m)@m, as
    (m, path) where path is the first one enumerate_paths yields; None when
    no level has one.  Each m is tested on the reach set of
    `reach_frontiers`, and enumerate_paths sweeps once, at the hit, for
    the witness."""
    d.indexing.check(w)
    for m, t, reach in reach_frontiers(d, n, levels, target):
        if w in reach:
            paths, _ = enumerate_paths(d, w, n, t, m, cap=1)
            return m, paths[0]
    return None
