"""Windowed isomorphism checking and search.

A bijection table on a window is a permutation matrix restricted to that
window; verifying the relabeling identity row by row checks the
permutation-conjugation identity between the two incidence sequences
exactly, with no tolerance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .bijections import VertexBijectionSeq, partial_sequence, pushed_row
from .diagram import DiagramHandle
from .errors import WindowTooSmallError
from .windows import LevelWindow, clamped_interval


_RADIUS = 12  # verify_permutation_identity's default window radius


def _window_vertices(d: DiagramHandle, radius: int) -> range:
    lo, hi = clamped_interval(d.indexing, d.indexing.default_interval(radius))
    return range(lo, hi + 1)


def _rows_carried(dA: DiagramHandle, dB: DiagramHandle, g: VertexBijectionSeq,
                  rows) -> bool:
    """Whether, for each (n, v, v') of `rows`, dB's in-edge row at v' on
    level n + 1 is dA's row at v with its sources pushed through g_n."""
    return all(pushed_row(dA, g, n, v) == dB.in_edges(n, v_new)
               for n, v, v_new in rows)


def verify_permutation_identity(dA: DiagramHandle, dB: DiagramHandle,
                                g: VertexBijectionSeq, levels: int,
                                radius: int = _RADIUS) -> bool:
    """Exact row-by-row equality of dB against the g-relabeled dA.

    For each level n <= levels and each target vertex v' in dB's default
    interval of `radius`, the complete in-edge row of dB at v' must equal
    the g-pushed row of dA at g_{n+1}^{-1}(v').  Raises WindowTooSmallError
    when g is table-restricted and a needed vertex is missing, so a
    too-small window can never masquerade as a negative.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    window = _window_vertices(dB, radius)
    if not _rows_carried(dA, dB, g, ((n, g.inverse(n + 1, v_new), v_new)
                                     for n in range(levels + 1)
                                     for v_new in window)):
        return False
    # spot-check invertibility on the window (the permutation property)
    for n in range(levels + 2):
        for v_new in window:
            v = g.inverse(n, v_new)
            if g.forward(n, v) != v_new:
                raise WindowTooSmallError(
                    f"bijection at level {n} is not invertible at {v_new}")
    return True


def recheck_identity(dA: DiagramHandle, dB: DiagramHandle, g: VertexBijectionSeq,
                     levels: int, holds: bool) -> str:
    """Whether `holds` is `verify_permutation_identity(dA, dB, g, levels)`,
    re-derived on its default window from single entries: each edge
    w -> u of dA, u = g_{n+1}^{-1}(v'), must be dB's entry at
    (n, v', g_n(w)), and dB's row at v' must sum to dA's row at u, so it
    holds no other edge.  Stops at the first row that differs, as the
    check does."""

    def row_matches(n, v_new):
        row = dA.in_edges(n, g.inverse(n + 1, v_new))
        return (all(dB.entry(n, v_new, g.forward(n, w)) == m for w, m in row)
                and sum(m for _, m in dB.in_edges(n, v_new)) == sum(m for _, m in row))

    ok = all(row_matches(n, v_new) for n in range(levels + 1)
             for v_new in _window_vertices(dB, _RADIUS))
    return f"entries and row sums re-read through the bijection: {ok == holds}"


@dataclass
class IsoWitness:
    """Per-level bijection tables found on windows, plus what was verified."""

    tables: dict  # level -> {vertex: image}
    depth: int
    windows: LevelWindow
    verified_rows: dict = field(default_factory=dict)  # level -> [target vertices]
    nodes_explored: int = 0

    def describe(self):
        return {n: sorted(t.items()) for n, t in self.tables.items()}


@dataclass
class NoneWithinBudget:
    """Bounded-search report; not a proof of non-isomorphism."""

    nodes_explored: int
    budget: int
    depth: int


def _row_multiset(d: DiagramHandle, n: int, v: int) -> tuple:
    return tuple(sorted(m for _, m in d.in_edges(n, v)))


def _assignment_order(variables: list, nbrs: dict) -> list:
    """The order the search assigns its variables in: each time the first
    free variable next to an assigned one, else the first free one, by
    position in `variables`.  Which variable comes next depends only on
    which ones are assigned, so one order serves every branch."""
    position = {x: i for i, x in enumerate(variables)}
    free = set(range(len(variables)))
    frontier = []  # heap of positions next to an assigned variable
    order = []
    first = 0
    while free:
        while frontier and frontier[0] not in free:
            heapq.heappop(frontier)
        if frontier:
            i = heapq.heappop(frontier)
        else:
            while first not in free:
                first += 1
            i = first
        free.discard(i)
        order.append(variables[i])
        for x in nbrs[variables[i]]:
            if position[x] in free:
                heapq.heappush(frontier, position[x])
    return order


def iso_search(dA: DiagramHandle, dB: DiagramHandle, depth: int,
               windows_a: LevelWindow, windows_b: LevelWindow,
               budget: int = 100_000):
    """Backtracking search for per-level bijection tables on the windows.

    Variables are window vertices; assignment starts at level 0 near the
    window center and spreads along edges, so row constraints bind as
    early as possible (`_assignment_order`).  Candidates must have the
    same full-row multiplicity multiset (exact rows, an isomorphism
    invariant) and are tried in ascending |vertex| order.  A candidate
    must agree with every assigned vertex one level down and one level
    up; the check reads dB's row at the candidate and an incidence index
    of the assigned images' rows, O(row + degree) per candidate.  The
    search walks an explicit stack, one frame per assigned variable, so
    deep windows never meet the recursion limit.  Exhausting the node
    budget is a result, not an error.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if budget < 1:
        raise ValueError("budget must be >= 1")

    def by_size(d, window, n):
        lo, hi = clamped_interval(d.indexing, window.interval(n))
        return sorted(range(lo, hi + 1), key=lambda x: (abs(x), x))

    levels = range(depth + 1)
    variables = [(n, v) for n in levels for v in by_size(dA, windows_a, n)]
    cand_pool = {n: by_size(dB, windows_b, n) for n in levels}
    # each variable's in-window neighbours one level down and one level
    # up, with the multiplicity of the edge between them in dA
    nbrs = {x: {} for x in variables}
    for n, v in variables:
        if n > 0:
            for w, m in dA.in_edges(n - 1, v):
                if (n - 1, w) in nbrs:
                    nbrs[(n, v)][(n - 1, w)] = m
                    nbrs[(n - 1, w)][(n, v)] = m
    order = _assignment_order(variables, nbrs)
    # v@n's in-edges are the row of level n - 1, read above
    sigs = [_row_multiset(dA, n - 1, v) if n > 0 else None for n, v in order]
    # order[k]'s neighbours among order[:k], the variables assigned
    # whenever order[k] is tried: {w: mult} one level down, {u: mult} up
    position = {x: k for k, x in enumerate(order)}
    downs, ups = [], []
    for k, (n, v) in enumerate(order):
        near = {x: m for x, m in nbrs[(n, v)].items() if position[x] < k}
        downs.append({w: m for (l, w), m in near.items() if l < n})
        ups.append({u: m for (l, u), m in near.items() if l > n})

    tables = {n: {} for n in levels}  # the assignment, level -> {v: image}
    owner = {n: {} for n in levels}  # its inverse, level -> {image: v}
    # the incidence index, level n -> {x: {image: mult}}: the assigned
    # images at level n + 1 whose dB rows hold x, with x's multiplicity
    holders = {n: {} for n in levels}
    sig_memo = {}  # (n, v_img) -> dB's row multiset at v_img on level n
    nodes = 0

    def sig_b(n, v_img):
        sig = sig_memo.get((n, v_img))
        if sig is None:
            sig = sig_memo[(n, v_img)] = _row_multiset(dB, n, v_img)
        return sig

    def consistent(k, n, v_img):
        # every assigned vertex one level down and one level up must agree:
        # the assigned images in dB's row at v_img are exactly those of v's
        # assigned neighbours below, with their multiplicities, and the
        # assigned images whose rows hold v_img are those of v's above
        down, up = downs[k], ups[k]
        if n > 0:
            below, hits = owner[n - 1], 0
            for src, m in dB.in_edges(n - 1, v_img):
                w = below.get(src)
                if w is not None:
                    if down.get(w) != m:
                        return False
                    hits += 1
            if hits != len(down):
                return False
        if n < depth:
            above = owner[n + 1]
            held = holders[n].get(v_img, {})
            if len(held) != len(up):
                return False
            for got, m in held.items():
                if up.get(above[got]) != m:
                    return False
        return True

    def index(n, v_img, add):
        # v_img@n's dB row enters (add) or leaves the index of level n - 1
        if n > 0:
            at = holders[n - 1]
            for src, m in dB.in_edges(n - 1, v_img):
                if add:
                    at.setdefault(src, {})[v_img] = m
                else:
                    del at[src][v_img]

    def search() -> bool:
        # tried[k] is how many candidates of order[k] have been taken up
        nonlocal nodes
        tried = [0] * len(order)
        k = 0
        while k < len(order):
            n, v = order[k]
            pool = cand_pool[n]
            while tried[k] < len(pool):
                v_img = pool[tried[k]]
                tried[k] += 1
                if v_img in owner[n]:
                    continue
                nodes += 1
                if nodes > budget:
                    return False
                if n > 0 and sig_b(n - 1, v_img) != sigs[k]:
                    continue
                if not consistent(k, n, v_img):
                    continue
                tables[n][v] = v_img
                owner[n][v_img] = v
                index(n, v_img, True)
                k += 1
                break
            else:
                # every candidate failed: free the variable before this one
                if k == 0:
                    return False
                tried[k] = 0
                k -= 1
                n, v = order[k]
                v_img = tables[n].pop(v)
                del owner[n][v_img]
                index(n, v_img, False)
        return True

    if not search():
        return NoneWithinBudget(nodes_explored=nodes, budget=budget, depth=depth)
    witness = IsoWitness(tables=tables, depth=depth, windows=windows_a,
                         nodes_explored=nodes)
    # record which rows are fully checkable inside the tables
    for n in range(depth):
        witness.verified_rows[n + 1] = sorted(
            v for v in tables[n + 1]
            if all(w in tables[n] for w, _ in dA.in_edges(n, v)))
    return witness


def verify_witness(dA: DiagramHandle, dB: DiagramHandle, witness: IsoWitness) -> bool:
    """Check a search witness row-by-row on its verified rows."""
    g = partial_sequence(dA.indexing, dB.indexing, witness.tables)
    rows = witness.verified_rows
    return _rows_carried(dA, dB, g, ((n_plus - 1, v, g.forward(n_plus, v))
                                     for n_plus in sorted(rows) for v in rows[n_plus]))


def recheck_search(dA: DiagramHandle, dB: DiagramHandle, res) -> str:
    """The recheck line of an `iso_search` result: a witness re-verified
    row by row on its verified rows, or, for a bounded search that found
    none, the fixed note that it proves nothing."""
    if isinstance(res, IsoWitness):
        return f"witness verified: {verify_witness(dA, dB, res)}"
    return "bounded search only; not a non-isomorphism proof"
