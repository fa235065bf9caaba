"""Windowed isomorphism checking and search.

A bijection table on a window is a permutation matrix restricted to that
window; verifying the relabeling identity row by row checks the
permutation-conjugation identity between the two incidence sequences
exactly, with no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bijections import VertexBijectionSeq, partial_sequence, pushed_row
from .diagram import DiagramHandle
from .errors import WindowTooSmallError
from .windows import LevelWindow


def verify_permutation_identity(dA: DiagramHandle, dB: DiagramHandle,
                                g: VertexBijectionSeq, levels: int,
                                windows: LevelWindow | None = None,
                                radius: int = 12) -> bool:
    """Exact row-by-row equality of dB against the g-relabeled dA.

    For each level n <= levels and each target vertex v' in the window
    at level n+1, the complete in-edge row of dB at v' must equal the
    g-pushed row of dA at g_{n+1}^{-1}(v').  Raises WindowTooSmallError
    when g is table-restricted and a needed vertex is missing, so a
    too-small window can never masquerade as a negative.
    """
    if windows is None:
        windows = LevelWindow.uniform(dB.indexing, levels + 1, radius)
    for n in range(levels + 1):
        if (n + 1) not in windows.levels:
            continue
        for v_new in windows.vertices(n + 1):
            if not dB.indexing.contains(v_new):
                continue
            expected = pushed_row(dA, g, n, g.inverse(n + 1, v_new))
            if dB.in_edges(n, v_new) != expected:
                return False
    # spot-check invertibility on the window (the permutation property)
    for n in windows.levels:
        for v_new in windows.vertices(n):
            if not dB.indexing.contains(v_new):
                continue
            v = g.inverse(n, v_new)
            if g.forward(n, v) != v_new:
                raise WindowTooSmallError(
                    f"bijection at level {n} is not invertible at {v_new}")
    return True


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
    return tuple(sorted(m for _, m in d.row(n, v)))


def iso_search(dA: DiagramHandle, dB: DiagramHandle, depth: int,
               windows_a: LevelWindow, windows_b: LevelWindow,
               budget: int = 100_000):
    """Backtracking search for per-level bijection tables on the windows.

    Variables are window vertices; assignment starts at level 0 near the
    window center and spreads along edges, so row constraints bind as
    early as possible.  Candidates must have the same full-row
    multiplicity multiset (exact rows, an isomorphism invariant) and are
    tried in ascending |vertex| order.  Exhausting the node budget is a
    result, not an error.
    """
    def by_size(d, window, n):
        vs = [v for v in window.vertices(n) if d.indexing.contains(v)]
        return sorted(vs, key=lambda x: (abs(x), x))

    levels = range(depth + 1)
    variables = [(n, v) for n in levels for v in by_size(dA, windows_a, n)]
    cand_pool = {n: by_size(dB, windows_b, n) for n in levels}
    # each variable's in-window neighbours one level down and one level
    # up, with the multiplicity of the edge between them in dA
    nbrs = {x: {} for x in variables}
    for n, v in variables:
        if n > 0:
            for w, m in dA.row(n - 1, v):
                if (n - 1, w) in nbrs:
                    nbrs[(n, v)][(n - 1, w)] = m
                    nbrs[(n - 1, w)][(n, v)] = m

    tables = {n: {} for n in levels}  # the assignment, level -> {v: image}
    used = {n: set() for n in levels}
    nodes = 0

    def consistent(n, v, v_img):
        # every assigned vertex one level down and one level up must agree
        nb = nbrs[(n, v)]
        return (all(nb.get((n - 1, w), 0) == dB.entry(n - 1, v_img, got)
                    for w, got in tables.get(n - 1, {}).items())
                and all(nb.get((n + 1, u), 0) == dB.entry(n, got, v_img)
                        for u, got in tables.get(n + 1, {}).items()))

    def pick_variable():
        # the first free variable next to an assigned one, else the first
        # free one; variables are listed by (level, |v|, v)
        first = None
        for n, v in variables:
            if v in tables[n]:
                continue
            if any(w in tables[m] for m, w in nbrs[(n, v)]):
                return n, v
            if first is None:
                first = (n, v)
        return first

    def backtrack():
        nonlocal nodes
        var = pick_variable()
        if var is None:
            return True
        n, v = var
        # v@n's in-edges are the row of level n - 1
        sig = _row_multiset(dA, n - 1, v) if n > 0 else None
        for v_img in cand_pool[n]:
            if v_img in used[n]:
                continue
            nodes += 1
            if nodes > budget:
                return False
            if n > 0 and _row_multiset(dB, n - 1, v_img) != sig:
                continue
            if not consistent(n, v, v_img):
                continue
            tables[n][v] = v_img
            used[n].add(v_img)
            if backtrack():
                return True
            del tables[n][v]
            used[n].discard(v_img)
            if nodes > budget:
                return False
        return False

    if not backtrack():
        return NoneWithinBudget(nodes_explored=nodes, budget=budget, depth=depth)
    witness = IsoWitness(tables=tables, depth=depth, windows=windows_a,
                         nodes_explored=nodes)
    # record which rows are fully checkable inside the tables
    for n in range(depth):
        witness.verified_rows[n + 1] = sorted(
            v for v in tables[n + 1]
            if all(w in tables[n] for w, _ in dA.row(n, v)))
    return witness


def verify_witness(dA: DiagramHandle, dB: DiagramHandle, witness: IsoWitness) -> bool:
    """Check a search witness row-by-row on its verified rows."""
    g = partial_sequence(dA.indexing, dB.indexing, witness.tables)
    for n_plus in sorted(witness.verified_rows):
        n = n_plus - 1
        for v in witness.verified_rows[n_plus]:
            expected = pushed_row(dA, g, n, v)
            if dB.in_edges(n, g.forward(n_plus, v)) != expected:
                return False
    return True


def row_col_sum(d: DiagramHandle, n: int, mode: str, index: int, win=None):
    """Row sums are exact; column sums are windowed unless a flag bounds
    the column support inside the window."""
    if mode == "row":
        row = d.in_edges(n, index)
        return sum(m for _, m in row), True
    if mode != "col":
        raise ValueError(f"mode must be 'row' or 'col', got {mode!r}")
    if win is None:
        raise ValueError("column sums need a finite window")
    entries = d.out_edges_in_window(n, index, win)
    total = sum(m for _, m in entries)
    exact = False
    sup = d.column_support(n, index)
    if sup is not None and sup.is_finite:
        lo, hi = win
        exact = all(lo <= v <= hi for v, _ in sup.entries)
    else:
        t = d.t_rule()
        if t is not None:
            lo, hi = win
            exact = lo <= index - t(n) and index + t(n) <= hi
    return total, exact
