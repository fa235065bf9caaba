"""Exact finite-path counting, enumeration, and backward reachability.

Every query sweeps backward from the target one level at a time: rows
of the incidence matrices are finite and exact, so each step is finite
even though columns may be infinite.  Counts are plain Python integers,
hence exact at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .diagram import DiagramHandle
from .errors import InvalidEdgeError


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
        if counting:
            nxt: dict = {}
            for u, paths in layer.items():
                for src, mult in d.in_edges(level, u):
                    nxt[src] = nxt.get(src, 0) + mult * paths
            layer = nxt
        else:
            layer = {src for u in layer for src, _ in d.in_edges(level, u)}
        yield layer


def count_paths(d: DiagramHandle, w: int, n: int, v: int, m: int) -> int:
    """Exact number of finite paths from w at level n to v at level m."""
    for layer in _sweep(d, v, m, n, counting=True):
        pass
    d.indexing.check(w)
    return layer.get(w, 0)


def backward_reach_set(d: DiagramHandle, v: int, m: int, n: int) -> set:
    """All vertices at level n with at least one path to v at level m."""
    for reach in _sweep(d, v, m, n, counting=False):
        pass
    return reach


def backward_reach_profile(d: DiagramHandle, v: int, m: int, n: int) -> list:
    """Reach sets from v@m at levels m, m-1, ..., n (in that order)."""
    return list(_sweep(d, v, m, n, counting=False))


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
