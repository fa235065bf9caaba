import pytest

from gbdkit import DiagramHandle, FinitePath, catalog_names, make_diagram
from gbdkit import paths
from gbdkit.bijections import VertexBijectionSeq
from gbdkit.indexing import two_sided
from gbdkit.paths import Edge

NAMES = [n for n in catalog_names() if n != "banded"]


@pytest.fixture(scope="session")
def handles():
    return {name: make_diagram(name) for name in NAMES}


@pytest.fixture(params=NAMES)
def each_diagram(request, handles):
    return handles[request.param]


@pytest.fixture()
def row_reads(monkeypatch):
    """[count]: the calls of `DiagramHandle.in_edges`, the one row accessor,
    made while the test runs (the method the benchmark tracer wraps)."""
    count = [0]
    in_edges = DiagramHandle.in_edges

    def counted(self, n, v):
        count[0] += 1
        return in_edges(self, n, v)

    monkeypatch.setattr(DiagramHandle, "in_edges", counted)
    return count


@pytest.fixture()
def level_map_calls(monkeypatch):
    """{"forward": count, "push": count}: the calls of the per-vertex
    `VertexBijectionSeq.forward` and the per-row `push` made while the
    test runs."""
    count = {"forward": 0, "push": 0}
    for name in count:
        method = getattr(VertexBijectionSeq, name)

        def counted(self, *args, name=name, method=method):
            count[name] += 1
            return method(self, *args)

        monkeypatch.setattr(VertexBijectionSeq, name, counted)
    return count


def dict_incidence_window(d, n, row_win, col_win):
    """`DiagramHandle.incidence_window` by one dict lookup per cell, the
    reference for the fill from rows."""
    rlo, rhi = row_win
    clo, chi = col_win
    for v in (rlo, rhi):
        d.indexing.check(v, "row vertex")
    for w in (clo, chi):
        d.indexing.check(w, "column vertex")
    mat = []
    for v in range(rlo, rhi + 1):
        rowmap = dict(d.in_edges(n, v))
        mat.append([rowmap.get(w, 0) for w in range(clo, chi + 1)])
    return mat


def sweep_enumerate_paths(d, w, n, v, m, cap=None):
    """`enumerate_paths` by its backward sweep alone, the reference for the
    greedy walk on bands: the reach layers as sorted lists, then a
    depth-first search over them in lexicographic edge order."""
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    reach = [sorted(s) for s in paths._sweep(d, v, m, n, counting=False)][::-1]
    d.indexing.check(w)
    if w not in reach[0]:
        return [], False

    def steps(level, at):
        for u in reach[level + 1 - n]:
            for copy in range(d.entry(level, u, at)):
                yield Edge(level, at, u, copy)

    out, edges, stack = [], [], [steps(n, w)]
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


def restart_first_reach(d, w, n, levels, target):
    """The per-level loop: a fresh sweep (inside the reference enumerator)
    at every m, after first_reach's check of w."""
    d.indexing.check(w)
    for m in levels:
        found, _ = sweep_enumerate_paths(d, w, n, target(m), m, cap=1)
        if found:
            return m, found[0]
    return None


def defective_band(offs, at):
    """A stationary two-sided band whose row at vertex `at` alone has its
    lowest source's multiplicity raised by one."""
    items = sorted(offs.items())

    def rows(n, u):
        row = [(u + o, mult) for o, mult in items]
        if u == at:
            row[0] = (row[0][0], row[0][1] + 1)
        return row

    return DiagramHandle(two_sided(), rows, stationary_from=0, name="defective band")
