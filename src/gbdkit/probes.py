"""Certified structural analysis: irreducibility, period, connectedness,
bounded-size geometry, compactness, and the irreducibility-type
classification.

Positive verdicts carry a finite witness re-checkable by path counting;
negative verdicts carry a window-verified invariant backed by a
structural flag; everything else is Unknown at the searched depth.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field

from .diagram import (
    DEFAULT_DEPTH,
    DEFAULT_RADIUS,
    BandedFlag,
    BoundedSizeFlag,
    DiagramHandle,
    FullOutColumnFlag,
)
from .errors import GbdError, NoBoundedSizeFlagError, NotStationaryError
from .paths import (
    FinitePath,
    backward_reach_set,
    first_reach,
    forward_layers,
    reach_frontiers,
)
from .verdicts import (
    CLOPEN,
    TRIANGULAR,
    Verdict,
    find_invariants,
    reverify,
)
from .windows import LevelWindow, clamped_interval


def irreducible_probe(d: DiagramHandle, i: int, j: int, n0: int = 0,
                      depth: int = DEFAULT_DEPTH) -> Verdict:
    """Is j reachable from i at some level in (n0, n0+depth], or provably never?"""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    d.indexing.check(i)
    d.indexing.check(j)
    hit = first_reach(d, i, n0, range(n0 + 1, n0 + depth + 1), lambda m: j)
    if hit is not None:
        m, witness = hit
        return Verdict.yes(witness=witness, level=m)
    for inv in find_invariants(d, d.default_window()):
        if inv.excludes_pair(i, j):
            return Verdict.no(certificate=inv, source=i, target=j)
    return Verdict.unknown(depth=depth)


def recheck_irreducible(d: DiagramHandle, v: Verdict, i: int, j: int,
                        n0: int = 0, depth: int = DEFAULT_DEPTH) -> str:
    """The recheck line of v = irreducible_probe(d, i, j, n0, depth); a Yes
    path that does not run from i@n0 to j raises InvalidEdgeError."""
    if v.is_yes:
        v.witness.check_ends((i, n0), (j, v.detail["level"]))
        v.witness.validate(d)
        return "witness path re-validated edge-by-edge"
    if v.is_no:
        ok = reverify(d, v.certificate) and v.certificate.excludes_pair(i, j)
        return f"certificate re-verified: {ok}"
    return "unknown depth exhausted"


def invariant_certificate(d: DiagramHandle, window: LevelWindow | None = None) -> list:
    """All window-verified invariants but the drift-only triangular bounds."""
    if window is None:
        window = d.default_window()
    return [inv for inv in find_invariants(d, window)
            if inv.kind != TRIANGULAR or inv.never_ascends or inv.never_descends]


def _window_graph(d: DiagramHandle, window: LevelWindow, levels: int) -> tuple:
    """(nodes, edges): the (level, vertex) pairs of the window on levels
    <= levels, each level's interval clamped to the vertex range
    (EmptyWindowError when one holds no vertex), and the edges (n, v) --
    (n - 1, w) between them that the declared rows hold.  A vertex
    without a declared row has no edge to the level below, so it can
    block a Yes."""
    nodes = []
    for n in window.levels:
        if n <= levels:
            lo, hi = clamped_interval(d.indexing, window.interval(n))
            nodes.extend((n, v) for v in range(lo, hi + 1))
    node_set = set(nodes)
    edges = [((n, v), (n - 1, w))
             for n in window.levels if 0 < n <= levels and d.level_known(n - 1)
             for v, row in d.window_rows(n - 1, *window.interval(n)).items()
             for w, _ in row if (n - 1, w) in node_set]
    return nodes, edges


def _component_count(nodes: list, edges: list) -> int:
    """The number of components of the undirected graph, each walked
    breadth first from its first node in `nodes`."""
    adjacent = {x: [] for x in nodes}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    reached = set()
    count = 0
    for x in nodes:
        if x in reached:
            continue
        count += 1
        reached.add(x)
        queue = deque([x])
        while queue:
            for y in adjacent[queue.popleft()]:
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
    return count


def connected_probe(d: DiagramHandle, levels: int = 4,
                    window: LevelWindow | None = None) -> Verdict:
    """Connectedness of the windowed undirected graph.

    Yes needs every window vertex in one component.  No needs a
    globally backed edge-preserved 2-coloring that separates window
    vertices; a merely disconnected window is Unknown because frontier
    vertices may reconnect outside it.
    """
    if window is None:
        window = d.default_window(levels)
    nodes, edges = _window_graph(d, window, levels)
    components = _component_count(nodes, edges)
    if components == 1:
        return Verdict.yes(witness={"vertices": len(nodes),
                                    "levels": min(levels, window.max_level)})
    for inv in find_invariants(d, window):
        if inv.kind == CLOPEN and inv.is_global \
                and len(classes := _class_counts(inv, nodes)) > 1:
            return Verdict.no(certificate=inv, classes=classes)
    return Verdict.unknown(windows=window, components=components)


def _class_counts(inv, nodes: list) -> Counter:
    """How many of the (level, vertex) nodes each class of a clopen
    invariant's coloring holds, keyed by the class as a string."""
    return Counter(str(inv.residue_class(v, n)) for n, v in nodes)


def recheck_connected(d: DiagramHandle, v: Verdict, levels: int = 4,
                      window: LevelWindow | None = None) -> str:
    """The recheck line of v = connected_probe(d, levels, window), read off
    the window graph built again from the rows."""
    if window is None:
        window = d.default_window(levels)
    nodes, edges = _window_graph(d, window, levels)
    if v.is_unknown:
        ok = _component_count(nodes, edges) == v.detail["components"]
        return f"components re-counted breadth first: {ok}"
    if v.is_no:
        classes = _class_counts(v.certificate, nodes)
        ok = reverify(d, v.certificate) and len(classes) > 1 \
            and classes == v.detail["classes"]
        return f"certificate re-verified: {ok}"
    ok = _component_count(nodes, edges) == 1 \
        and len(nodes) == v.witness["vertices"]
    return f"window re-walked breadth first from one vertex: {ok}"


def _period_level(d: DiagramHandle) -> int:
    """The level s from which d is stationary, where return lengths count."""
    if d.stationary_from is None:
        raise NotStationaryError("period is defined for stationary diagrams")
    return d.stationary_from


def period_of_index(d: DiagramHandle, i: int, horizon: int = 8):
    """gcd of return-path lengths from i@s back to i, with the lengths found."""
    s = _period_level(d)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    lengths = [m - s for m, _, reach in reach_frontiers(
        d, s, range(s + 1, s + horizon + 1), lambda m: i) if i in reach]
    if not lengths:
        return None, []
    return math.gcd(*lengths), lengths


def recheck_period(d: DiagramHandle, i: int, horizon: int, g, lengths) -> str:
    """Whether `period_of_index(d, i, horizon)` answered (g, lengths): the
    return lengths from level s are swept afresh, one backward sweep per
    length m, and compared with lengths and their gcd with g."""
    s = _period_level(d)
    swept = [m for m in range(1, horizon + 1)
             if i in backward_reach_set(d, i, s + m, s)]
    ok = swept == lengths and g == (math.gcd(*swept) if swept else None)
    return f"return lengths re-swept level by level: {ok}"


def bounded_size_params(d: DiagramHandle, n: int,
                        window=None) -> tuple:
    """(t_lower, L_lower, exact): max source distance and max row sum over
    the window's declared rows; exact when a flag certifies the values
    globally and the window holds a declared row."""
    if window is None:
        window = d.indexing.default_interval(8)
    rows = d.window_rows(n, *clamped_interval(d.indexing, window))
    t_lower = 0
    l_lower = 0
    for v, row in rows.items():
        t_lower = max(t_lower, max(abs(w - v) for w, _ in row))
        l_lower = max(l_lower, sum(m for _, m in row))
    exact = False
    bs = d.get_flag(BoundedSizeFlag)
    banded = d.get_flag(BandedFlag)
    if banded is not None:
        exact = banded.width == t_lower and banded.row_sum == l_lower
    elif bs is not None:
        exact = bs.t == t_lower and bs.L == l_lower
    return t_lower, l_lower, exact and bool(rows)


def cone_bound(d: DiagramHandle, v: int, n: int, m: int) -> tuple:
    """Width-bounded forward cone: the interval v +- t(m - n) that the
    row-width bound t licenses at level m, and the exact reachable set
    inside it, walked through the columns, which the width bound lets
    every handle derive from its rows.  A column the walk cannot read
    raises its read error."""
    if m <= n:
        raise ValueError("m must exceed n")
    if d.width is None:
        raise NoBoundedSizeFlagError(f"{d.name} carries no row-width bound")
    total = d.width * (m - n)
    layers = list(forward_layers(d, v, n, m - n))
    if len(layers) <= m - n:
        level = n + len(layers) - 1
        for u in sorted(layers[-1]):
            d.column_support(level, u)
        raise NoBoundedSizeFlagError(
            f"a column at level {level} is not exactly known")
    return (v - total, v + total), sorted(layers[-1])


# --- compactness ---------------------------------------------------------------

def compact_cylinder_check(d: DiagramHandle, c: FinitePath,
                           horizon: int = 64) -> Verdict:
    """Is the cylinder of this prefix compact (finite forward cone at
    every level)?  No when the cone provably reaches a vertex with
    infinitely many outgoing edges.  Yes when the cone repeats a layer at
    a level from which the handle is stationary; any other repeated layer
    proves nothing, so the walk goes on to the horizon."""
    c.validate(d)
    j, ell = c.end_vertex, c.end_level
    if d.width is not None:
        return Verdict.yes(witness={
            "reason": "row-width bound keeps every forward cone finite",
            "t": d.width})
    for inv in find_invariants(d, d.default_window()):
        if inv.kind == TRIANGULAR and inv.is_global and inv.never_ascends \
                and d.indexing.mode == "one_sided":
            return Verdict.yes(witness={
                "reason": "ids never increase along edges; cones stay below "
                          "the prefix end on a one-sided level",
                "certificate": inv.describe()})
    s, layers = d.stationary_from, []
    for cone in forward_layers(d, j, ell, horizon):
        if layers and cone == layers[-1] and s is not None \
                and ell + len(layers) - 1 >= s:
            return Verdict.yes(witness={
                "reason": "forward cone stabilizes",
                "stable_cone": sorted(cone), "at_step": len(layers) - 1,
                "structural_assumptions": ["exact column rule of the family"]})
        layers.append(cone)
    if len(layers) <= horizon:
        # the walk stopped at level ell + k: No when the first column there
        # that is not known finite is known infinite
        k = len(layers) - 1
        for u in sorted(layers[-1]):
            try:
                sup = d.column_support(ell + k, u)
            except GbdError:
                break  # level or vertex outside the declared universe
            if sup is None:
                break
            if not sup.is_finite:
                return Verdict.no(certificate={
                    "reason": "reachable vertex with infinitely many "
                              "outgoing edges",
                    "vertex": u, "level": ell + k, "steps_from_prefix": k})
    return Verdict.unknown(depth=horizon)


# --- classification --------------------------------------------------------------

@dataclass(frozen=True)
class IrreducibilityClass:
    kind: str  # "completely_irreducible" | "relatively_irreducible" | "unknown"
    evidence: dict = field(default_factory=dict)

    @property
    def is_completely(self):
        return self.kind == "completely_irreducible"

    def describe(self):
        from .verdicts import _plain
        return {"classification": self.kind, "evidence": _plain(self.evidence)}


def classify_irreducibility_type(d: DiagramHandle, horizon: int = 64,
                                 window=None) -> IrreducibilityClass:
    """Evidence-based classification of how irreducibility behaves under
    relabeling.

    Completely irreducible: a full-out-column vertex exists per level and
    every window vertex reaches it within the horizon (sufficient
    condition, invariant under relabeling).  Relatively irreducible: a
    compact cylinder exists, or the diagram itself is provably
    reducible.  Otherwise Unknown.
    """
    if window is None:
        window = d.indexing.default_interval(DEFAULT_RADIUS)
    lo, hi = clamped_interval(d.indexing, window)
    reducibility = next((inv for inv in find_invariants(d, d.default_window())
                         if inv.excludes_some_pair), None)

    foc = d.get_flag(FullOutColumnFlag)
    if foc is not None and reducibility is None:
        u = foc.vertex
        # one pass over m serves every window vertex: w's bound is the
        # first m at which w@0 reaches u@m
        pending = set(range(lo, hi + 1))
        first = {}
        for m, _, reach in reach_frontiers(d, 0, range(horizon + 1), lambda m: u):
            for w in pending & reach:
                first[w] = m
            pending -= reach
            if not pending:
                break
        if not pending:
            return IrreducibilityClass("completely_irreducible", {
                "full_out_vertex": u,
                "reach_bounds": {w: first[w] for w in range(lo, hi + 1)},
                "structural_assumptions": [
                    f"FullOutColumnFlag({u}) beyond the verified window"]})

    for prefix in _compactness_battery(d):
        verdict = compact_cylinder_check(d, prefix, horizon)
        if verdict.is_yes:
            return IrreducibilityClass("relatively_irreducible", {
                "compact_cylinder": prefix.describe(),
                "compactness": verdict.describe()})
    if reducibility is not None:
        return IrreducibilityClass("relatively_irreducible", {
            "reducible_via": reducibility.describe()})
    return IrreducibilityClass("unknown", {})


def _compactness_battery(d: DiagramHandle) -> list:
    lo, hi = d.indexing.default_interval(3)
    return [FinitePath(0, v) for v in range(lo, hi + 1)]
