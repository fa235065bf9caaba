"""Certified structural analysis: irreducibility, period, connectedness,
bounded-size geometry, compactness, and the irreducibility-type
classification.

Positive verdicts carry a finite witness re-checkable by path counting;
negative verdicts carry a window-verified invariant backed by a
structural flag; everything else is Unknown at the searched depth.
"""

from __future__ import annotations

import math
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
from .paths import FinitePath, backward_reach_set, first_reach, reach_frontiers
from .verdicts import (
    ALL_KINDS,
    CLOPEN,
    CONE,
    RESIDUE,
    TRIANGULAR,
    NonReachInvariant,
    Verdict,
    find_invariants,
    residue_coloring,
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


def invariant_certificate(d: DiagramHandle, window: LevelWindow | None = None,
                          kinds=ALL_KINDS) -> list:
    """All window-verified non-reachability invariants of the requested kinds."""
    if window is None:
        window = d.default_window()
    return find_invariants(d, window, kinds)


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
    nodes = []
    for n in window.levels:
        if n > levels:
            continue
        lo, hi = d.indexing.clamp(*window.interval(n))
        nodes.extend((n, v) for v in range(lo, hi + 1))
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    # a vertex without a declared row stays isolated, so it blocks a Yes
    node_set = set(nodes)
    for n in window.levels:
        if 0 < n <= levels and d.level_known(n - 1):
            for v, row in d.window_rows(n - 1, *window.interval(n)).items():
                for w, _ in row:
                    if (n - 1, w) in node_set:
                        union((n, v), (n - 1, w))
    roots = {find(x) for x in nodes}
    if len(roots) == 1:
        return Verdict.yes(witness={"vertices": len(nodes),
                                    "levels": min(levels, window.max_level)})
    for inv in find_invariants(d, window, (CLOPEN,)):
        if not inv.is_global:
            continue
        coloring = residue_coloring(inv, window)
        classes = {coloring[(n, v)] for n, v in nodes}
        if len(classes) > 1:
            return Verdict.no(certificate=inv,
                              classes={str(k): sum(1 for x in nodes
                                                   if coloring[x] == k)
                                       for k in classes})
    return Verdict.unknown(windows=window, components=len(roots))


def period_of_index(d: DiagramHandle, i: int, horizon: int = 8):
    """gcd of return-path lengths from i back to i, with the lengths found."""
    if not d.stationary:
        raise NotStationaryError("period is defined for stationary diagrams")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    lengths = [m for m, _, reach in reach_frontiers(d, 0, range(1, horizon + 1),
                                                     lambda m: i)
               if i in reach]
    if not lengths:
        return None, []
    return math.gcd(*lengths), lengths


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
    elif bs is not None and bs.t_rule.kind == "const":
        exact = (bs.t_rule.value == t_lower and bs.l_rule is not None
                 and bs.l_rule.kind == "const" and bs.l_rule.value == l_lower)
    return t_lower, l_lower, exact and bool(rows)


def cone_bound(d: DiagramHandle, v: int, n: int, m: int) -> tuple:
    """Width-bounded forward cone: the interval the t-rule licenses at
    level m, and the exact reachable set inside it."""
    if m <= n:
        raise ValueError("m must exceed n")
    t_rule = d.t_rule()
    if t_rule is None:
        raise NoBoundedSizeFlagError(f"{d.name} carries no row-width bound")
    d.indexing.check(v)
    total = t_rule.partial_sum(n, m)
    lo, hi = d.indexing.clamp(v - total, v + total)
    reach = sorted(u for u in range(lo, hi + 1)
                   if v in backward_reach_set(d, u, m, n))
    return (v - total, v + total), reach


def slanting_membership(d: DiagramHandle, prefix: FinitePath, w: int,
                        side: str) -> bool:
    """Necessary condition for extensions of the prefix to stay in the
    one-sided slanting set anchored at w: every covered range vertex
    clears w by the accumulated width bound."""
    t_rule = d.t_rule()
    if t_rule is None:
        raise NoBoundedSizeFlagError(f"{d.name} carries no row-width bound")
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    prefix.validate(d)
    if side == "+":
        if prefix.start_vertex < w:
            return False
        return all(e.target >= w + t_rule.partial_sum(0, k + 1)
                   for k, e in enumerate(prefix.edges))
    if prefix.start_vertex > w:
        return False
    return all(e.target <= w - t_rule.partial_sum(0, k + 1)
               for k, e in enumerate(prefix.edges))


# --- compactness and full-out columns -----------------------------------------

def compact_cylinder_check(d: DiagramHandle, c: FinitePath,
                           horizon: int = 64) -> Verdict:
    """Is the cylinder of this prefix compact (finite forward cone at
    every level)?  No when the cone provably reaches a vertex with
    infinitely many outgoing edges."""
    c.validate(d)
    j, ell = c.end_vertex, c.end_level
    if d.t_rule() is not None:
        return Verdict.yes(witness={
            "reason": "row-width bound keeps every forward cone finite",
            "t": d.t_rule()(ell)})
    for inv in find_invariants(d, d.default_window(), (TRIANGULAR,)):
        if inv.is_global and inv.params[0] == "upper" and inv.params[1] >= 0 \
                and d.indexing.mode == "one_sided":
            return Verdict.yes(witness={
                "reason": "ids never increase along edges; cones stay below "
                          "the prefix end on a one-sided level",
                "certificate": inv.describe()})
    cone = {j}
    seen_unknown = False
    for k in range(horizon):
        nxt = set()
        for u in sorted(cone):
            try:
                sup = d.column_support(ell + k, u)
            except GbdError:
                sup = None  # level or vertex outside the declared universe
            if sup is None:
                seen_unknown = True
                break
            if not sup.is_finite:
                return Verdict.no(certificate={
                    "reason": "reachable vertex with infinitely many "
                              "outgoing edges",
                    "vertex": u, "level": ell + k, "steps_from_prefix": k})
            nxt.update(t for t, _ in sup.entries)
        if seen_unknown:
            break
        if nxt == cone:
            return Verdict.yes(witness={
                "reason": "forward cone stabilizes",
                "stable_cone": sorted(cone), "at_step": k,
                "structural_assumptions": ["exact column rule of the family"]})
        cone = nxt
    return Verdict.unknown(depth=horizon)


def full_out_row_check(d: DiagramHandle, levels: int = 4,
                       window: LevelWindow | None = None) -> Verdict:
    """Per level: is there a vertex whose edges cover the whole next level?"""
    if window is None:
        window = d.default_window(levels + 1)
    focs = d.get_flags(FullOutColumnFlag)
    if focs:
        witness = {}
        for n in range(levels + 1):
            lo, hi = d.indexing.clamp(*window.interval(min(n + 1, window.max_level)))
            rows = d.window_rows(n, lo, hi)
            # a target without a declared row is not covered
            sources = [{w for w, _ in rows.get(v, ())} for v in range(lo, hi + 1)]
            covered = next((f.vertex for f in focs
                            if all(f.vertex in s for s in sources)), None)
            if covered is None:
                return Verdict.unknown(depth=levels, windows=window)
            witness[n] = covered
        return Verdict.yes(witness={"full_out_vertex_per_level": witness})
    banded = d.get_flag(BandedFlag)
    if banded is not None or d.t_rule() is not None:
        return Verdict.no(certificate={
            "reason": "bounded out-degree cannot cover an infinite level",
            "out_degree_bound": (len(banded.offsets) if banded is not None
                                 else 2 * d.t_rule()(0) + 1)})
    return Verdict.unknown(depth=levels, windows=window)


# --- classification --------------------------------------------------------------

@dataclass(frozen=True)
class IrreducibilityClass:
    kind: str  # "completely_irreducible" | "relatively_irreducible" | "unknown"
    evidence: dict = field(default_factory=dict)

    @property
    def is_completely(self):
        return self.kind == "completely_irreducible"

    @property
    def is_relatively(self):
        return self.kind == "relatively_irreducible"

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
    invs = [inv for inv in find_invariants(d, d.default_window()) if inv.is_global]
    reducibility = next((inv for inv in invs if _has_excluding_power(d, inv)), None)

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


def _has_excluding_power(d: DiagramHandle, inv: NonReachInvariant) -> bool:
    if inv.kind == TRIANGULAR:
        direction, c = inv.params
        if direction == "lower" and c <= 0:
            # needs a pair (i, j), j < i - c, inside the index set
            return True
        if direction == "upper" and c >= 0:
            return True
        return False
    if inv.kind == RESIDUE:
        p, a = inv.params
        return math.gcd(a % p, p) > 1
    if inv.kind == CONE:
        return inv.params[0] == 0
    return False


def _compactness_battery(d: DiagramHandle) -> list:
    lo, hi = d.indexing.default_interval(3)
    return [FinitePath(0, v) for v in range(lo, hi + 1)]
