"""Tail-equivalence dynamics: metric, orbits, cylinders, minimality.

The orbit of x visits the cylinder of a prefix c exactly when some level
m admits a finite path from the prefix's end vertex to the generator's
trace vertex at m.  Yes verdicts carry that connecting path.  No
verdicts need the trace separated from the cylinder at *every* level:
a globally backed invariant plus a certified eventual-linear trace turn
that into finitely many exact checks plus a per-residue slope
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .diagram import (
    DEFAULT_DEPTH,
    DEFAULT_HORIZON,
    DEFAULT_RADIUS,
    DiagramHandle,
    FullOutColumnFlag,
)
from .errors import GbdError, InvalidEdgeError
from .generators import EventualTrace, PathGenerator, cylinder_at
from .paths import (
    Edge,
    FinitePath,
    backward_reach_set,
    count_paths,
    first_reach,
    forward_step,
)
from .verdicts import CONE, Verdict, find_invariants, reverify
from .windows import clamped_interval


# --- metric and tail equivalence ----------------------------------------------

def _edge_or_none(obj, m: int) -> Optional[Edge]:
    if isinstance(obj, FinitePath):
        return obj.edges[m] if m < len(obj.edges) else None
    return obj.edge_at(m)


def metric_dist(x, y) -> Fraction:
    """1 / 2^N with N the first disagreeing edge index; 0 when the paths
    agree on every compared index below DEFAULT_HORIZON."""
    for m in range(DEFAULT_HORIZON):
        ex, ey = _edge_or_none(x, m), _edge_or_none(y, m)
        if ex is None or ey is None:
            break
        if ex != ey:
            return Fraction(1, 2 ** m)
    return Fraction(0)


def _traces_eventually_equal(ex: EventualTrace, ey: EventualTrace):
    """(equal_forever, differ_infinitely) beyond both eventual starts."""
    if not (ex.certified and ey.certified):
        return None, None
    if ex.step * ey.period != ey.step * ex.period:
        return False, True  # distinct slopes: equal at most finitely often
    q = math.lcm(ex.period, ey.period)
    start = max(ex.start, ey.start)
    same = [ex.value(m) == ey.value(m) for m in range(start, start + q)]
    # equal slopes: each residue class either agrees forever or differs
    # forever, so one differing class already recurs unboundedly
    return all(same), not all(same)


def tail_equivalent(x: PathGenerator, y: PathGenerator) -> Verdict:
    """Do the two paths share all edges from some level on?"""
    last_diff = -1
    for m in range(DEFAULT_HORIZON):
        if _edge_or_none(x, m) != _edge_or_none(y, m):
            last_diff = m
    ex, ey = x.eventual(), y.eventual()
    if ex is not None and ey is not None:
        equal_forever, differ_infinitely = _traces_eventually_equal(ex, ey)
        if equal_forever and last_diff < DEFAULT_HORIZON - 1:
            return Verdict.yes(witness=last_diff + 1,
                               agreement_level=last_diff + 1)
        if differ_infinitely:
            return Verdict.no(certificate={
                "reason": "eventual traces provably differ at unboundedly "
                          "many levels",
                "x": x.describe(), "y": y.describe()})
    return Verdict.unknown(depth=DEFAULT_HORIZON)


# --- orbit probes ---------------------------------------------------------------

def orbit_visits_cylinder(d: DiagramHandle, x: PathGenerator, c: FinitePath,
                          depth: int = DEFAULT_DEPTH) -> Verdict:
    """Does the tail-equivalence orbit of x meet the cylinder of prefix c?"""
    c.validate(d)
    j, ell = c.end_vertex, c.end_level
    q = (_recheck_visit, x, c)

    def first_visit(levels) -> Optional[Verdict]:
        hit = first_reach(d, j, ell, levels, x.vertex_at)
        if hit is None:
            return None
        m, connecting = hit
        x.validate_to(m + 1)
        return Verdict.yes(witness={"level": m, "connecting_path": connecting,
                                    "cylinder": c}, question=q)

    found = first_visit(range(ell + 1, ell + depth + 1))
    if found is not None:
        return found

    ev = x.eventual()
    if ev is not None and ev.certified:
        # cone first: it names the t-rule and matches the slanting-set
        # picture; a clopen or non-global invariant separates nothing
        invs = find_invariants(d, d.default_window())
        for inv in sorted(invs, key=lambda i: i.kind != CONE):
            M = inv.separation_level(j, ell, ev)
            if M is None:
                continue
            # levels up to ell + depth were searched above
            found = first_visit(range(ell + depth + 1, M))
            if found is not None:
                return found
            # the No speaks of x as a path through every level it rests on
            x.validate_to(max(ell + depth, M) + 1)
            return Verdict.no(certificate=inv, question=q,
                              separated_from_level=M,
                              generator=x.describe(),
                              cylinder=c.describe())
    return Verdict.unknown(depth=depth, question=q)


def _recheck_visit(d: DiagramHandle, v: Verdict, x: PathGenerator,
                   c: FinitePath):
    if v.is_yes:
        m = v.witness["level"]
        full = list(c.edges) + list(v.witness["connecting_path"].edges)
        chain = FinitePath(0, c.start_vertex, tuple(full))
        chain.check_ends((c.start_vertex, 0), (x.vertex_at(m), m))
        chain.validate(d)
        return "prefix + connecting path re-validated as one chain"
    if v.is_no:
        M = _separation(d, v.certificate, c.end_vertex, c.end_level, x)
        ok = M is not None and M == v.detail["separated_from_level"]
        return f"certificate re-verified: {ok}"


def _separation(d: DiagramHandle, inv, j: int, ell: int,
                x: PathGenerator) -> Optional[int]:
    """The level from which inv, found again from the rows, separates x's
    trace from j@ell; None when it is not found again or separates nothing."""
    return inv.separation_level(j, ell, x.eventual()) if reverify(d, inv) else None


def _cylinders_at(d: DiagramHandle, length: int, v: int):
    """Yield the cylinder prefixes of the given length that end at v, depth
    first backward from the end, last source and last copy first."""
    stack = [(length, v, ())]
    while stack:
        lvl, at, acc = stack.pop()
        if lvl == 0:
            yield FinitePath(0, at, acc)
            continue
        for w, mult in d.row(lvl - 1, at):
            for copy in range(mult):
                stack.append((lvl - 1, w,
                              (Edge(lvl - 1, w, at, copy),) + acc))


def _count_cylinders(d: DiagramHandle, length: int, v: int) -> int:
    """How many prefixes `_cylinders_at` yields, counted exactly without
    building them.  A depth-first pass reads each (level, vertex) pair's
    row once, in the order the listing first reads it, so a failing row
    raises what the listing would raise; a pass by ascending level then
    sums mult * count over each row, a level-0 vertex counting 1."""
    rows = {}
    stack = [(length, v)]
    while stack:
        lvl, at = node = stack.pop()
        if lvl > 0 and node not in rows:
            rows[node] = d.row(lvl - 1, at)
            stack.extend((lvl - 1, w) for w, _ in rows[node])
    count = {}
    for lvl, at in sorted(rows):
        count[lvl, at] = sum(mult * (count[lvl - 1, w] if lvl > 1 else 1)
                             for w, mult in rows[lvl, at])
    return count[length, v] if length else 1


def cylinders_ending_in(d: DiagramHandle, length: int, window) -> list:
    """All cylinder prefixes of the given length whose end vertex lies in
    the window, by end vertex ascending; enumeration is backward from the
    end, hence exhaustive."""
    lo, hi = d.indexing.clamp(*window)
    return [c for v in range(lo, hi + 1) for c in _cylinders_at(d, length, v)]


def transitivity_probe(d: DiagramHandle, x: PathGenerator, cyl_depth: int = 3,
                       window=None, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Evidence of orbit density at this cylinder resolution.

    Yes when every cylinder of length <= cyl_depth ending inside the
    window is visited; a No on any single cylinder proves this orbit is
    not dense (it does not by itself make the diagram non-transitive).

    Whether the orbit visits a cylinder depends only on the cylinder's
    end vertex and end level, so one verdict is asked per endpoint j@length,
    on the first cylinder `cylinders_ending_in` lists there, and the
    cylinders ending at j@length are counted exactly, not built.  The
    verdict, the No witness cylinder and the counts are those of a check
    of every cylinder in listing order.
    """
    if cyl_depth < 0:
        raise ValueError("cyl_depth must be >= 0")
    if window is None:
        window = d.indexing.default_interval(8)
    lo, hi = clamped_interval(d.indexing, window)
    ends = range(lo, hi + 1)
    q = (_recheck_transitive, x)
    unknowns = 0
    checked = 0
    for length in range(cyl_depth + 1):
        # every endpoint is counted before any verdict at this length, as
        # the full listing read all of its rows first
        counts = [_count_cylinders(d, length, j) for j in ends]
        for j, n in zip(ends, counts):
            c = next(_cylinders_at(d, length, j))
            v = orbit_visits_cylinder(d, x, c, depth)
            if v.is_no:
                return Verdict.no(certificate=v.certificate, question=q,
                                  witness_cylinder=c.describe(),
                                  cylinders_checked=checked + 1)
            checked += n
            if v.is_unknown:
                unknowns += n
    if unknowns:
        return Verdict.unknown(depth=depth, windows=window, question=q,
                               unknown_cylinders=unknowns)
    return Verdict.yes(witness={"cylinders_checked": checked,
                                "cyl_depth": cyl_depth, "window": list(window)},
                       question=q)


def _recheck_transitive(d: DiagramHandle, v: Verdict, x: PathGenerator):
    if v.is_yes:
        # each cylinder ending at j@length is one path into j@length from
        # level 0, so the count is re-derived from the forward path counts
        w = v.witness
        lo, hi = clamped_interval(d.indexing, w["window"])
        total = sum(count_paths(d, s, 0, j, length)
                    for length in range(w["cyl_depth"] + 1)
                    for j in range(lo, hi + 1)
                    for s in backward_reach_set(d, j, length, 0))
        ok = total == w["cylinders_checked"]
        return f"cylinders re-counted from path counts: {ok}"
    if v.is_no:
        c = FinitePath.from_description(v.detail["witness_cylinder"])
        c.validate(d)
        ok = _separation(d, v.certificate, c.end_vertex, c.end_level, x) is not None
        # short enough that the report keeps it on one line
        return f"witness cylinder re-validated; certificate re-verified: {ok}"


# --- minimality -----------------------------------------------------------------

def _forced_hit_bound(d: DiagramHandle, w: int, u: int, n0: int,
                      horizon: int) -> Optional[int]:
    """Least b such that every path from w@n0 visits u within b steps,
    by exact forward stepping; None when not forced within the horizon
    or when some needed column is not exactly known."""
    if w == u:
        return 0
    frontier = {w}
    for k in range(1, horizon + 1):
        frontier = forward_step(d, n0 + k - 1, frontier)
        if frontier is None:
            return None
        frontier.discard(u)
        if not frontier:
            return k
    return None


def _generator_battery(d: DiagramHandle) -> list:
    """Small deterministic family of generators for obstruction search:
    vertical loops at the radius-6 window's vertices, two off the
    full-out columns and one on them, then both slants from the center.
    A candidate counts only when it is a path through DEFAULT_DEPTH + 1
    levels."""
    def path(kind, v):
        try:
            g = PathGenerator(d, kind, {"vertex": v})
            g.validate_to(DEFAULT_DEPTH + 1)
        except GbdError:
            return None
        return g

    hub = {f.vertex for f in d.get_flags(FullOutColumnFlag)}
    rows = d.window_rows(0, *d.indexing.default_interval(6))
    loops = [v for v in sorted(rows, key=lambda t: (abs(t), t))
             if any(w == v for w, _ in rows[v])]
    verticals = [(v, g) for v in loops if (g := path("vertical", v)) is not None]
    center = d.indexing.base + 1 if d.indexing.mode == "one_sided" else 0
    slants = [path(kind, center) for kind in ("rightmost_slant", "leftmost_slant")]
    return [g for v, g in verticals if v not in hub][:2] \
        + [g for v, g in verticals if v in hub][:1] \
        + [g for g in slants if g is not None]


def minimality_certificate(d: DiagramHandle, horizon: int | None = None,
                           window=None) -> Verdict:
    """Minimality evidence for the tail equivalence relation.

    Yes: a full-out-column vertex u that every window vertex is *forced*
    to hit within a bound (every path, not just some).  No: a battery
    generator whose orbit provably misses a cylinder.  Anything else is
    Unknown; no unverifiable claim is emitted.
    """
    if window is None:
        window = d.indexing.default_interval(DEFAULT_RADIUS)
    lo, hi = clamped_interval(d.indexing, window)
    if horizon is None:
        horizon = max(64, 2 * (window[1] - window[0]) + 2)
    q = (_recheck_minimal, lo, hi)
    foc = d.get_flag(FullOutColumnFlag)
    if foc is not None:
        u = foc.vertex
        if d.entry(0, u, u) > 0:  # vertical continuation available at u
            bounds = {}
            ok = True
            for w in range(lo, hi + 1):
                b = _forced_hit_bound(d, w, u, 0, horizon)
                if b is None:
                    ok = False
                    break
                bounds[w] = b
            if ok:
                return Verdict.yes(question=q, witness={
                    "distinguished_vertex": u,
                    "forced_bounds": bounds,
                    "step_bound": max(bounds.values(), default=0),
                    "structural_assumptions": [
                        f"FullOutColumnFlag({u}) beyond the verified window",
                        "forced bounds asserted for window vertices only"]})
    for g in _generator_battery(d):
        start = g.vertex_at(0)
        for j0 in (start - 1, start + 1):
            if not d.indexing.contains(j0):
                continue
            try:
                v = orbit_visits_cylinder(d, g, cylinder_at(d, j0))
            except GbdError:  # past a spec's declared levels, or off its edges
                continue
            if v.is_no:  # the question gains the generator asked about
                return Verdict.no(certificate=v.certificate, question=q + (g,),
                                  witness={"generator": g.describe(),
                                           "missed_cylinder_vertex": j0})
    return Verdict.unknown(depth=horizon, windows=window, question=q)


def _recheck_minimal(d: DiagramHandle, v: Verdict, lo: int, hi: int,
                     g: Optional[PathGenerator] = None):
    if v.is_yes:
        # a bound b is the least one exactly when a walk of b steps finds it
        u, bounds = v.witness["distinguished_vertex"], v.witness["forced_bounds"]
        ok = sorted(bounds) == list(range(lo, hi + 1)) and \
            all(_forced_hit_bound(d, w, u, 0, b) == b for w, b in bounds.items())
        return f"forced bounds re-walked: {ok}"
    if v.is_no:
        j0 = v.detail["witness"]["missed_cylinder_vertex"]
        ok = _separation(d, v.certificate, j0, 0, g) is not None
        return f"certificate re-verified: {ok}"


# --- trace structure ---------------------------------------------------------

def trace_trisection(x: PathGenerator, levels: int, window) -> tuple:
    """Per-level split of window vertices into on-trace, left, right."""
    on, left, right = {}, {}, {}
    lo, hi = x.d.indexing.clamp(*window)
    for n in range(levels + 1):
        s = x.vertex_at(n)
        on[n] = [s] if lo <= s <= hi else []
        left[n] = [w for w in range(lo, hi + 1) if w < s]
        right[n] = [w for w in range(lo, hi + 1) if w > s]
    return on, left, right


def classify_edge(d: DiagramHandle, edge: Edge) -> str:
    """'vertical' when source and target share the same index, else 'slanted'."""
    mult = d.entry(edge.level, edge.target, edge.source)
    if edge.copy >= mult:
        raise InvalidEdgeError(f"edge {edge} does not exist")
    return "vertical" if edge.source == edge.target else "slanted"
