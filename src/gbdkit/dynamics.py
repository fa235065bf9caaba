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
from .paths import Edge, FinitePath, first_reach
from .verdicts import (
    CONE,
    RESIDUE,
    TRIANGULAR,
    NonReachInvariant,
    Verdict,
    find_invariants,
)
from .windows import clamped_interval


# --- metric and tail equivalence ----------------------------------------------

def _edge_or_none(obj, m: int) -> Optional[Edge]:
    if isinstance(obj, FinitePath):
        return obj.edges[m] if m < len(obj.edges) else None
    return obj.edge_at(m)


def metric_dist(x, y, horizon: int = DEFAULT_HORIZON) -> Fraction:
    """1 / 2^N with N the first disagreeing edge index; 0 when the paths
    agree on every compared index up to the horizon."""
    for m in range(horizon):
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
    import math
    q = math.lcm(ex.period, ey.period)
    start = max(ex.start, ey.start)
    same = [ex.value(m) == ey.value(m) for m in range(start, start + q)]
    # equal slopes: each residue class either agrees forever or differs
    # forever, so one differing class already recurs unboundedly
    return all(same), not all(same)


def tail_equivalent(x: PathGenerator, y: PathGenerator,
                    horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Do the two paths share all edges from some level on?"""
    last_diff = -1
    for m in range(horizon):
        if _edge_or_none(x, m) != _edge_or_none(y, m):
            last_diff = m
    ex, ey = x.eventual(horizon), y.eventual(horizon)
    if ex is not None and ey is not None:
        equal_forever, differ_infinitely = _traces_eventually_equal(ex, ey)
        if equal_forever and last_diff < horizon - 1:
            return Verdict.yes(witness=last_diff + 1,
                               agreement_level=last_diff + 1)
        if differ_infinitely:
            return Verdict.no(certificate={
                "reason": "eventual traces provably differ at unboundedly "
                          "many levels",
                "x": x.describe(), "y": y.describe()})
    return Verdict.unknown(depth=horizon)


# --- orbit probes ---------------------------------------------------------------

def _global_invariants(d: DiagramHandle):
    window = d.default_window()
    invs = [inv for inv in find_invariants(d, window, (TRIANGULAR, RESIDUE, CONE),
                                           include_slope_only=True)
            if inv.is_global]
    # width bounds first: where both apply, the cone certificate is sharper
    # to read (it names the t-rule) and matches the slanting-set picture
    invs.sort(key=lambda i: 0 if i.kind == CONE else 1)
    return invs


def _eternal_separation(inv: NonReachInvariant, j: int, ell: int,
                        ev: EventualTrace) -> Optional[int]:
    """Least M with inv excluding (j@ell -> trace(m)@m) for every m >= M."""
    if not (inv.is_global and ev.certified):
        return None
    q = ev.period
    M0 = max(ev.start, ell + 1)

    def first_m(r: int) -> int:
        m = M0
        while (m - ev.start) % q != r:
            m += 1
        return m

    if inv.kind == TRIANGULAR:
        direction, c = inv.params
        for r in range(q):
            m0 = first_m(r)
            # reachable ids after k steps are >= j - c*k (lower) or <= j - c*k (upper)
            bound0 = j - c * (m0 - ell)
            f0 = ev.value(m0) - bound0
            slope = ev.step + c * q
            ok = (slope <= 0 and f0 < 0) if direction == "lower" \
                else (slope >= 0 and f0 > 0)
            if not ok:
                return None
        return M0
    if inv.kind == CONE:
        (t,) = inv.params
        for r in range(q):
            m0 = first_m(r)
            below0 = ev.value(m0) - (j - t * (m0 - ell))
            above0 = ev.value(m0) - (j + t * (m0 - ell))
            below_ok = ev.step + t * q <= 0 and below0 < 0
            above_ok = ev.step - t * q >= 0 and above0 > 0
            if not (below_ok or above_ok):
                return None
        return M0
    if inv.kind == RESIDUE:
        p, a = inv.params
        target = (j + a * ell) % p
        for r in range(q):
            m0 = first_m(r)
            step = (ev.step + a * q) % p
            attained = {(ev.value(m0) + a * m0 + k * step) % p for k in range(p)}
            if target in attained:
                return None
        return M0
    return None


def orbit_visits_cylinder(d: DiagramHandle, x: PathGenerator, c: FinitePath,
                          depth: int = DEFAULT_DEPTH,
                          horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Does the tail-equivalence orbit of x meet the cylinder of prefix c?"""
    c.validate(d)
    j, ell = c.end_vertex, c.end_level

    def first_visit(levels) -> Optional[Verdict]:
        hit = first_reach(d, j, ell, levels, x.vertex_at)
        if hit is None:
            return None
        m, connecting = hit
        x.validate_to(m + 1)
        return Verdict.yes(witness={"level": m, "connecting_path": connecting,
                                    "cylinder": c})

    found = first_visit(range(ell + 1, ell + depth + 1))
    if found is not None:
        return found

    ev = x.eventual(horizon)
    if ev is not None and ev.certified:
        for inv in _global_invariants(d):
            M = _eternal_separation(inv, j, ell, ev)
            if M is None:
                continue
            # levels up to ell + depth were searched above
            found = first_visit(range(ell + depth + 1, M))
            if found is not None:
                return found
            return Verdict.no(certificate=inv,
                              separated_from_level=M,
                              generator=x.describe(),
                              cylinder=c.describe())
    return Verdict.unknown(depth=depth)


def cylinders_ending_in(d: DiagramHandle, length: int, window) -> list:
    """All cylinder prefixes of the given length whose end vertex lies in
    the window; enumeration is backward from the end, hence exhaustive."""
    lo, hi = d.indexing.clamp(*window)
    out = []
    for v in range(lo, hi + 1):
        stack = [(length, v, ())]
        while stack:
            lvl, at, acc = stack.pop()
            if lvl == 0:
                out.append(FinitePath(0, at, acc))
                continue
            for w, mult in d.in_edges(lvl - 1, at):
                for copy in range(mult):
                    stack.append((lvl - 1, w,
                                  (Edge(lvl - 1, w, at, copy),) + acc))
    return out


def transitivity_probe(d: DiagramHandle, x: PathGenerator, cyl_depth: int = 3,
                       window=None, depth: int = DEFAULT_DEPTH) -> Verdict:
    """Evidence of orbit density at this cylinder resolution.

    Yes when every cylinder of length <= cyl_depth ending inside the
    window is visited; a No on any single cylinder proves this orbit is
    not dense (it does not by itself make the diagram non-transitive).
    """
    if window is None:
        window = d.indexing.default_interval(8)
    unknowns = 0
    checked = 0
    for length in range(cyl_depth + 1):
        for c in cylinders_ending_in(d, length, window):
            checked += 1
            v = orbit_visits_cylinder(d, x, c, depth)
            if v.is_no:
                return Verdict.no(certificate=v.certificate,
                                  witness_cylinder=c.describe(),
                                  cylinders_checked=checked)
            if v.is_unknown:
                unknowns += 1
    if unknowns:
        return Verdict.unknown(depth=depth, windows=window,
                               unknown_cylinders=unknowns)
    return Verdict.yes(witness={"cylinders_checked": checked,
                                "cyl_depth": cyl_depth, "window": list(window)})


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
        nxt = set()
        for v in frontier:
            try:
                out = d.out_edges_exact(n0 + k - 1, v)
            except GbdError:
                return None
            if out is None:
                return None
            nxt.update(tgt for tgt, _ in out)
        nxt.discard(u)
        if not nxt:
            return k
        frontier = nxt
    return None


def _generator_battery(d: DiagramHandle, radius: int = 6) -> list:
    """Small deterministic family of generators for obstruction search."""
    gens = []
    hub = {f.vertex for f in d.get_flags(FullOutColumnFlag)}
    rows = d.window_rows(0, *d.indexing.default_interval(radius))
    loops = [v for v in sorted(rows, key=lambda t: (abs(t), t))
             if any(w == v for w, _ in rows[v])]
    loops = [v for v in loops if v not in hub][:2] + [v for v in loops if v in hub][:1]
    for v in loops:
        gens.append(PathGenerator(d, "vertical", {"vertex": v}))
    center = d.indexing.base + 1 if d.indexing.mode == "one_sided" else 0
    for kind in ("rightmost_slant", "leftmost_slant"):
        try:
            g = PathGenerator(d, kind, {"vertex": center})
            g.vertex_at(4)
            gens.append(g)
        except GbdError:
            pass
    return gens


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
                return Verdict.yes(witness={
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
            v = orbit_visits_cylinder(d, g, cylinder_at(d, j0))
            if v.is_no:
                return Verdict.no(certificate=v.certificate,
                                  witness={"generator": g.describe(),
                                           "missed_cylinder_vertex": j0})
    return Verdict.unknown(depth=horizon, windows=window)


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
