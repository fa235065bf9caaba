from fractions import Fraction

import pytest

from gbdkit import (
    Edge,
    GbdError,
    FinitePath,
    InvalidEdgeError,
    InvariantError,
    LevelRule,
    alternating_from,
    classify_edge,
    climbing,
    cone_shift,
    count_paths,
    cylinder_at,
    cylinders_ending_in,
    eventually_vertical,
    identity,
    leftmost_slant_from,
    level_shift,
    load_spec,
    make_diagram,
    make_generator,
    metric_dist,
    minimality_certificate,
    orbit_visits_cylinder,
    prefix_from_trace,
    pushed_generator,
    relabel,
    tail_equivalent,
    trace_trisection,
    transitivity_probe,
    vertical_from,
)
from gbdkit.dynamics import _generator_battery

from conftest import NAMES
from test_sweep_reuse import explicit_error_beyond


# --- generators ------------------------------------------------------------------

def test_generator_traces():
    o2 = make_diagram("odometer_two_sided")
    alt = alternating_from(o2, 0)
    assert [alt.vertex_at(m) for m in range(6)] == [0, 0, -1, -1, -2, -2]
    assert alt.vertex_at(2) == alt.vertex_at(3) == -1
    sl = leftmost_slant_from(o2, 0)
    assert [sl.vertex_at(m) for m in range(4)] == [0, -1, -2, -3]
    bi = make_diagram("b_infinity")
    up = climbing(bi, 1)
    assert [up.vertex_at(m) for m in range(5)] == [1, 2, 3, 4, 5]
    assert vertical_from(bi, 5).vertex_at(100) == 5


def test_concurrent_vertex_at_extends_the_trace_once_per_level(monkeypatch):
    import threading
    import time

    o2 = make_diagram("odometer_two_sided")
    expected = [alternating_from(o2, 0).vertex_at(m) for m in range(40)]
    x = alternating_from(o2, 0)
    step = x._next_vertex

    def slow_step(m, v):  # widens the window between reading and extending
        time.sleep(0.001)
        return step(m, v)

    monkeypatch.setattr(x, "_next_vertex", slow_step)
    threads = [threading.Thread(target=x.vertex_at, args=(39,)) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert [x.vertex_at(m) for m in range(40)] == expected


def test_generator_validates_lazily():
    p1 = make_diagram("parity_1")  # no vertical edges at all
    x = vertical_from(p1, 0)
    assert x.vertex_at(3) == 0  # trace evaluation alone is fine
    with pytest.raises(InvalidEdgeError):
        x.edge_at(0)


def test_eventual_certificates():
    o2 = make_diagram("odometer_two_sided")
    ev = leftmost_slant_from(o2, 3).eventual(64)
    assert ev.certified and ev.step == -1 and ev.period == 1
    ev = alternating_from(o2, 0).eventual(64)
    assert ev.certified and (ev.period, ev.step) == (2, -1)
    rs = make_diagram("renewal_shift")
    ev = leftmost_slant_from(rs, 5).eventual(64)
    assert ev.certified and ev.step == 0  # absorbed at the hub vertex
    bi = make_diagram("b_infinity")
    ev = climbing(bi, 1).eventual(64)
    assert ev is not None and not ev.certified  # no translation structure


def test_table_then_rule():
    rs = make_diagram("renewal_shift")
    g = make_generator(rs, "table_then_rule", table=[4, 3, 2, 1],
                       tail={"kind": "vertical"})
    assert [g.vertex_at(m) for m in range(6)] == [4, 3, 2, 1, 1, 1]
    g.validate_to(10)


def test_table_then_rule_tail_vertex_must_be_the_table_end():
    rs = make_diagram("renewal_shift")
    with pytest.raises(InvariantError, match="tail vertex 7 differs from the "
                                             "table's last vertex 1"):
        make_generator(rs, "table_then_rule", table=[3, 2, 1],
                       tail={"kind": "vertical", "vertex": 7})
    for tail in ({"kind": "vertical", "vertex": 1}, {"kind": "vertical"}):
        g = make_generator(rs, "table_then_rule", table=[3, 2, 1], tail=tail)
        assert [g.vertex_at(m) for m in range(5)] == [3, 2, 1, 1, 1]
        assert g.validate_to(8)


def test_table_then_rule_reads_the_tail_at_the_true_level():
    # a non-stationary relabeling: the slant's column depends on the level
    d = relabel(make_diagram("tridiag_B"),
                cone_shift(LevelRule("table", 1, (0, 1, 2, 0, 3))))
    g = make_generator(d, "table_then_rule", table=[0, 0, 0],
                       tail={"kind": "leftmost_slant"})
    assert g.validate_to(8)
    for m in range(2, 8):
        assert g.vertex_at(m + 1) == d.column_support(m, g.vertex_at(m)).entries[0][0]


@pytest.mark.parametrize("kind", ["leftmost_slant", "rightmost_slant", "climbing"])
def test_generator_on_an_empty_column_raises_invariant_error(kind):
    # vertex 1 feeds nothing: the width flag leaves it targets 0..2 only,
    # and none of their rows holds it
    d = load_spec({"indexing": {"mode": "one_sided", "base": 0},
                   "levels": [{0: {0: 1}, 1: {0: 1}, 2: {2: 1}}],
                   "extension": "repeat_last",
                   "flags": [{"kind": "bounded_size", "t": 1}]})
    g = make_generator(d, kind, vertex=1)
    with pytest.raises(InvariantError, match="vertex 1, level 0"):
        g.vertex_at(1)


def reference_eventual(x, horizon):
    """The quadratic scan `PathGenerator.eventual` replaced, kept as the
    reference: (start, period, step, base_vertices) or None."""
    trace = [x.vertex_at(m) for m in range(horizon + 2)]
    for q in (1, 2):
        for start in range(0, horizon // 2):
            step = trace[start + q] - trace[start]
            if all(trace[m + q] - trace[m] == step
                   for m in range(start, horizon + 2 - q)):
                return start, q, step, tuple(trace[start:start + q])
    return None


def eventual_cases():
    tables = [[3, 2], [5, 1, 4, 2, 6], [2, 4, 2, 4, 2, 4, 3], [1, 1, 1, 7]]
    tails = ["vertical", "alternating", "climbing", "leftmost_slant",
             "rightmost_slant"]
    for name in sorted(NAMES):
        d = make_diagram(name)
        lo = d.indexing.base if d.indexing.mode == "one_sided" else -2
        for v in range(lo, lo + 5):
            for kind in ("vertical", "alternating", "climbing",
                         "leftmost_slant", "rightmost_slant"):
                yield name, d, {"kind": kind, "vertex": v}
        for table in tables:
            table = [lo + t for t in table]
            for tail in tails:
                yield name, d, {"kind": "table_then_rule", "table": table,
                                "tail": {"kind": tail}}


def outcome(f):
    try:
        return f()
    except GbdError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("horizon", [-3, 0, 1, 2, 3, 4, 7, 16, 65])
def test_eventual_matches_the_quadratic_scan(horizon):
    seen = 0
    for name, d, spec in eventual_cases():
        spec = dict(spec)
        kind = spec.pop("kind")

        def got():
            ev = make_generator(d, kind, **spec).eventual(horizon)
            return ev and (ev.start, ev.period, ev.step, ev.base_vertices)

        want = outcome(lambda: reference_eventual(
            make_generator(d, kind, **spec), horizon))
        assert outcome(got) == want, (name, kind, spec, horizon)
        seen += want is not None and not isinstance(want[0], str)
    if horizon >= 2:
        assert seen > 0


# --- metric and tail equivalence ----------------------------------------------

def test_metric_values():
    o1 = make_diagram("odometer_one_sided")
    x = vertical_from(o1, 1)
    assert metric_dist(x, x) == 0
    y = vertical_from(o1, 2)
    assert metric_dist(x, y) == 1
    bi = make_diagram("b_infinity")
    a = make_generator(bi, "eventually_vertical", prefix=[1, 1, 1, 1], vertex=2)
    b = vertical_from(bi, 1)
    assert metric_dist(a, b) == Fraction(1, 8)


def test_tail_equivalence():
    o1 = make_diagram("odometer_one_sided")
    x = vertical_from(o1, 5)
    y = make_generator(o1, "eventually_vertical", prefix=[7, 6, 5], vertex=5)
    v = tail_equivalent(y, x)
    assert v.is_yes and v.witness == 2
    assert tail_equivalent(x, x).witness == 0
    assert tail_equivalent(vertical_from(o1, 1), vertical_from(o1, 2)).is_no
    o2 = make_diagram("odometer_two_sided")
    assert tail_equivalent(vertical_from(o2, 0),
                           leftmost_slant_from(o2, 0)).is_no


# --- orbits ----------------------------------------------------------------------

def test_orbit_yes_revalidates():
    rs = make_diagram("renewal_shift")
    x = vertical_from(rs, 1)
    c = prefix_from_trace(rs, [5, 4, 3])
    v = orbit_visits_cylinder(rs, x, c)
    assert v.is_yes
    w = v.witness
    merged = FinitePath(0, c.start_vertex,
                        tuple(c.edges) + tuple(w["connecting_path"].edges))
    assert merged.validate(rs)
    assert merged.end_vertex == x.vertex_at(w["level"])


def test_orbit_no_examples():
    bi = make_diagram("b_infinity")
    v = orbit_visits_cylinder(bi, vertical_from(bi, 2), cylinder_at(bi, 5))
    assert v.is_no and v.certificate.kind == "triangular_support"
    o2 = make_diagram("odometer_two_sided")
    v = orbit_visits_cylinder(o2, vertical_from(o2, 4), cylinder_at(o2, 3))
    assert v.is_no
    v = orbit_visits_cylinder(o2, leftmost_slant_from(o2, 4), cylinder_at(o2, 5))
    assert v.is_no and v.certificate.kind == "cone_bound"


def test_orbit_no_cross_checked_exactly():
    # wherever a No is claimed the exact counts at small depth must be zero
    cases = [
        ("b_infinity", vertical_from, 2, 5),
        ("odometer_two_sided", vertical_from, 4, 3),
        ("odometer_two_sided", leftmost_slant_from, 4, 5),
        ("star_odometer", vertical_from, 2, 3),
    ]
    for name, gen, start, cyl in cases:
        d = make_diagram(name)
        x = gen(d, start)
        assert orbit_visits_cylinder(d, x, cylinder_at(d, cyl)).is_no
        for m in range(1, 10):
            assert count_paths(d, cyl, 0, x.vertex_at(m), m) == 0


def test_cylinder_enumeration_is_exhaustive():
    td = make_diagram("tridiag_B")
    cyls = cylinders_ending_in(td, 2, (0, 0))
    # backward tree: 4 incoming edge choices per level
    assert len(cyls) == 16
    assert len({(c.start_vertex, c.edges) for c in cyls}) == 16
    for c in cyls:
        assert c.end_vertex == 0 and c.end_level == 2
        c.validate(td)


def test_transitivity_verdicts():
    bi = make_diagram("b_infinity")
    assert transitivity_probe(bi, climbing(bi, 1), 3, (1, 8)).is_yes
    v = transitivity_probe(bi, vertical_from(bi, 2), 2, (1, 6))
    assert v.is_no  # a bounded orbit misses high cylinders
    o2 = make_diagram("odometer_two_sided")
    assert transitivity_probe(o2, alternating_from(o2, 0), 3, (-6, 6)).is_yes
    assert transitivity_probe(o2, vertical_from(o2, 0), 2, (-4, 4)).is_no


def test_minimality_renewal_and_consequence():
    rs = make_diagram("renewal_shift")
    m = minimality_certificate(rs)
    assert m.is_yes
    assert m.witness["distinguished_vertex"] == 1
    assert all(b == w - 1 for w, b in m.witness["forced_bounds"].items())
    # minimal evidence implies dense-orbit evidence for tested generators
    for g in (vertical_from(rs, 1), leftmost_slant_from(rs, 4),
              make_generator(rs, "table_then_rule", table=[3, 2, 1],
                             tail={"kind": "vertical"})):
        assert transitivity_probe(rs, g, 2, (1, 5)).is_yes


def test_minimality_negative_witnesses():
    td = make_diagram("tridiag_B")
    m = minimality_certificate(td)
    assert m.is_no and m.certificate.kind == "cone_bound"
    so = make_diagram("star_odometer")
    m = minimality_certificate(so)
    assert m.is_no
    assert m.detail["witness"]["generator"]["kind"] == "vertical"
    o1 = make_diagram("odometer_one_sided")
    assert minimality_certificate(o1).is_no
    o2 = make_diagram("odometer_two_sided")
    assert minimality_certificate(o2).is_no
    bi = make_diagram("b_infinity")
    assert minimality_certificate(bi).is_no


def test_minimality_skips_battery_probes_past_the_declared_levels():
    # its vertical generators from 0 and 2 leave the rows at level 1, and
    # every No search runs past the spec's three declared levels
    d = explicit_error_beyond()
    m = minimality_certificate(d)
    assert m.is_unknown
    assert m.describe()["searched_windows"] == (-16, 16)


def test_battery_keeps_only_generators_that_are_paths():
    # 0 and 2 loop at level 0 but not at level 1; only 1 loops at every
    # level.  No column is known, so the slants fail at their first step.
    d = load_spec({"indexing": {"mode": "one_sided", "base": 0},
                   "levels": [{0: {0: 1, 1: 1}, 1: {1: 1}, 2: {1: 1, 2: 1}},
                              {0: {1: 1}, 1: {1: 1}, 2: {1: 1}}],
                   "extension": "repeat_last"})
    assert [g.describe() for g in _generator_battery(d)] == [
        {"kind": "vertical", "params": {"vertex": 1}}]
    # past its three declared levels no candidate is a path
    assert _generator_battery(explicit_error_beyond()) == []


def test_trisection():
    o2 = make_diagram("odometer_two_sided")
    on, left, right = trace_trisection(alternating_from(o2, 0), 4, (-3, 3))
    assert on[2] == [-1] and on[3] == [-1]
    assert -2 in left[2] and 0 in right[2]
    for n in range(5):
        combined = sorted(on[n] + left[n] + right[n])
        assert combined == list(range(-3, 4))
    x = vertical_from(o2, 2)
    on, left, right = trace_trisection(x, 3, (-3, 3))
    assert all(on[n] == [2] for n in range(4))
    assert all(set(left[n]) == set(range(-3, 2)) for n in range(4))


def test_classify_edge():
    o2 = make_diagram("odometer_two_sided")
    assert classify_edge(o2, Edge(0, 4, 4, 0)) == "vertical"
    assert classify_edge(o2, Edge(0, 5, 4, 0)) == "slanted"
    with pytest.raises(InvalidEdgeError):
        classify_edge(o2, Edge(0, 4, 6, 0))
    alt = alternating_from(o2, 0)
    kinds = [classify_edge(o2, alt.edge_at(m)) for m in range(6)]
    assert kinds == ["vertical", "slanted"] * 3


def test_relabel_equivariance_shift_family():
    cases = [
        ("odometer_two_sided", level_shift(1)),
        ("odometer_two_sided", cone_shift(1)),
        ("tridiag_B", level_shift(2)),
        ("tridiag_B", identity(make_diagram("tridiag_B").indexing)),
    ]
    for name, g in cases:
        d = make_diagram(name)
        d2 = relabel(d, g)
        battery = [(vertical_from(d, 1), 0), (vertical_from(d, 0), -1)]
        if d.column_support(0, 0) is not None and d.column_support(0, 0).is_finite:
            battery.append((leftmost_slant_from(d, 0), 1))
        for x, cv in battery:
            c = cylinder_at(d, cv)
            v1 = orbit_visits_cylinder(d, x, c)
            x2 = pushed_generator(x, g, d2)
            c2 = cylinder_at(d2, g.forward(0, cv))
            v2 = orbit_visits_cylinder(d2, x2, c2)
            assert v1.value == v2.value, (name, g.kind, x.kind, cv)


def test_renewal_no_compact_neighborhood_consistency():
    # minimal relation + a vertex of infinite out-degree on every orbit:
    # no tested prefix has a compact cylinder
    from gbdkit import compact_cylinder_check
    rs = make_diagram("renewal_shift")
    assert minimality_certificate(rs).is_yes
    for v in range(1, 9):
        for c in cylinders_ending_in(rs, 2, (v, v))[:4]:
            assert compact_cylinder_check(rs, c).is_no


def test_metric_on_prefixes():
    rs = make_diagram("renewal_shift")
    a = prefix_from_trace(rs, [3, 2, 1, 1])
    b = prefix_from_trace(rs, [3, 2, 1, 5])
    assert metric_dist(a, b) == Fraction(1, 4)
    assert metric_dist(a, vertical_from(rs, 1)) == 1  # differ at the first edge
    c = prefix_from_trace(rs, [3, 2])
    assert metric_dist(a, c) == 0  # agree on every compared index


def test_unknown_generator_kind():
    from gbdkit import UnknownKindError, parse_generator
    rs = make_diagram("renewal_shift")
    with pytest.raises(UnknownKindError):
        parse_generator(rs, {"kind": "zigzag", "vertex": 1})
    with pytest.raises(UnknownKindError):
        parse_generator(rs, {"vertex": 1})


def test_minimality_certificate_rejects_inverted_window():
    with pytest.raises(ValueError, match="empty interval"):
        minimality_certificate(make_diagram("renewal_shift"), window=(9, 1))


def test_minimality_certificate_rejects_window_below_the_base():
    with pytest.raises(ValueError, match="below one-sided base 1"):
        minimality_certificate(make_diagram("renewal_shift"), window=(-5, -1))


@pytest.mark.parametrize("cylinder", [0, 3])
def test_orbit_verdicts_need_a_generator_that_is_a_path(cylinder):
    # 1 -> 1 is no edge of parity_2: neither a Yes nor a No may speak of
    # this generator's orbit
    d = make_diagram("parity_2")
    x = vertical_from(d, 1)
    with pytest.raises(InvalidEdgeError, match="missing edge 1->1 at level 0"):
        orbit_visits_cylinder(d, x, cylinder_at(d, cylinder))
    with pytest.raises(InvalidEdgeError):
        transitivity_probe(d, x, 1, (-2, 2))


def test_a_generator_checks_each_edge_once(monkeypatch):
    d = make_diagram("tridiag_B")
    x = vertical_from(d, 0)
    checked = []
    edge_at = type(x).edge_at
    monkeypatch.setattr(type(x), "edge_at",
                        lambda self, m: checked.append(m) or edge_at(self, m))
    x.validate_to(26)
    x.validate_to(26)
    x.validate_to(30)
    assert checked == list(range(30))
    # a No validates x through the levels it rests on (depth 24 here), and
    # a repeated probe checks no edge again
    bi = make_diagram("b_infinity")
    y = vertical_from(bi, 2)
    checked.clear()
    for _ in range(3):
        assert orbit_visits_cylinder(bi, y, cylinder_at(bi, 5)).is_no
    assert checked == list(range(25))
