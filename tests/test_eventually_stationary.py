"""A handle stationary from level s (`DiagramHandle.stationary_from`)
answers as a handle that shares no stored-level rule with it, and reads
and caches rows of its first s + 1 levels only.

The references: a `repeat_last` spec is written out under
`error_beyond`, its last level repeated past every level a probe reads,
so every level is read on its own; a relabeling by a `cone_shift` width
table is matched by one through `affine_levels` with the same offsets,
a map without a step, so the relabeling has no s."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gbdkit import (
    DiagramHandle,
    backward_reach_set,
    compact_cylinder_check,
    cone_shift,
    cylinder_at,
    irreducible_probe,
    load_spec,
    make_diagram,
    make_generator,
    orbit_visits_cylinder,
    period_of_index,
    recheck_period,
    relabel,
    vertical_from,
)
from gbdkit.bijections import affine_levels
from gbdkit.generators import PushedGenerator
from gbdkit.indexing import two_sided
from gbdkit.paths import forward_layers

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=100)

# more levels than any probe below reads: depth and horizon stay under 20
REFERENCE_LEVELS = 48


def outcome(f, *args):
    """f's answer described, or its error by type and message."""
    try:
        r = f(*args)
    except Exception as exc:  # exceptions must match too
        return type(exc).__name__, str(exc)
    return r.describe() if hasattr(r, "describe") else r


@st.composite
def repeating_specs(draw):
    """(spec document, vertices): 1-4 one-sided levels on base..base+4,
    each declaring a row at every vertex; with a triangular flag that the
    rows keep, a row-width flag, or no flag."""
    base = draw(st.integers(-2, 2))
    vs = list(range(base, base + 5))
    flag = draw(st.sampled_from([None, "upper", "lower", "width"]))

    def row(v):
        srcs = [w for w in vs if flag not in ("upper", "lower")
                or (w >= v if flag == "upper" else w <= v)]
        return st.dictionaries(st.sampled_from(srcs), st.integers(1, 2),
                               min_size=1, max_size=3)

    mats = draw(st.lists(st.fixed_dictionaries({v: row(v) for v in vs}),
                         min_size=1, max_size=4))
    doc = {"indexing": {"mode": "one_sided", "base": base}, "levels": mats}
    if flag == "width":
        doc["flags"] = [{"kind": "bounded_size", "t": 4}]
    elif flag is not None:
        doc["flags"] = [{"kind": "triangular", "direction": flag}]
    return doc, vs


def written_out(doc: dict) -> DiagramHandle:
    """The spec under error_beyond, its last level repeated."""
    mats = doc["levels"]
    mats = mats + [mats[-1]] * (REFERENCE_LEVELS - len(mats))
    return load_spec({**doc, "levels": mats, "extension": "error_beyond"})


def swept_period(ref: DiagramHandle, i: int, s: int, horizon: int):
    """period_of_index's answer from level s, one sweep per length."""
    lengths = [m for m in range(1, horizon + 1)
               if i in backward_reach_set(ref, i, s + m, s)]
    return (math.gcd(*lengths) if lengths else None), lengths


@PROPERTY
@given(repeating_specs(), st.data())
def test_a_repeating_spec_answers_as_its_levels_written_out(spec, data):
    doc, vs = spec
    d = load_spec({**doc, "extension": "repeat_last"})
    ref = written_out(doc)
    s = len(doc["levels"]) - 1
    assert (d.stationary_from, ref.stationary_from) == (s, None)
    pick = st.sampled_from(vs)
    i, j = data.draw(pick), data.draw(pick)
    n0, depth = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 16))
    assert outcome(irreducible_probe, d, i, j, n0, depth) \
        == outcome(irreducible_probe, ref, i, j, n0, depth)
    horizon = data.draw(st.integers(1, 12))
    g, lengths = period_of_index(d, i, horizon)
    assert (g, lengths) == swept_period(ref, i, s, horizon)
    assert recheck_period(d, i, horizon, g, lengths).endswith("True")
    kind = data.draw(st.sampled_from(["vertical", "alternating"]))
    x, c = data.draw(pick), data.draw(pick)
    assert outcome(orbit_visits_cylinder, d, make_generator(d, kind, vertex=x),
                   cylinder_at(d, c), depth) \
        == outcome(orbit_visits_cylinder, ref, make_generator(ref, kind, vertex=x),
                   cylinder_at(ref, c), depth)
    assert outcome(compact_cylinder_check, d, cylinder_at(d, c), horizon) \
        == outcome(compact_cylinder_check, ref, cylinder_at(ref, c), horizon)


def stable_cone(ref: DiagramHandle, j: int, s: int, horizon: int):
    """(at_step, cone) of the first forward layer of j@0 at a level >= s
    that its successor repeats, as `compact_cylinder_check` reports a
    stable cone; None when there is none within the horizon."""
    layers = list(forward_layers(ref, j, 0, horizon))
    for k in range(s, len(layers) - 1):
        if layers[k + 1] == layers[k]:
            return k, sorted(layers[k])
    return None


@PROPERTY
@given(st.dictionaries(st.integers(-1, 1), st.integers(1, 2), min_size=1,
                       max_size=2),
       st.lists(st.integers(-2, 2), min_size=1, max_size=4),
       st.integers(-2, 2), st.data())
def test_a_cone_shift_table_answers_as_its_affine_levels(offs, table, tail, data):
    base = make_diagram("banded", offsets=offs, side="two")
    d = relabel(base, cone_shift(table, tail))

    def offset(n):
        return -sum(table[:n]) - tail * max(0, n - len(table))

    ref = relabel(base, affine_levels(offset, two_sided(), two_sided()))
    s = len(table)
    assert (d.stationary_from, ref.stationary_from) == (s, None)
    pick = st.integers(-3, 3)
    i, j = data.draw(pick), data.draw(pick)
    n0, depth = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 10))
    assert outcome(irreducible_probe, d, i, j, n0, depth) \
        == outcome(irreducible_probe, ref, i, j, n0, depth)
    horizon = data.draw(st.integers(1, 8))
    assert period_of_index(d, i, horizon) == swept_period(ref, i, s, horizon)
    x, c = data.draw(pick), data.draw(pick)
    assert outcome(orbit_visits_cylinder, d, make_generator(d, "vertical", vertex=x),
                   cylinder_at(d, c), depth) \
        == outcome(orbit_visits_cylinder, ref,
                   make_generator(ref, "vertical", vertex=x), cylinder_at(ref, c),
                   depth)
    got = compact_cylinder_check(d, cylinder_at(d, c), horizon).describe()
    stable = stable_cone(ref, c, s, horizon)
    if stable is None:
        # without a repeat from level s on, both walk to the horizon
        assert got == compact_cylinder_check(ref, cylinder_at(ref, c),
                                             horizon).describe()
    else:
        witness = got["witness"]
        assert (witness["at_step"], witness["stable_cone"]) == stable


ROW = {0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}, 2: {2: 1, 3: 1}, 3: {2: 1, 3: 1}}


def repeating(levels: int) -> DiagramHandle:
    """Two blocks, {0, 1} and {2, 3}, that never connect, on `levels`
    declared levels repeated from the last."""
    return load_spec({"indexing": {"mode": "one_sided", "base": 0},
                      "levels": [ROW] * levels, "extension": "repeat_last"})


def stored_levels(d: DiagramHandle) -> set:
    return {n for n, _ in d._row_cache}


def test_a_three_level_spec_reads_as_few_rows_as_one_level(row_reads):
    for depth in (400, 2000):
        reads = {}
        for levels in (1, 3):
            d = repeating(levels)
            row_reads[0] = 0
            assert irreducible_probe(d, 0, 2, 0, depth).is_unknown
            reads[levels] = row_reads[0]
            assert stored_levels(d) == set(range(levels))
        # a restart below level 2 at every level read 160,165 rows at depth
        # 400 and 4,000,000 at depth 2000
        assert reads[1] < 2 * depth + 200 and reads[3] <= reads[1] + 8
    g, lengths = period_of_index(d, 0, 8)
    assert (g, lengths) == (1, list(range(1, 9)))


def test_a_cone_shift_table_caches_its_first_levels_only(row_reads):
    d = relabel(make_diagram("tridiag_B"), cone_shift((0, 1, 2), tail=1))
    assert d.stationary_from == 3
    row_reads[0] = 0
    assert irreducible_probe(d, 0, 5, 0, 100).is_unknown
    # a restart at every level read 348,457 rows and cached 100 levels
    assert row_reads[0] < 45_000
    assert stored_levels(d) == {0, 1, 2, 3}


def test_an_eventual_trace_is_certified_once_seen_where_the_rows_repeat():
    # identity rows: the leftmost slant from 0 stays at 0, read through
    # columns that the row width derives
    row = {v: {v: 1} for v in range(8)}
    for levels, certified in ((3, True), (20, False)):
        d = load_spec({"indexing": {"mode": "one_sided", "base": 0},
                       "levels": [row] * levels, "extension": "repeat_last",
                       "flags": [{"kind": "bounded_size", "t": 1}]})
        ev = make_generator(d, "leftmost_slant", vertex=0).eventual(16)
        # the scan sees levels up to 17, so level 19 is past it
        assert (ev.start, ev.period, ev.step) == (0, 1, 0)
        assert ev.certified is certified


def test_a_pushed_trace_steps_from_the_bijection_step_level():
    td = make_diagram("tridiag_B")
    g = cone_shift((0, 1, 2), tail=1)
    x = PushedGenerator(vertical_from(td, 0), g, relabel(td, g))
    ev = x.eventual()
    assert (ev.start, ev.period, ev.step, ev.certified) == (3, 1, -1, True)
    assert all(ev.value(m) == x.vertex_at(m) for m in range(3, 40))
