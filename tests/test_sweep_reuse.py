"""The kept reach frontiers of `paths.first_reach`/`reach_frontiers` answer
exactly as a fresh sweep per level does, and read far fewer rows."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbdkit import (
    backward_reach_set,
    classify_irreducibility_type,
    climbing,
    cone_shift,
    cylinder_at,
    dense_orbit_reenumeration,
    interleave,
    irreducible_probe,
    level_shift,
    make_diagram,
    make_generator,
    orbit_visits_cylinder,
    period_of_index,
    relabel,
    toeplitz_reenumeration,
    vertical_from,
)
from gbdkit import dynamics, paths, probes
from gbdkit.specfmt import load_spec

from conftest import NAMES, defective_band, restart_first_reach

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=100)


def restart_frontiers(d, n, levels, target):
    """No kept frontier: a fresh sweep at every m."""
    for m in levels:
        t = target(m)
        yield m, t, backward_reach_set(d, t, m, n)


def explicit_error_beyond():
    # every row holds source 1, so vertex 1 is a full-out column
    return load_spec({"levels": [{0: {0: 1, 1: 1}, 1: {1: 1}, 2: {1: 1, 2: 2}},
                                 {0: {1: 2}, 1: {1: 1, 2: 1}, 2: {1: 1}},
                                 {0: {1: 1, 0: 1}, 1: {0: 1, 1: 1}, 2: {1: 1, 2: 1}}],
                      "extension": "error_beyond",
                      "flags": [{"kind": "full_out_column", "vertex": 1}]})


def extra_handles():
    td = make_diagram("tridiag_B")
    return {
        "interleaved tridiag_B": relabel(td, interleave()),
        "cone-shifted tridiag_B": relabel(
            td, cone_shift((0, 1, 2), tail=1)),
        "explicit error_beyond": explicit_error_beyond(),
    }


def toeplitz(d, *gens):
    return toeplitz_reenumeration(d, list(gens), 64)[1]


def reenumerated_handles():
    """The non-stationary re-enumerations behind "every GBD is isomorphic
    to an irreducible one"."""
    td = make_diagram("tridiag_B")
    od = make_diagram("odometer_one_sided")
    rs = make_diagram("renewal_shift")
    return {
        "toeplitz1 odometer_one_sided": toeplitz(od, vertical_from(od, 1)),
        "toeplitz2 odometer_one_sided": toeplitz(
            od, vertical_from(od, 1), climbing(od, 1)),
        "toeplitz1 tridiag_B": toeplitz(td, vertical_from(td, 0)),
        "toeplitz2 tridiag_B": toeplitz(
            td, vertical_from(td, 0), climbing(td, 0)),
        "dense renewal_shift": relabel(
            rs, dense_orbit_reenumeration(rs, vertical_from(rs, 1))),
    }


def outcome(fn):
    try:
        r = fn()
    except Exception as exc:  # exceptions must match too
        return type(exc).__name__, str(exc)
    return r.describe() if hasattr(r, "describe") else r


def battery(d):
    lo, hi = d.indexing.default_interval(2)
    vs = range(lo, hi + 1)
    out = []
    for i in vs:
        for j in vs:
            out.append(outcome(lambda: irreducible_probe(d, i, j, 0, 10)))
        out.append(outcome(lambda: period_of_index(d, i, 6)))
    out.append(outcome(lambda: classify_irreducibility_type(d, horizon=16)))
    for kind in ("vertical", "alternating", "rightmost_slant"):
        for v in (lo, hi):
            try:
                g = make_generator(d, kind, vertex=v)
            except Exception as exc:
                out.append((type(exc).__name__, str(exc)))
                continue
            for c in vs:
                out.append(outcome(lambda: orbit_visits_cylinder(
                    d, g, cylinder_at(d, c), 10)))
    return out


def restarted(monkeypatch, fn):
    with monkeypatch.context() as mp:
        for module in (probes, dynamics):
            mp.setattr(module, "first_reach", restart_first_reach, raising=False)
            mp.setattr(module, "reach_frontiers", restart_frontiers, raising=False)
        return fn()


@pytest.mark.parametrize("name", NAMES + list(extra_handles()))
def test_same_outputs_as_a_restart_per_level(name, monkeypatch, row_reads):
    d = make_diagram(name) if name in NAMES else extra_handles()[name]
    start = row_reads[0]
    reference = restarted(monkeypatch, lambda: battery(d))
    reference_reads = row_reads[0] - start
    start = row_reads[0]
    assert battery(d) == reference
    assert row_reads[0] - start > 0
    if not d.stationary:
        assert row_reads[0] - start <= reference_reads


@pytest.mark.parametrize("name", list(reenumerated_handles()))
def test_reenumerations_answer_as_a_restart_per_level(name, monkeypatch):
    # verdicts, levels and witnesses only: the restart finds its witness in
    # the sweep that tests the hit level, where first_reach sweeps once more
    d = reenumerated_handles()[name]
    assert not d.stationary
    reference = restarted(monkeypatch, lambda: battery(d))
    assert battery(d) == reference


def test_handles_cover_both_kinds():
    handles = extra_handles()
    # stationary from level 0, from the end of the width table, and never
    assert handles["interleaved tridiag_B"].stationary_from == 0
    assert handles["cone-shifted tridiag_B"].stationary_from == 3
    assert handles["explicit error_beyond"].stationary_from is None


def test_deep_no_probe_reads_few_rows(row_reads):
    d = relabel(make_diagram("tridiag_B"), level_shift(1))
    start = row_reads[0]
    v = irreducible_probe(d, 0, -1, 0, 96)
    assert v.is_no
    # a restart per level reads about 300,000 rows here
    assert 0 < row_reads[0] - start < 20_000


def test_in_edges_hands_out_the_cached_row():
    d = make_diagram("tridiag_B")
    cached = d.in_edges(3, 0)
    assert d.in_edges(3, 0) is cached
    with pytest.raises(TypeError):
        cached[0] = (-99, 7)


# --- the frontier stops at its fixed point -----------------------------------------

@st.composite
def stationary_handles(draw):
    """(handle, vertices): a `repeat_last` spec of 1-3 one-sided levels on
    five vertices, a one-sided band, whose rows are cut at the base, or a
    two-sided band with one defective row; every one stationary."""
    kind = draw(st.sampled_from(["explicit", "one-sided band", "defective band"]))
    if kind == "explicit":
        vs = list(range(5))
        row = st.dictionaries(st.sampled_from(vs), st.integers(1, 2),
                              min_size=1, max_size=3)
        mats = draw(st.lists(st.fixed_dictionaries({v: row for v in vs}),
                             min_size=1, max_size=3))
        return load_spec({"indexing": {"mode": "one_sided", "base": 0},
                          "levels": mats, "extension": "repeat_last"}), vs
    offs = draw(st.dictionaries(st.integers(-3, 3), st.integers(1, 2),
                                min_size=1, max_size=3))
    if kind == "one-sided band":
        offs[draw(st.integers(0, 3))] = 1  # the base row is not empty
        return make_diagram("banded", offsets=offs, side="one", base=0), \
            list(range(12))
    return defective_band(offs, draw(st.integers(-6, 6))), list(range(-9, 10))


@PROPERTY
@given(stationary_handles(), st.data())
def test_the_fixed_point_stop_answers_as_a_restart_per_level(handle, data):
    d, vs = handle
    pick = st.sampled_from(vs)
    w, n = data.draw(pick), data.draw(st.integers(0, 4))
    levels = range(n + 1, n + data.draw(st.integers(1, 40)) + 1)
    targets = data.draw(st.lists(pick, min_size=1, max_size=3))

    def target(m):
        return targets[m % len(targets)]

    assert outcome(lambda: paths.first_reach(d, w, n, levels, target)) \
        == outcome(lambda: restart_first_reach(d, w, n, levels, target))
    assert outcome(lambda: list(paths.reach_frontiers(d, n, levels, target))) \
        == outcome(lambda: list(restart_frontiers(d, n, levels, target)))


def test_a_fixed_frontier_reads_no_more_rows(row_reads):
    # the backward layers of 4 on star_odometer are {4}, then {1, 4} at
    # every later level, which 8 never enters
    star = make_diagram("star_odometer")
    reads = {}
    for depth in (30, 30, 3000):
        start = row_reads[0]
        assert paths.first_reach(star, 8, 0, range(1, depth + 1),
                                 lambda m: 4) is None
        reads[depth] = row_reads[0] - start
    assert 0 < reads[3000] == reads[30] < 10
    x = vertical_from(star, 4)
    for depth in (24, 24, 2400):
        orbit_visits_cylinder(star, x, cylinder_at(star, 8), depth)
    start = row_reads[0]
    for depth in (24, 2400):
        assert orbit_visits_cylinder(star, x, cylinder_at(star, 8), depth).is_no
        reads[depth] = row_reads[0] - start
        start = row_reads[0]
    assert 0 < reads[2400] == reads[24] < 10


# --- the witness walks the layers the frontier took ----------------------------------

def chain(size):
    """A 3-level `repeat_last` spec, stationary from level 2, on vertices
    0..size-1: 0 feeds 0 and each v feeds v + 1."""
    mat = {0: {0: 1}, **{v: {v - 1: 1} for v in range(1, size)}}
    return load_spec({"indexing": {"mode": "one_sided", "base": 0},
                      "levels": [mat] * 3, "extension": "repeat_last"})


def walk_handles():
    """Handles with column rules, with columns derived from a row width,
    one with neither that is stationary from no level, and two with
    neither that are stationary from a level s > 0, so that a walk from
    n < s crosses the layers swept below s."""
    rs = make_diagram("renewal_shift")
    named = ("renewal_shift", "star_odometer", "b_infinity",
             "interleaved_Bprime", "growth_odometer")
    return {**{name: make_diagram(name) for name in named},
            "dense renewal_shift": relabel(
                rs, dense_orbit_reenumeration(rs, vertical_from(rs, 1))),
            "cone-shifted tridiag_B": extra_handles()["cone-shifted tridiag_B"],
            "3-level chain": chain(16)}


WALK_HANDLES = walk_handles()


@PROPERTY
@given(st.sampled_from(sorted(WALK_HANDLES)), st.data())
def test_the_walk_answers_as_a_restart_per_level(name, data):
    d = WALK_HANDLES[name]
    lo, hi = d.indexing.default_interval(6)
    pick = st.integers(lo, hi)
    w, n = data.draw(pick), data.draw(st.integers(0, 4))
    levels = range(n + 1, n + data.draw(st.integers(1, 30)) + 1)
    targets = data.draw(st.lists(pick, min_size=1, max_size=3))

    def target(m):
        return targets[m % len(targets)]

    assert outcome(lambda: paths.first_reach(d, w, n, levels, target)) \
        == outcome(lambda: restart_first_reach(d, w, n, levels, target))


def test_the_walk_reads_the_rows_of_one_sweep(row_reads):
    # the frontier from 1 takes 300 steps before 300 enters it; enumerating
    # the witness from a second sweep read 134,585 rows in all
    start = row_reads[0]
    v = irreducible_probe(make_diagram("renewal_shift"), 300, 1, 0, 310)
    assert v.is_yes and v.detail["level"] == 299
    assert 0 < row_reads[0] - start <= 134_585 // 2


@pytest.mark.parametrize("handle, w, t, level, most", [
    (lambda: chain(301), 0, 300, 300, 1_197),
    (lambda: extra_handles()["cone-shifted tridiag_B"], 0, -60, 30, 3_502),
    (lambda: extra_handles()["cone-shifted tridiag_B"], 5, -30, 18, 1_177),
], ids=["chain 0 -> 300", "cone-shifted 0 -> -60", "cone-shifted 5 -> -30"])
def test_a_hit_above_the_stationary_level_sweeps_nothing_again(handle, w, t, level,
                                                              most, row_reads):
    # the hit walks the layers swept below s and stepped above it; a
    # second sweep from the hit read 1,497 / 4,402 / 1,501 rows in all
    d = handle()
    levels = range(1, level + 11)
    start = row_reads[0]
    with mock.patch.object(paths, "_sweep", wraps=paths._sweep) as sweep, \
            mock.patch.object(paths, "backward_reach_set",
                              wraps=paths.backward_reach_set) as fresh:
        hit = paths.first_reach(d, w, 0, levels, lambda m: t)
    reads = row_reads[0] - start
    assert hit[0] == level
    assert outcome(lambda: hit) == outcome(
        lambda: restart_first_reach(d, w, 0, levels, lambda m: t))
    # one fresh sweep per level m <= s, none at the hit
    assert sweep.call_count == fresh.call_count == d.stationary_from
    assert 0 < reads <= most


def test_a_moving_target_keeps_the_layers_of_one_target():
    # the trace runs down the table 200..1 and stays at 1; every target
    # kept a sorted list per step until the call ended, 13.4 MiB here
    rs = make_diagram("renewal_shift")
    x = make_generator(rs, "table_then_rule", table=list(range(200, 0, -1)),
                       tail={"kind": "vertical", "vertex": 1})
    c = cylinder_at(rs, 400)
    tracemalloc.start()
    try:
        v = orbit_visits_cylinder(rs, x, c, 420)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.is_yes and v.witness["level"] == 399
    assert peak < 4 * 2 ** 20


def test_a_deep_witness_keeps_its_layers_as_lists():
    # the history holds one sorted list per step; sets would take 24 MiB
    rs = make_diagram("renewal_shift")
    tracemalloc.start()
    try:
        v = irreducible_probe(rs, 1000, 1, 0, 1010)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.is_yes and len(v.witness) == 999
    assert peak < 8 * 2 ** 20
