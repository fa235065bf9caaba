"""Properties of counts and verdicts on random bands and random explicit
specs: `count_paths` counts what `enumerate_paths` lists, every verdict's
recheck line re-derives it, and a No found at one depth stays a No at a
greater one."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gbdkit import (
    GbdError,
    LevelWindow,
    connected_probe,
    count_paths,
    cylinder_at,
    enumerate_paths,
    irreducible_probe,
    load_spec,
    make_diagram,
    make_generator,
    orbit_visits_cylinder,
)
from gbdkit.dynamics import recheck_visit
from gbdkit.probes import recheck_connected, recheck_irreducible

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)

VERTICES = range(-3, 4)
rows = st.dictionaries(st.sampled_from(VERTICES), st.integers(1, 2),
                       min_size=1, max_size=3)
levels = st.lists(st.fixed_dictionaries({v: rows for v in VERTICES}),
                  min_size=1, max_size=3)
explicit_specs = st.builds(
    lambda mats, extension: {"levels": mats, "extension": extension},
    levels, st.sampled_from(["error_beyond", "repeat_last"]))
bands = st.builds(
    lambda offs, side: make_diagram("banded", offsets=offs, side=side, base=-2),
    st.dictionaries(st.integers(-2, 2), st.integers(1, 2), min_size=1,
                    max_size=3).filter(lambda offs: max(offs) >= 0),
    st.sampled_from(["one", "two"]))
diagrams = st.one_of(bands, explicit_specs.map(load_spec))
vertices = st.integers(-4, 4)
generator_kinds = st.sampled_from(["vertical", "leftmost_slant",
                                   "rightmost_slant", "alternating"])


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def verdict(probe, *args):
    """The probe's verdict, or None when the input is outside its domain."""
    try:
        return probe(*args)
    except GbdError:
        return None


def visit(d, kind, start, j, depth):
    x = make_generator(d, kind, vertex=start)
    return orbit_visits_cylinder(d, x, cylinder_at(d, j), depth)


@PROPERTY
@given(spec=explicit_specs, w=vertices, v=vertices, n=st.integers(0, 3),
       k=st.integers(0, 3))
def test_count_paths_counts_the_listed_paths(spec, w, v, n, k):
    d = load_spec(spec)
    listed = outcome(lambda: len(enumerate_paths(d, w, n, v, n + k, cap=None)[0]))
    assert outcome(count_paths, d, w, n, v, n + k) == listed


@PROPERTY
@given(d=diagrams, i=vertices, j=vertices, n0=st.integers(0, 2),
       depth=st.integers(1, 6))
def test_irreducible_verdicts_recheck(d, i, j, n0, depth):
    v = verdict(irreducible_probe, d, i, j, n0, depth)
    if v is not None:
        assert "False" not in recheck_irreducible(d, v, i, j, n0, depth)


@PROPERTY
@given(d=diagrams, levels=st.integers(0, 3), radius=st.integers(0, 4))
def test_connected_verdicts_recheck(d, levels, radius):
    window = LevelWindow({n: d.indexing.default_interval(radius)
                          for n in range(levels + 1)})
    v = verdict(connected_probe, d, levels, window)
    if v is not None:
        assert "False" not in recheck_connected(d, v, levels, window)


@PROPERTY
@given(d=diagrams, kind=generator_kinds, start=vertices, j=vertices,
       depth=st.integers(1, 6))
def test_orbit_visit_verdicts_recheck(d, kind, start, j, depth):
    v = verdict(visit, d, kind, start, j, depth)
    if v is not None:
        x = make_generator(d, kind, vertex=start)
        assert "False" not in recheck_visit(d, v, x, cylinder_at(d, j), depth)


@PROPERTY
@given(d=diagrams, kind=generator_kinds, i=vertices, j=vertices,
       k=st.integers(1, 4))
def test_a_no_stays_a_no_at_three_times_the_depth(d, kind, i, j, k):
    for probe, args in [(irreducible_probe, (d, i, j, 0)),
                        (visit, (d, kind, i, j))]:
        shallow = verdict(probe, *args, k)
        if shallow is not None and shallow.is_no:
            deep = verdict(probe, *args, 3 * k)
            assert deep is None or not deep.is_yes
