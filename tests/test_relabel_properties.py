"""Relabel round trips on random two-sided bands under random bijections:
shifts, integer and table cone shifts, the interleaving fold and
pin tables completed by canonical fill."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gbdkit import (
    builtin_bijection,
    cone_shift,
    count_paths,
    interleave,
    level_shift,
    make_diagram,
    relabel,
    verify_permutation_identity,
)

from test_count_properties import offsets

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=200)

widths = st.integers(0, 3)
table_cone_shifts = st.builds(
    lambda t, tail: builtin_bijection("cone_shift", {"t": t, "tail": tail}),
    st.lists(widths, max_size=5), widths)
pin_tables = st.dictionaries(
    st.integers(0, 5),
    st.dictionaries(st.integers(-5, 5), st.integers(0, 10), max_size=4).filter(
        lambda pins: len(set(pins.values())) == len(pins)),
    max_size=3)
bijections = st.one_of(
    st.builds(level_shift, st.integers(-2, 2)),
    st.builds(cone_shift, widths),
    table_cone_shifts,
    st.builds(interleave),
    st.builds(lambda tables: builtin_bijection("table_fill", {"tables": tables}),
              pin_tables))


def band(offs):
    return make_diagram("banded", offsets=offs, side="two")


@PROPERTY
@given(offs=offsets, g=bijections)
def test_relabeling_back_gives_the_incidence_windows(offs, g):
    d = band(offs)
    back = relabel(relabel(d, g), g.inverted())
    win = d.indexing.default_interval(6)
    for n in range(6):
        assert back.incidence_window(n, win, win) == d.incidence_window(n, win, win)


@PROPERTY
@given(offs=offsets, g=bijections)
def test_the_relabeled_rows_are_the_pushed_rows(offs, g):
    d = band(offs)
    assert verify_permutation_identity(d, relabel(d, g), g, 4)


@PROPERTY
@given(offs=offsets, g=bijections, w=st.integers(-4, 4), v=st.integers(-4, 4),
       n=st.integers(0, 3), k=st.integers(1, 6))
def test_relabeling_keeps_path_counts(offs, g, w, v, n, k):
    d = band(offs)
    d2 = relabel(d, g)
    assert count_paths(d2, g.forward(n, w), n, g.forward(n + k, v), n + k) \
        == count_paths(d, w, n, v, n + k)


@PROPERTY
@given(table=st.lists(widths, max_size=5), tail=widths, n=st.integers(0, 9),
       v=st.integers(-4, 4))
def test_a_table_cone_shift_moves_level_n_by_the_widths_below_it(table, tail, n, v):
    g = builtin_bijection("cone_shift", {"t": table, "tail": tail})
    assert g.forward(n, v) == v - sum(table[:n]) - tail * max(0, n - len(table))
    assert g.params == {"t": table, "tail": tail}
