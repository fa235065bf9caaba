"""The row kernels against their per-vertex references.

`VertexBijectionSeq.push` maps a whole row as one `forward` per entry
would, errors included; `incidence_window` fills each line from its row
as a dict lookup per cell would; row validation raises what a seen set
raised; and relabeling and the search read rows and call level maps a
bounded number of times.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gbdkit import (
    DiagramHandle,
    InvariantError,
    LevelWindow,
    identity,
    iso_search,
    level_shift,
    make_diagram,
    one_sided,
    partial_sequence,
    relabel,
    two_sided,
)
from gbdkit.bijections import affine_levels
from gbdkit.diagram import ColumnSupport

from conftest import NAMES, dict_incidence_window
from test_count_properties import offsets
from test_relabel_properties import PROPERTY, bijections
from test_sweep_reuse import outcome

indexings = st.one_of(st.just(two_sided()), st.builds(one_sided, st.integers(-3, 3)))
# rows as `in_edges` hands them out: distinct sources, ascending
rows = st.dictionaries(st.integers(-8, 8), st.integers(1, 3), max_size=6).map(
    lambda r: tuple(sorted(r.items())))
partial_sequences = st.builds(
    partial_sequence, indexings, indexings,
    st.dictionaries(
        st.integers(0, 5),
        st.dictionaries(st.integers(-8, 8), st.integers(-8, 8), max_size=14).filter(
            lambda t: len(set(t.values())) == len(t)),
        max_size=4))
# one-sided targets, so low sources shift below the base
affine_sequences = st.builds(
    lambda a, b, src, base: affine_levels(lambda n: a * n + b, src, one_sided(base)),
    st.integers(-3, 3), st.integers(-6, 6), indexings, st.integers(-3, 3))


def per_vertex(g, n, pairs):
    return tuple(sorted((g.forward(n, w), m) for w, m in pairs))


@PROPERTY
@given(g=st.one_of(bijections, partial_sequences, affine_sequences),
       inverted=st.booleans(), n=st.integers(0, 5), pairs=rows)
def test_push_is_one_forward_per_entry(g, inverted, n, pairs):
    if inverted:
        g = g.inverted()
    assert outcome(lambda: g.push(n, pairs)) == outcome(lambda: per_vertex(g, n, pairs))


def test_push_raises_for_the_first_failing_entry():
    # entry -1's image is below the target base and entry 2 has no table
    # entry: forward meets -1 first
    g = partial_sequence(two_sided(), one_sided(0), {0: {-1: -5, 1: 1}})
    pairs = ((-1, 1), (1, 2), (2, 1))
    assert outcome(lambda: g.push(0, pairs)) == outcome(lambda: per_vertex(g, 0, pairs)) \
        == ("InvalidVertexError", "image vertex -5 below one-sided base 0")
    assert g.push(0, ()) == ()
    assert g.push(7, ()) == ()  # no table at level 7, and none needed


windows = st.tuples(st.integers(-12, 12), st.integers(0, 8))
diagrams = st.one_of(
    st.builds(lambda offs, side, base: (offs, side, base), offsets,
              st.sampled_from(["two", "one"]), st.integers(-3, 3)),
    st.sampled_from(NAMES))


@PROPERTY
@given(spec=diagrams, n=st.integers(0, 3), rows_at=windows, cols_at=windows,
       away=st.sampled_from([0, 0, 40, -40]))
def test_incidence_window_is_one_lookup_per_cell(spec, n, rows_at, cols_at, away):
    """Columns anywhere, far from every row (`away`), one wide (a zero
    length), and reaching below a one-sided base."""
    if isinstance(spec, str):
        d = make_diagram(spec)
    else:
        offs, side, base = spec
        try:
            d = make_diagram("banded", offsets=offs, side=side, base=base)
        except InvariantError:
            assume(False)  # a one-sided truncation emptied the base row
    row_win = (rows_at[0], rows_at[0] + rows_at[1])
    col_win = (cols_at[0] + away, cols_at[0] + away + cols_at[1])
    assert outcome(lambda: d.incidence_window(n, row_win, col_win)) \
        == outcome(lambda: dict_incidence_window(d, n, row_win, col_win))


def seen_set_row(indexing, n, v, raw):
    """Row validation as it was: a seen set, every source range-checked."""
    row = sorted((int(w), int(m)) for w, m in raw)
    if not row:
        raise InvariantError(f"empty incidence row at level {n}, vertex {v}")
    seen = set()
    for w, m in row:
        if m < 1:
            raise InvariantError(f"nonpositive multiplicity {m} at ({n}, {v}, {w})")
        if w in seen:
            raise InvariantError(f"duplicate source {w} in row ({n}, {v})")
        seen.add(w)
        if not indexing.contains(w):
            raise InvariantError(
                f"source {w} below one-sided base {indexing.base} in row ({n}, {v})")
    return tuple(row)


def read_row(raw, indexing=one_sided(1), container=list):
    d = DiagramHandle(indexing, lambda n, v: container(raw), name="hostile")
    return outcome(lambda: d.in_edges(2, 5))


def hostile(fault, at):
    # a row handed out unsorted, sources descending; at is the position
    # in that order
    raw = [(w, 1) for w in (9, 7, 5, 3, 2)]
    w, m = raw[at]
    if fault == "duplicate":
        raw[at] = (raw[at - 1 if at else 1][0], m)
    elif fault == "nonpositive":
        raw[at] = (w, 0)
    else:
        raw[at] = (0, m)
    return raw


@pytest.mark.parametrize("fault", ["duplicate", "nonpositive", "below base"])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_hostile_rows_raise_as_before(fault, at):
    raw = hostile(fault, at)
    got = read_row(raw)
    assert got[0] == "InvariantError"
    assert got == outcome(lambda: seen_set_row(one_sided(1), 2, 5, raw))


entries = st.tuples(st.one_of(st.integers(-2, 6), st.booleans()),
                   st.one_of(st.integers(-1, 2), st.booleans()))
containers = {"list": list, "tuple": tuple, "generator": iter}


@PROPERTY
@given(raw=st.one_of(rows, st.lists(st.one_of(entries, entries.map(list)), max_size=6)),
       container=st.sampled_from(sorted(containers)), indexing=indexings)
def test_any_row_validates_as_before(raw, container, indexing):
    """Canonical rows, which validation hands back without a sort, and
    every other kind: unsorted, duplicate sources, nonpositive or bool
    entries, list pairs, a source below a one-sided base, from a list, a
    tuple or a one-shot iterator.  The reprs are compared, so a bool
    handed back as it came would show."""
    got = read_row(raw, indexing, containers[container])
    assert repr(got) == repr(outcome(lambda: seen_set_row(indexing, 2, 5, raw)))


def test_relabeling_pushes_once_per_row_or_column(level_map_calls, monkeypatch):
    reads = {"in_edges": 0, "column_support": 0}
    for name in reads:
        method = getattr(DiagramHandle, name)

        def counted(self, n, v, name=name, method=method):
            if self.name.startswith("relabel("):
                reads[name] += 1
            return method(self, n, v)

        monkeypatch.setattr(DiagramHandle, name, counted)
    d = relabel(make_diagram("tridiag_B"), level_shift(1))
    for n in range(4):
        d.incidence_window(n, (-12, 12), (-12, 12))
    assert level_map_calls["forward"] == 0
    assert 0 < level_map_calls["push"] <= reads["in_edges"] + reads["column_support"]


@PROPERTY
@given(spec=st.one_of(offsets, st.sampled_from(NAMES)), g=bijections,
       n=st.integers(0, 3), rank=st.integers(0, 12))
def test_a_relabeled_column_is_the_pushed_base_column(handles, spec, g, n, rank):
    """Whether the handle keeps `relabel`'s pushed column rule or derives
    its columns from its own rows under a derived width.  A one-sided
    catalog handle is relabeled by its identity."""
    if isinstance(spec, str):
        d = handles[spec]
    else:
        d = make_diagram("banded", offsets=spec, side="two")
    if d.indexing.mode == "one_sided":
        g = identity(d.indexing)
    w = g.target_indexing.from_rank(rank)
    want = d.column_support(n, g.inverse(n, w))
    if want is not None and want.is_finite:
        want = ColumnSupport.finite(g.push(n + 1, want.entries))
    assert relabel(d, g).column_support(n, w) == want


def test_a_width_bounded_relabeling_builds_from_its_rows(level_map_calls, monkeypatch):
    """The build reads the new handle's window rows once each, pushes
    each once, and, with a derived width, asks no column."""
    td = make_diagram("tridiag_B")
    counts = {"rows": 0, "columns": 0}
    in_edges, column_support = DiagramHandle.in_edges, DiagramHandle.column_support

    def counted_rows(self, n, v):
        counts["rows"] += self is not td
        return in_edges(self, n, v)

    def counted_columns(self, n, w):
        counts["columns"] += 1
        return column_support(self, n, w)

    monkeypatch.setattr(DiagramHandle, "in_edges", counted_rows)
    monkeypatch.setattr(DiagramHandle, "column_support", counted_columns)
    d = relabel(td, level_shift(1))
    assert 0 < counts["rows"] <= 34
    assert level_map_calls["push"] <= counts["rows"]
    assert counts["columns"] == 0 and not d.has_column_rule


def test_a_relabeling_keeps_and_checks_the_base_column_rule(monkeypatch):
    rs = make_diagram("renewal_shift")
    assert relabel(rs, identity(rs.indexing)).has_column_rule
    # vertex 1 feeds every vertex, not itself alone
    monkeypatch.setattr(rs, "column_support", lambda n, w: ColumnSupport.finite([(w, 1)]))
    with pytest.raises(InvariantError, match="column rule disagrees with rows"):
        relabel(rs, identity(rs.indexing))


def test_the_exhausted_search_reads_at_most_a_row_per_node(row_reads):
    """Every candidate is checked against dB's row at it and the incidence
    index, so the rows read stay within one per node: 3,645 over 5,883
    nodes on these windows, where a scan of the assigned vertices on both
    neighbouring levels read 25,941."""
    td, bs = make_diagram("tridiag_B"), make_diagram("shifted_Bsecond")
    row_reads[0] = 0
    res = iso_search(td, bs, 4, LevelWindow.uniform(td.indexing, 4, 8),
                     LevelWindow.uniform(bs.indexing, 4, 8))
    assert res.nodes_explored == 5883 < res.budget
    assert row_reads[0] <= res.nodes_explored
