import pytest

from gbdkit import (
    BandedFlag,
    BoundedSizeFlag,
    ColumnSupport,
    DiagramHandle,
    InvalidVertexError,
    InvariantError,
    ParseError,
    SchemaError,
    UnsupportedLevelError,
    builtin_bijection,
    interleave,
    load_spec,
    make_diagram,
    one_sided,
    parse_bijection,
    parse_generator,
    relabel,
    two_sided,
)


def test_indexing_ranks_roundtrip():
    for idx in (two_sided(), one_sided(0), one_sided(1)):
        for r in range(40):
            assert idx.canonical_rank(idx.from_rank(r)) == r


def test_one_sided_rejects_below_base():
    d = make_diagram("renewal_shift")
    with pytest.raises(InvalidVertexError):
        d.in_edges(0, 0)


def test_renewal_rows():
    d = make_diagram("renewal_shift")
    assert d.in_edges(3, 1) == [(1, 1), (2, 1)]
    assert d.in_edges(0, 5) == [(1, 1), (6, 1)]


def test_tridiag_rows_and_window():
    d = make_diagram("tridiag_B")
    assert d.in_edges(2, 0) == [(-1, 1), (0, 2), (1, 1)]
    assert d.incidence_window(0, (-1, 1), (-1, 1)) == [
        [2, 1, 0], [1, 2, 1], [0, 1, 2]]


def test_b_infinity_rows():
    d = make_diagram("b_infinity")
    assert d.in_edges(0, 3) == [(1, 1), (2, 1), (3, 1)]
    assert d.in_edges(0, 1) == [(1, 1)]


def test_out_edges_windowed():
    rs = make_diagram("renewal_shift")
    assert rs.out_edges_in_window(0, 1, (1, 4)) == [
        (1, 1), (2, 1), (3, 1), (4, 1)]
    td = make_diagram("tridiag_B")
    assert td.out_edges_in_window(0, 0, (-1, 1)) == [(-1, 1), (0, 2), (1, 1)]
    assert td.out_edges_in_window(0, 0, (5, 7)) == []


def test_zero_entry_window():
    rs = make_diagram("renewal_shift")
    assert rs.incidence_window(0, (5, 5), (3, 3)) == [[0]]


def test_rows_nonempty_and_positive(each_diagram):
    d = each_diagram
    lo, hi = d.indexing.default_interval(10)
    for n in range(3):
        for v in range(lo, hi + 1):
            row = d.in_edges(n, v)
            assert row, (d.name, n, v)
            assert all(m >= 1 for _, m in row)
            assert [w for w, _ in row] == sorted({w for w, _ in row})


def test_out_in_consistency(each_diagram):
    d = each_diagram
    lo, hi = d.indexing.default_interval(6)
    for n in range(2):
        for w in range(lo, hi + 1):
            for v, mult in d.out_edges_in_window(n, w, (lo, hi)):
                assert dict(d.in_edges(n, v)).get(w) == mult
        for v in range(lo, hi + 1):
            for w, mult in d.in_edges(n, v):
                if lo <= w <= hi:
                    assert (v, mult) in d.out_edges_in_window(n, w, (lo, hi))


def test_incidence_window_matches_rows(each_diagram):
    d = each_diagram
    lo, hi = d.indexing.default_interval(5)
    mat = d.incidence_window(1, (lo, hi), (lo, hi))
    for i, v in enumerate(range(lo, hi + 1)):
        row = dict(d.in_edges(1, v))
        for k, w in enumerate(range(lo, hi + 1)):
            assert mat[i][k] == row.get(w, 0)


def test_stationary_levels_agree(each_diagram):
    d = each_diagram
    assert d.stationary
    lo, hi = d.indexing.default_interval(5)
    base = d.incidence_window(0, (lo, hi), (lo, hi))
    for n in range(1, 9):
        assert d.incidence_window(n, (lo, hi), (lo, hi)) == base


def test_column_rules_match_rows(each_diagram):
    d = each_diagram
    lo, hi = d.indexing.default_interval(8)
    for w in range(lo, hi + 1):
        sup = d.column_support(0, w)
        if sup is None or not sup.is_finite:
            continue
        windowed = [(v, m) for v, m in sup.entries if lo <= v <= hi]
        assert windowed == d.out_edges_in_window(0, w, (lo, hi))


# --- spec format ---------------------------------------------------------------

def test_load_family_inline_json():
    d = load_spec('{"family":"renewal_shift"}')
    assert d.indexing.mode == "one_sided" and d.indexing.base == 1


def test_load_banded_equals_tridiag():
    d = load_spec('{"family":"banded","side":"two","offsets":{"-1":1,"0":2,"1":1}}')
    td = make_diagram("tridiag_B")
    assert d.incidence_window(0, (-5, 5), (-5, 5)) == \
        td.incidence_window(0, (-5, 5), (-5, 5))


def test_load_banded_empty_offsets_rejected():
    with pytest.raises(InvariantError):
        load_spec('{"family":"banded","offsets":{}}')


@pytest.mark.parametrize("base", [0, 1, 5])
@pytest.mark.parametrize("offsets", [{-1: 1}, {-2: 1, -1: 1}, {-3: 2}])
def test_one_sided_band_with_an_empty_base_row_rejected(offsets, base):
    with pytest.raises(InvariantError,
                       match=f"empty incidence row at level 0, vertex {base}$"):
        make_diagram("banded", offsets=offsets, side="one", base=base)


def test_load_yaml_block_form():
    text = """
family: odometer_one_sided
a: 3
"""
    d = load_spec(text)
    assert d.in_edges(0, 2) == [(2, 3), (3, 1)]


def test_load_explicit_and_extension():
    text = """
indexing: {mode: one_sided, base: 1}
levels:
  - {1: {1: 2}, 2: {1: 1, 2: 1}}
extension: repeat_last
"""
    d = load_spec(text)
    assert d.in_edges(0, 1) == [(1, 2)]
    assert d.in_edges(7, 2) == [(1, 1), (2, 1)]  # repeats the last level
    with pytest.raises(InvalidVertexError):
        d.in_edges(0, 9)


def test_load_explicit_error_beyond():
    text = """
indexing: {mode: one_sided, base: 1}
levels:
  - {1: {1: 2}, 2: {1: 1, 2: 1}}
"""
    d = load_spec(text)
    with pytest.raises(UnsupportedLevelError):
        d.in_edges(1, 1)


def test_float_rejected():
    with pytest.raises(SchemaError):
        load_spec('{"family":"odometer_one_sided","a":2.5}')


def test_parse_error():
    with pytest.raises(ParseError):
        load_spec("family: [unclosed")


def test_unknown_family():
    with pytest.raises(SchemaError):
        load_spec('{"family":"nope"}')


@pytest.mark.parametrize("doc,message", [
    # a typo would build the default a = 2 and record A: 3 in the params
    ({"family": "odometer_one_sided", "A": 3},
     r"unknown odometer_one_sided params \['A'\]"),
    ({"family": "tridiag_B", "flags": [{"kind": "bounded_size", "t": 1}]},
     r"unknown tridiag_B params \['flags'\]"),
    ({"family": "tridiag_B", "indexing": {"mode": "two_sided"}},
     r"unknown tridiag_B params \['indexing'\]"),
    ({"family": {"name": "odometer_two_sided", "params": {"A": 3}}},
     r"unknown odometer_two_sided params \['A'\]"),
    ({"family": {"name": "tridiag_B"}, "flags": []},
     r"unknown keys \['flags'\] in a nested family spec"),
    ({"family": {"name": "tridiag_B", "params": 5}},
     "nested family params must be a mapping"),
    ({"family": ["tridiag_B"]}, r"unknown catalog family \['tridiag_B'\]"),
], ids=["typo", "flags", "indexing", "nested typo", "beside nested",
        "nested params", "list"])
def test_family_spec_holds_only_the_family_parameters(doc, message):
    with pytest.raises(SchemaError, match=message):
        load_spec(doc)


def test_family_parameters_still_load():
    assert load_spec({"family": "odometer_one_sided", "a": 3}).row(0, 3) == \
        ((3, 3), (4, 1))
    nested = load_spec({"family": {"name": "odometer_one_sided",
                                   "params": {"a": 3}}})
    assert nested.params == {"a": 3}
    with pytest.raises(SchemaError, match=r"unknown banded params \['sides'\]"):
        make_diagram("banded", offsets={0: 1}, sides="two")



@pytest.mark.parametrize("read,message", [
    (lambda: parse_bijection("{kind: level_shift, step: 2, bogus: 1}"),
     r"unknown keys \['bogus'\] in the level_shift bijection"),
    # a tail follows only a table of widths
    (lambda: parse_bijection("{kind: cone_shift, t: 2, tail: 1}"),
     r"unknown keys \['tail'\] in the cone_shift bijection"),
    (lambda: parse_bijection("{kind: interleave, step: 1}"),
     r"unknown keys \['step'\] in the interleave bijection"),
    (lambda: load_spec("levels: [{0: {0: 1}}]\n"
                       "flags: [{kind: bounded_size, t: 1, bogus: 2}]\n"),
     r"unknown keys \['bogus'\] in the bounded_size flag"),
    (lambda: parse_generator(make_diagram("tridiag_B"),
                             {"kind": "vertical", "vertex": 3, "bogus": 1}),
     r"unknown keys \['bogus'\] in the vertical generator"),
    (lambda: parse_generator(make_diagram("renewal_shift"), {
        "kind": "table_then_rule", "table": [3, 2, 1],
        "tail": {"kind": "vertical", "vertex": 1, "step": 2}}),
     r"unknown keys \['step'\] in the table_then_rule tail"),
    (lambda: load_spec("levels: [{0: {0: 1}}]\nbogus: 3\n"),
     r"unknown keys \['bogus'\] in an explicit spec"),
    (lambda: load_spec("explicit: {levels: [{0: {0: 1}}]}\nextension: repeat_last\n"),
     r"unknown keys \['extension'\] in an explicit spec"),
    (lambda: load_spec("explicit: {levels: [{0: {0: 1}}], bogus: 1}\n"),
     r"unknown keys \['bogus'\] in an explicit spec body"),
    (lambda: load_spec("levels: [{0: {0: 1}}]\n"
                       "indexing: {mode: two_sided, bogus: 1}\n"),
     r"unknown keys \['bogus'\] in an indexing"),
], ids=["bijection", "cone_shift tail", "interleave", "flag", "generator",
        "generator tail", "explicit spec", "beside explicit", "explicit body",
        "indexing"])
def test_spec_readers_reject_keys_their_kind_does_not_read(read, message):
    with pytest.raises(SchemaError, match=message):
        read()


def test_every_key_a_kind_reads_still_loads():
    assert parse_bijection("{kind: cone_shift, t: [1, 2], tail: 3}").params == \
        {"t": [1, 2], "tail": 3}
    assert parse_bijection("{kind: identity, mode: one_sided, base: 1}") \
        .source_indexing == one_sided(1)
    g = parse_bijection("{kind: table_fill, source: {mode: two_sided}, "
                        "target: {mode: one_sided, base: 0}, tables: {0: {0: 5}}}")
    assert g.forward(0, 0) == 5
    d = load_spec("explicit: {levels: [{0: {0: 1}}], extension: repeat_last}\n"
                  "indexing: {mode: one_sided, base: 0}\n"
                  "flags: [{kind: bounded_size, t: 0, L: 1}, "
                  "{kind: triangular, direction: lower, slack: 0}]\n")
    assert d.row(7, 0) == ((0, 1),)
    x = parse_generator(make_diagram("renewal_shift"), {
        "kind": "table_then_rule", "table": [3, 2, 1],
        "tail": {"kind": "vertical", "vertex": 1}})
    assert x.vertex_at(5) == 1


def test_an_empty_banded_flag_is_rejected_at_construction():
    with pytest.raises(InvariantError, match="at least one offset"):
        BandedFlag(())
    # a spec file names its own field
    with pytest.raises(SchemaError, match="nonempty offset map"):
        load_spec("levels: [{0: {0: 1}}]\nflags: [{kind: banded, offsets: {}}]\n")

def test_declared_flag_failure_rejected():
    text = """
indexing: {mode: one_sided, base: 1}
levels:
  - {1: {1: 2}, 2: {1: 1, 2: 1}}
flags:
  - {kind: full_out_column, vertex: 2}
"""
    with pytest.raises(InvariantError):
        load_spec(text)


def _rows_one_sided(levels_yaml: str, flag: str) -> str:
    return (f"indexing: {{mode: one_sided, base: 1}}\nlevels:\n  - {levels_yaml}\n"
            f"flags:\n  - {flag}\n")


FLAG_VIOLATIONS = {
    "banded": ("indexing: {mode: two_sided}\nlevels:\n  - {0: {0: 1, 1: 1}, 1: {1: 1}}\n"
               "extension: repeat_last\nflags:\n  - {kind: banded, offsets: {0: 1, 1: 1}}\n",
               "Banded flag fails at level 0, vertex 1"),
    "triangular": (_rows_one_sided("{1: {1: 1}, 2: {1: 1, 3: 1}, 3: {3: 1}}",
                                   "{kind: triangular, direction: lower}"),
                   r"Triangular\(lower\) flag fails at level 0: source 3 of target 2"),
    "bounded_size t": (_rows_one_sided("{1: {1: 1, 4: 1}, 2: {2: 1}}",
                                       "{kind: bounded_size, t: 2}"),
                       "BoundedSize t=2 fails at level 0, vertex 1"),
    "bounded_size L": (_rows_one_sided("{1: {1: 1}, 2: {2: 3}}",
                                       "{kind: bounded_size, t: 2, L: 2}"),
                       "BoundedSize row-sum bound fails at level 0, vertex 2"),
    "full_out_column": (_rows_one_sided("{1: {1: 2}, 2: {1: 1, 2: 1}}",
                                        "{kind: full_out_column, vertex: 2}"),
                        r"FullOutColumn\(2\) misses target 1 at level 0"),
    "infinite_out_degrees": (_rows_one_sided("{1: {1: 1}, 2: {1: 1}, 3: {1: 1}}",
                                             "infinite_out_degrees"),
                             "InfiniteOutDegrees flag implausible at vertex 1, level 0"),
}


@pytest.mark.parametrize("kind", sorted(FLAG_VIOLATIONS))
def test_each_flag_kind_rejects_a_violation(kind):
    text, message = FLAG_VIOLATIONS[kind]
    with pytest.raises(InvariantError, match=message):
        load_spec(text)


def test_column_rule_disagreeing_with_rows_rejected():
    def rows(n, v):
        return [(v, 1), (v + 1, 1)]

    def cols(n, w):  # misses the target w - 1
        return ColumnSupport.finite([(w, 1)])

    with pytest.raises(InvariantError,
                       match="column rule disagrees with rows at level 0, source -8"):
        DiagramHandle(two_sided(), rows, stationary=True, col_rule=cols)


def column_claiming_20(n, w):
    # source 0 claims target 20, outside the verified window, whose row
    # does not hold 0
    return ColumnSupport.finite([(w, 1)] + ([(20, 1)] if w == 0 else []))


def column_all_at_0(n, w):
    return ColumnSupport.all_targets() if w == 0 else ColumnSupport.finite([(w, 1)])


@pytest.mark.parametrize("cols,message", [
    (column_claiming_20,
     r"column rule claims \(20,1\) missing from rows at level 0, source 0"),
    (column_all_at_0, "column rule 'all' fails at level 0, source 0"),
], ids=["finite beyond the window", "all"])
def test_column_rule_checked_beyond_the_window_rows(cols, message):
    with pytest.raises(InvariantError, match=message):
        DiagramHandle(two_sided(), lambda n, v: [(v, 1)], stationary=True,
                      col_rule=cols)


def test_building_a_handle_reads_few_rows(monkeypatch):
    reads = [0]
    row = DiagramHandle.row

    def counted(self, n, v):
        reads[0] += 1
        return row(self, n, v)

    monkeypatch.setattr(DiagramHandle, "row", counted)
    td = make_diagram("tridiag_B")
    assert reads[0] < 250
    reads[0] = 0
    relabel(td, interleave())
    # one read per window row and level, plus column claims beyond the window
    assert reads[0] < 250


def test_empty_and_disjoint_windows():
    td = make_diagram("tridiag_B")
    assert td.out_edges_in_window(0, 0, (3, 1)) == []  # inverted interval
    rs = make_diagram("renewal_shift")
    assert rs.out_edges_in_window(0, 4, (1, 2)) == []


def test_bad_bijection_label_is_not_read_as_an_undeclared_row():
    # the pin sends 0 to -1, below the target's base 0
    g = builtin_bijection("table_fill", {"tables": {1: {0: -1}}})
    with pytest.raises(InvalidVertexError, match="-1 below one-sided base 0"):
        relabel(make_diagram("tridiag_B"), g)


def test_row_with_a_source_below_the_base_rejected():
    def rows(n, v):
        return [(0, 1)] if v == 2 else [(v, 1)]

    with pytest.raises(InvariantError,
                       match=r"source 0 below one-sided base 1 in row \(0, 2\)"):
        DiagramHandle(one_sided(1), rows, flags=(BoundedSizeFlag(1),))


def test_explicit_row_with_a_source_below_the_base_rejected():
    spec = {"indexing": {"mode": "one_sided", "base": 1},
            "levels": [{1: {0: 1, 1: 1}, 2: {2: 1}}]}
    with pytest.raises(InvariantError,
                       match=r"source 0 below one-sided base 1 in row \(0, 1\)"):
        load_spec(spec)


@pytest.mark.parametrize("extension", ["error_beyond", "repeat_last"])
def test_column_support_past_the_declared_levels(extension):
    # the width flag puts every target of 2 in 1..3, whose rows are declared
    d = load_spec({"indexing": {"mode": "one_sided", "base": 1},
                   "levels": [{1: {1: 2}, 2: {1: 1, 2: 1}, 3: {3: 1}},
                              {1: {1: 1}, 2: {2: 3}, 3: {3: 1}}],
                   "extension": extension,
                   "flags": [{"kind": "bounded_size", "t": 1}]})
    assert d.column_support(1, 2).entries == ((2, 3),)
    if extension == "error_beyond":
        with pytest.raises(UnsupportedLevelError):
            d.column_support(2, 2)
    else:
        assert d.column_support(5, 2) == d.column_support(1, 2)
        assert d.in_edges(5, 2) == d.in_edges(1, 2)


# The hand-written column rules the width-bounded families carried before
# their columns were derived from rows, kept here as the reference.

def _banded_reference(offsets):
    def cols(d, w):
        return [(w - o, m) for o, m in offsets.items() if d.indexing.contains(w - o)]
    return cols


def _interleaved_reference(d, w):
    special = {0: ((0, 2), (1, 1), (2, 1)), 1: ((0, 1), (1, 2), (3, 1)),
               2: ((0, 1), (2, 2), (4, 1)), 3: ((1, 1), (3, 2), (5, 1))}
    return special.get(w, ((w - 2, 1), (w, 2), (w + 2, 1)))


def _odometer_reference(a):
    def cols(d, w):
        return [(w, a(w))] + ([(w - 1, 1)] if d.indexing.contains(w - 1) else [])
    return cols


REFERENCE_COLUMNS = [
    ("tridiag_B", {}, _banded_reference({-1: 1, 0: 2, 1: 1})),
    ("shifted_Bsecond", {}, _banded_reference({0: 1, -1: 2, -2: 1})),
    ("parity_1", {}, _banded_reference({-1: 1, 1: 1})),
    ("parity_2", {}, _banded_reference({-2: 1, 2: 1})),
    ("banded", {"offsets": {0: 1, 2: 3}, "side": "one", "base": 0},
     _banded_reference({0: 1, 2: 3})),
    ("interleaved_Bprime", {}, _interleaved_reference),
    ("odometer_one_sided", {}, _odometer_reference(lambda v: 2)),
    ("odometer_two_sided", {"a": 3}, _odometer_reference(lambda v: 3)),
    ("growth_odometer", {}, _odometer_reference(lambda v: v + 1)),
]


@pytest.mark.parametrize("name,params,reference", REFERENCE_COLUMNS,
                         ids=[name for name, _, _ in REFERENCE_COLUMNS])
def test_derived_columns_equal_the_family_formulas(name, params, reference):
    d = make_diagram(name, **params)
    lo, hi = d.indexing.default_interval(12)
    for n in range(3):
        for w in range(lo, hi + 1):
            assert d.column_support(n, w) == ColumnSupport.finite(reference(d, w)), (n, w)
