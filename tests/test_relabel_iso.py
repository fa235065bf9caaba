import random

import pytest

from gbdkit import (
    ExplicitLevelsFlag,
    IndexingMismatchError,
    IsoWitness,
    LevelRule,
    LevelWindow,
    NoneWithinBudget,
    SchemaError,
    UnknownKindError,
    WindowTooSmallError,
    builtin_bijection,
    cone_shift,
    count_paths,
    identity,
    interleave,
    iso_search,
    level_shift,
    load_spec,
    make_diagram,
    one_sided,
    parse_bijection,
    partial_sequence,
    relabel,
    row_col_sum,
    two_sided,
    verify_permutation_identity,
    verify_witness,
)
from gbdkit.bijections import AffineMap


def two_sided_pairs():
    td = make_diagram("tridiag_B")
    p1 = make_diagram("parity_1")
    o2 = make_diagram("odometer_two_sided")
    return [(td, interleave()), (td, level_shift(1)), (td, cone_shift(1)),
            (p1, level_shift(2)), (p1, interleave()), (o2, cone_shift(1)),
            (o2, level_shift(-1))]


def test_builtin_bijection_values():
    g = builtin_bijection("interleave")
    assert g.forward(0, -2) == 3
    assert g.forward(5, 1) == 2
    g = builtin_bijection("level_shift", {"step": 1})
    assert g.forward(3, 5) == 8
    g = builtin_bijection("cone_shift", {"t": 0})
    assert all(g.forward(n, 4) == 4 for n in range(6))
    with pytest.raises(UnknownKindError):
        builtin_bijection("nope")


@pytest.mark.parametrize("doc", ["{kind: table_fill, source: {mode: bogus}}",
                                 "{kind: table_fill, target: {mode: bogus}}",
                                 "{kind: identity, mode: bogus}"])
def test_bijection_indexing_is_parsed_like_a_spec(doc):
    with pytest.raises(SchemaError, match="unknown indexing mode 'bogus'"):
        parse_bijection(doc)


def test_inverted_sequences():
    seqs = [identity(one_sided(1)), interleave(), level_shift(2), cone_shift(1),
            cone_shift(LevelRule("table", 1, (0, 1, 2))),
            builtin_bijection("table_fill", {"tables": {0: {0: 3, 1: 0}}}),
            partial_sequence(two_sided(), two_sided(), {1: {0: 1, 1: 0, 2: 2}})]
    kinds = ["affine", "interleave_inv", "affine", "affine", "affine",
             "table_fill", "partial"]
    steps = [0, None, -2, 1, None, None, None]
    for g, kind, step in zip(seqs, kinds, steps):
        gi = g.inverted()
        assert (gi.kind, gi.step, gi.params["inverse_of"]) == (kind, step, g.kind)
        assert gi.inverted().kind in (g.kind, "affine")
        for v in range(3):
            if g.source_indexing.contains(v):
                x = g.forward(1, v)
                assert gi.forward(1, x) == v and gi.inverse(1, v) == x
    # a shift inverts to a shift; a partial table's miss names the inverse's vertex
    assert isinstance(level_shift(1).inverted().map_at(3), AffineMap)
    with pytest.raises(WindowTooSmallError, match="vertex 5 outside"):
        seqs[-1].inverted().forward(1, 5)


def test_relabel_interleave_entries():
    td = make_diagram("tridiag_B")
    d = relabel(td, interleave())
    assert d.entry(0, 0, 2) == 1
    assert d.entry(3, 1, 3) == 1
    assert d.entry(2, 4, 1) == 0


def test_relabel_shift_is_triangular():
    td = make_diagram("tridiag_B")
    d = relabel(td, level_shift(1))
    for v in range(-6, 7):
        assert dict(d.in_edges(0, v)) == {v: 1, v - 1: 2, v - 2: 1}


def test_relabel_identity_fixes_everything(each_diagram):
    d = each_diagram
    g = identity(d.indexing)
    d2 = relabel(d, g)
    lo, hi = d.indexing.default_interval(8)
    for n in range(3):
        assert d2.incidence_window(n, (lo, hi), (lo, hi)) == \
            d.incidence_window(n, (lo, hi), (lo, hi))


def test_relabel_indexing_mismatch():
    rs = make_diagram("renewal_shift")
    with pytest.raises(IndexingMismatchError):
        relabel(rs, interleave())
    with pytest.raises(IndexingMismatchError):
        relabel(rs, level_shift(1))


def test_round_trip_windows():
    for d, g in two_sided_pairs():
        back = relabel(relabel(d, g), g.inverted())
        lo, hi = d.indexing.default_interval(12)
        for n in range(7):
            assert back.incidence_window(n, (lo, hi), (lo, hi)) == \
                d.incidence_window(n, (lo, hi), (lo, hi)), (d.name, g.kind, n)


def test_path_count_preserved_under_relabel():
    rng = random.Random(23)
    pairs = two_sided_pairs()
    for _ in range(100):
        d, g = pairs[rng.randrange(len(pairs))]
        d2 = relabel(d, g)
        lo, hi = d.indexing.default_interval(6)
        n = rng.randrange(0, 3)
        m = n + rng.randrange(0, 5)
        w = rng.randrange(lo, hi + 1)
        v = rng.randrange(lo, hi + 1)
        assert count_paths(d, w, n, v, m) == \
            count_paths(d2, g.forward(n, w), n, g.forward(m, v), m)


def test_row_sums_permuted_exactly():
    for d, g in two_sided_pairs():
        d2 = relabel(d, g)
        lo, hi = d.indexing.default_interval(9)
        for n in range(3):
            for v in range(lo, hi + 1):
                assert sum(m for _, m in d.in_edges(n, v)) == \
                    sum(m for _, m in d2.in_edges(n, g.forward(n + 1, v)))


def test_identity_holds_for_every_builtin(each_diagram):
    d = each_diagram
    candidates = [identity(d.indexing)]
    if d.indexing.mode == "two_sided":
        candidates += [interleave(), level_shift(1), cone_shift(1)]
    for g in candidates:
        d2 = relabel(d, g)
        assert verify_permutation_identity(d, d2, g, 4, radius=10), \
            (d.name, g.kind)


def test_verify_detects_mismatch():
    td = make_diagram("tridiag_B")
    other = make_diagram("parity_1")
    assert not verify_permutation_identity(td, other, identity(td.indexing), 2,
                                           radius=6)


def test_partial_table_raises_window_too_small():
    td = make_diagram("tridiag_B")
    g = partial_sequence(td.indexing, td.indexing,
                         {n: {v: v for v in range(-3, 4)} for n in range(3)})
    with pytest.raises(WindowTooSmallError):
        verify_permutation_identity(td, td, g, 2, radius=6)


def test_swapped_labels_fail_identity():
    td = make_diagram("tridiag_B")
    tables = {}
    for n in range(4):
        t = {v: v for v in range(-9, 10)}
        if n == 1:
            t[0], t[1] = 1, 0
        tables[n] = t
    g = partial_sequence(td.indexing, td.indexing, tables)
    assert not verify_permutation_identity(
        td, td, g, 2, LevelWindow.uniform(td.indexing, 3, 6))


def test_iso_search_finds_fold_witness():
    td = make_diagram("tridiag_B")
    bp = make_diagram("interleaved_Bprime")
    wa = LevelWindow.uniform(td.indexing, 4, 8)
    wb = LevelWindow.uniform(bp.indexing, 4, 8)
    res = iso_search(td, bp, 3, wa, wb)
    assert isinstance(res, IsoWitness)
    assert verify_witness(td, bp, res)
    assert res.tables[0][0] == 0  # the center must map to the fold's center


def test_iso_search_self_identity(each_diagram):
    d = each_diagram
    w = LevelWindow.uniform(d.indexing, 3, 4)
    res = iso_search(d, d, 2, w, w)
    assert isinstance(res, IsoWitness)
    assert verify_witness(d, d, res)


def test_iso_search_budget_report():
    rs = make_diagram("renewal_shift")
    bi = make_diagram("b_infinity")
    wa = LevelWindow.uniform(rs.indexing, 3, 8)
    wb = LevelWindow.uniform(bi.indexing, 3, 8)
    res = iso_search(rs, bi, 2, wa, wb, budget=50_000)
    assert isinstance(res, NoneWithinBudget)
    assert res.nodes_explored <= 50_000


def test_iso_search_node_counts_are_pinned():
    # variable order, candidate order and budget rule fix these counts
    td = make_diagram("tridiag_B")
    bp = make_diagram("interleaved_Bprime")
    bs = make_diagram("shifted_Bsecond")
    res = iso_search(td, bp, 6, LevelWindow.uniform(td.indexing, 6, 16),
                     LevelWindow.uniform(bp.indexing, 6, 16))
    assert isinstance(res, IsoWitness) and res.nodes_explored == 231
    assert verify_witness(td, bp, res)
    res = iso_search(td, bs, 4, LevelWindow.uniform(td.indexing, 4, 8),
                     LevelWindow.uniform(bs.indexing, 4, 8))
    assert isinstance(res, NoneWithinBudget) and res.nodes_explored == 5883


@pytest.mark.parametrize("depth,radius", [(1, 3), (2, 4)])
def test_iso_search_compares_the_rows_into_each_level(depth, radius):
    # g_n(v) = v + n maps the spec onto its level_shift(1) relabeling
    d = load_spec({"levels": [{v: {v - 1: 1, v: v % 3 + 1} for v in range(-40, 41)}],
                   "extension": "repeat_last"})
    d2 = relabel(d, level_shift(1))
    res = iso_search(d, d2, depth, LevelWindow.uniform(d.indexing, depth, radius),
                     LevelWindow.uniform(d2.indexing, depth, radius + 3))
    assert isinstance(res, IsoWitness) and verify_witness(d, d2, res)


def test_relabel_of_a_repeating_spec_by_a_level_dependent_map():
    d = load_spec({"levels": [{v: {v - 1: 1, v: v % 3 + 1} for v in range(-40, 41)}],
                   "extension": "repeat_last"})
    g = level_shift(1)
    d2 = relabel(d, g)
    # replaying level 0 under g_0 would be wrong past level 0
    assert d2.get_flag(ExplicitLevelsFlag) is None
    assert verify_permutation_identity(d, d2, g, 5)
    assert relabel(d, identity(d.indexing)).get_flag(ExplicitLevelsFlag) is not None


def test_row_col_sums():
    td = make_diagram("tridiag_B")
    rs = make_diagram("renewal_shift")
    bi = make_diagram("b_infinity")
    assert row_col_sum(td, 0, "row", 3) == (4, True)
    assert all(row_col_sum(td, 0, "row", v) == (4, True) for v in range(-8, 9))
    assert row_col_sum(rs, 0, "row", 7) == (2, True)
    assert row_col_sum(bi, 0, "row", 6) == (6, True)
    # column sums: exact only when the support provably fits the window
    assert row_col_sum(td, 0, "col", 0, (-2, 2)) == (4, True)
    assert row_col_sum(td, 0, "col", 0, (0, 2)) == (3, False)
    assert row_col_sum(rs, 0, "col", 1, (1, 10))[1] is False
    assert row_col_sum(rs, 0, "col", 5, (1, 10)) == (1, True)
