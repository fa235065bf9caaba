import pytest

from gbdkit import (
    NoBoundedSizeFlagError,
    NotStationaryError,
    bounded_size_params,
    classify_irreducibility_type,
    compact_cylinder_check,
    cone_bound,
    connected_probe,
    cylinder_at,
    enumerate_paths,
    full_out_row_check,
    invariant_certificate,
    irreducible_probe,
    load_spec,
    make_diagram,
    minimality_certificate,
    period_of_index,
    prefix_from_trace,
    render_dot,
    slanting_membership,
)
from gbdkit.dynamics import _generator_battery
from gbdkit.specfmt import explicit_spec_of_window


def test_renewal_probe_yes_with_witness():
    rs = make_diagram("renewal_shift")
    v = irreducible_probe(rs, 3, 7, 0, 10)
    assert v.is_yes
    assert v.witness.validate(rs)
    assert v.witness.vertex_trace()[0] == 3
    assert v.witness.vertex_trace()[-1] == 7


def test_self_loop_probe():
    td = make_diagram("tridiag_B")
    v = irreducible_probe(td, 4, 4, 2, 1)
    assert v.is_yes and v.detail["level"] == 3


def test_triangular_no_is_sound():
    bi = make_diagram("b_infinity")
    v = irreducible_probe(bi, 2, 1, 0, 24)
    assert v.is_no and v.certificate.kind == "triangular_support"
    # exhaustive cross-check at small depth: no witnessing path exists
    for m in range(1, 7):
        paths, _ = enumerate_paths(bi, 2, 0, 1, m)
        assert paths == []


def test_probe_yes_witnesses_revalidate(handles):
    for d in handles.values():
        lo, hi = d.indexing.default_interval(3)
        for i in range(lo, hi + 1):
            for j in range(lo, hi + 1):
                v = irreducible_probe(d, i, j, 0, 8)
                if v.is_yes:
                    assert v.witness.validate(d)
                elif v.is_no:
                    for m in range(1, 6):
                        paths, _ = enumerate_paths(d, i, 0, j, m)
                        assert paths == [], (d.name, i, j, m)


def test_invariants_parity():
    p1 = make_diagram("parity_1")
    found = {(i.kind, i.params) for i in invariant_certificate(p1)}
    assert ("residue_class", (2, 1)) in found
    p2 = make_diagram("parity_2")
    found = {(i.kind, i.params) for i in invariant_certificate(p2)}
    assert ("residue_class", (2, 0)) in found


def test_invariants_tridiag_empty():
    td = make_diagram("tridiag_B")
    kinds = {i.kind for i in invariant_certificate(td)}
    assert "residue_class" not in kinds
    assert "triangular_support" not in kinds


def test_connected_probes():
    rs = make_diagram("renewal_shift")
    win = rs.default_window(4, 8)
    assert connected_probe(rs, 4, win).is_yes
    so = make_diagram("star_odometer")
    assert connected_probe(so, 4).is_yes
    p1 = make_diagram("parity_1")
    v = connected_probe(p1, 4)
    assert v.is_no and v.certificate.kind == "clopen_partition"
    p2 = make_diagram("parity_2")
    assert connected_probe(p2, 4).is_no


def test_period_examples():
    p1 = make_diagram("parity_1")
    assert period_of_index(p1, 0, 6) == (2, [2, 4, 6])
    td = make_diagram("tridiag_B")
    g, lengths = period_of_index(td, 0, 3)
    assert g == 1 and lengths == [1, 2, 3]
    rs = make_diagram("renewal_shift")
    assert period_of_index(rs, 1, 4)[0] == 1


def test_period_divisibility(handles):
    for d in handles.values():
        lo, hi = d.indexing.default_interval(2)
        for i in range(lo, hi + 1):
            g, lengths = period_of_index(d, i, 8)
            if g is not None:
                assert all(l % g == 0 for l in lengths)


def test_period_requires_stationary():
    text_levels = [{1: {1: 1, 2: 1}}, {1: {1: 2}, 2: {1: 1}}]
    from gbdkit import load_spec
    d = load_spec({"indexing": {"mode": "one_sided", "base": 1},
                   "levels": text_levels, "extension": "repeat_last"})
    with pytest.raises(NotStationaryError):
        period_of_index(d, 1, 4)


def test_bounded_size_params():
    td = make_diagram("tridiag_B")
    assert bounded_size_params(td, 0) == (1, 4, True)
    rs = make_diagram("renewal_shift")
    for k in (4, 6, 9):
        t, L, exact = bounded_size_params(rs, 0, (1, k))
        assert (t, L, exact) == (k - 1, 2, False)
    o2 = make_diagram("odometer_two_sided")
    assert bounded_size_params(o2, 0) == (1, 3, True)
    growth = make_diagram("growth_odometer")
    t, L, exact = bounded_size_params(growth, 0, (1, 10))
    assert t == 1 and L == 12 and not exact  # max row sum a_10 + 1


def test_cone_bound_examples():
    td = make_diagram("tridiag_B")
    interval, reach = cone_bound(td, 0, 0, 3)
    assert interval == (-3, 3)
    assert reach == list(range(-3, 4))
    p1 = make_diagram("parity_1")
    interval, reach = cone_bound(p1, 0, 0, 2)
    assert interval == (-2, 2) and reach == [-2, 0, 2]
    rs = make_diagram("renewal_shift")
    with pytest.raises(NoBoundedSizeFlagError):
        cone_bound(rs, 1, 0, 2)


def test_cone_containment_all_bounded(handles):
    for d in handles.values():
        if d.t_rule() is None:
            continue
        lo, hi = d.indexing.default_interval(6)
        for v in range(lo, hi + 1):
            for m in range(1, 7):
                (ilo, ihi), reach = cone_bound(d, v, 0, m)
                assert all(ilo <= u <= ihi for u in reach), (d.name, v, m)
                if d.name == "tridiag_B":
                    assert reach == list(range(ilo, ihi + 1))


def test_slanting_membership():
    td = make_diagram("tridiag_B")
    up = prefix_from_trace(td, [0, 1, 2])
    assert slanting_membership(td, up, 0, "+")
    vert = prefix_from_trace(td, [0, 0])
    assert not slanting_membership(td, vert, 0, "+")
    down = prefix_from_trace(td, [0, -1, -2])
    assert slanting_membership(td, down, 0, "-")
    assert not slanting_membership(td, down, 0, "+")


def test_compactness():
    td = make_diagram("tridiag_B")
    assert compact_cylinder_check(td, cylinder_at(td, 0)).is_yes
    rs = make_diagram("renewal_shift")
    for v in range(1, 8):
        assert compact_cylinder_check(rs, cylinder_at(rs, v)).is_no
    bi = make_diagram("b_infinity")
    assert compact_cylinder_check(bi, cylinder_at(bi, 5)).is_no
    so = make_diagram("star_odometer")
    assert compact_cylinder_check(so, cylinder_at(so, 3)).is_yes
    assert compact_cylinder_check(so, cylinder_at(so, 1)).is_no
    o1 = make_diagram("odometer_one_sided")
    assert compact_cylinder_check(o1, cylinder_at(o1, 4)).is_yes


def test_full_out_row_check():
    rs = make_diagram("renewal_shift")
    v = full_out_row_check(rs)
    assert v.is_yes
    assert set(v.witness["full_out_vertex_per_level"].values()) == {1}
    td = make_diagram("tridiag_B")
    assert full_out_row_check(td).is_no
    bi = make_diagram("b_infinity")
    assert full_out_row_check(bi).is_yes


def test_full_out_row_check_counts_rowless_targets_as_uncovered():
    # rows only for 0, 1 and 2, each fed by vertex 0 alone
    d = load_spec({"indexing": {"mode": "one_sided", "base": 0},
                   "levels": [{0: {0: 1}, 1: {0: 1}, 2: {0: 1}}],
                   "extension": "repeat_last",
                   "flags": [{"kind": "full_out_column", "vertex": 0}]})
    assert full_out_row_check(d).is_unknown


def test_classification():
    assert classify_irreducibility_type(make_diagram("renewal_shift")).is_completely
    for name in ("tridiag_B", "b_infinity", "star_odometer", "parity_2",
                 "odometer_one_sided", "odometer_two_sided", "parity_1",
                 "interleaved_Bprime", "shifted_Bsecond", "growth_odometer"):
        assert classify_irreducibility_type(make_diagram(name)).is_relatively, name


def test_classification_consistency(handles):
    # a diagram with a pair-excluding invariant is never completely irreducible
    for d in handles.values():
        cls = classify_irreducibility_type(d)
        if cls.is_completely:
            from gbdkit.probes import _has_excluding_power
            assert not any(_has_excluding_power(d, inv)
                           for inv in invariant_certificate(d) if inv.is_global)


def test_classify_rejects_inverted_window():
    with pytest.raises(ValueError, match="empty interval"):
        classify_irreducibility_type(make_diagram("renewal_shift"), window=(9, 1))


def test_bounded_size_params_rejects_inverted_window():
    with pytest.raises(ValueError, match="empty interval"):
        bounded_size_params(make_diagram("tridiag_B"), 0, (9, 1))


def test_classify_rejects_window_below_the_base():
    with pytest.raises(ValueError, match="below one-sided base 1"):
        classify_irreducibility_type(make_diagram("renewal_shift"), window=(-5, -1))


def test_bounded_size_params_rejects_window_below_the_base():
    with pytest.raises(ValueError, match="below one-sided base 1"):
        bounded_size_params(make_diagram("renewal_shift"), 0, (-5, -1))


def test_invariant_search_skips_undeclared_vertices():
    # rows only for 0, 1 and 2; vertex 0 feeds only itself
    d = load_spec({"indexing": {"mode": "one_sided", "base": 0},
                   "levels": [{0: {0: 1}, 1: {1: 1, 2: 1}, 2: {2: 1}}],
                   "extension": "repeat_last"})
    invs = invariant_certificate(d)
    assert [(i.kind, i.params) for i in invs] == [("triangular_support", ("upper", 0))]
    assert not any(i.is_global for i in invs)
    # no flag backs a global No
    assert irreducible_probe(d, 0, 1, 0, 4).is_unknown


def test_windowed_readers_skip_undeclared_vertices():
    # the spec above: vertex 3 and up have no declared row
    rows = {0: {0: 1}, 1: {1: 1, 2: 1}, 2: {2: 1}}
    d = load_spec({"indexing": {"mode": "one_sided", "base": 0},
                   "levels": [rows], "extension": "repeat_last"})
    # rowless vertices stay isolated, so the window cannot be connected
    assert connected_probe(d).is_unknown
    assert bounded_size_params(d, 0) == (1, 2, False)
    assert [g.describe() for g in _generator_battery(d)][:2] == [
        {"kind": "vertical", "params": {"vertex": 0}},
        {"kind": "vertical", "params": {"vertex": 1}}]
    assert minimality_certificate(d).is_unknown
    dot = render_dot(d, 1, radius=2)
    assert '"L1_4" [label="4"]' in dot and dot.count("->") == 4
    assert explicit_spec_of_window(d, 1, (0, 4))["levels"] == [rows, rows]
    assert d.out_edges_in_window(0, 2, (0, 8)) == [(1, 1), (2, 1)]


def test_window_without_declared_rows_is_never_exact():
    # a zero bound holds vacuously: no row is declared in the flag window
    d = load_spec({"indexing": {"mode": "one_sided", "base": 0},
                   "levels": [{40: {40: 1}}], "extension": "repeat_last",
                   "flags": [{"kind": "bounded_size", "t": 0, "L": 0}]})
    assert bounded_size_params(d, 0) == (0, 0, False)
    assert connected_probe(d, 1).is_unknown
