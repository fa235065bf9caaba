import collections

import pytest

from gbdkit import (
    NoBoundedSizeFlagError,
    alternating_from,
    cone_flatten,
    dense_orbit_reenumeration,
    irreducible_probe,
    make_diagram,
    pin_for_level,
    toeplitz_reenumeration,
    triangular_sequence,
    vertical_from,
    verify_permutation_identity,
)
from gbdkit.reenumerate import AssignmentLog, ForcedAssignment
from gbdkit.errors import ConflictError


def test_block_schedule_worked_values():
    # stage 0 fills the labeled blocks 0 / 01 / 012 / ... interleaved with gaps
    want0 = {0: 0, 2: 0, 3: 1, 6: 0, 7: 1, 8: 2, 12: 0, 13: 1, 14: 2, 15: 3}
    for level, label in want0.items():
        assert pin_for_level(level, 3) == (0, label), level
    # gaps: stage 1 takes the odd-length blocks, filling the first half
    assert pin_for_level(1, 3) == (1, 0)
    assert pin_for_level(9, 3) == (1, 0)
    assert pin_for_level(10, 3) == (1, 1)
    assert pin_for_level(11, 3) is None  # retired but never filled
    # stage 2 takes every second surviving even-length block
    assert pin_for_level(4, 3) == (2, 0)
    assert pin_for_level(5, 3) is None
    # the length-4 gap (levels 16..19) waits for a fourth generator
    for level in (16, 17, 18, 19):
        assert pin_for_level(level, 3) is None
    assert pin_for_level(16, 4) == (3, 0)
    assert pin_for_level(17, 4) == (3, 1)
    assert pin_for_level(18, 4) is None


def test_assignment_log_rejects_level_collision():
    log = AssignmentLog()
    log.add(ForcedAssignment(0, 5, 7, 1))
    with pytest.raises(ConflictError):
        log.add(ForcedAssignment(1, 5, 2, 0))


def test_assignment_log_reads_each_level_once():
    # a collision is looked up among the logged levels, not found by
    # rescanning every earlier record
    reads = [0]

    class Counted(ForcedAssignment):
        def __getattribute__(self, name):
            if name == "level":
                reads[0] += 1
            return super().__getattribute__(name)

    log = AssignmentLog()
    for level in range(300):
        log.add(Counted(0, level, 0, level))
    assert reads[0] <= 2 * 300
    with pytest.raises(ConflictError):
        log.add(Counted(1, 150, 0, 0))
    with pytest.raises(ConflictError):
        AssignmentLog([ForcedAssignment(0, 5, 7, 1)]).add(ForcedAssignment(1, 5, 2, 0))


def test_toeplitz_four_generators():
    td = make_diagram("tridiag_B")
    gens = [vertical_from(td, 0), vertical_from(td, 1),
            vertical_from(td, -1), alternating_from(td, 0)]
    g, d2, log = toeplitz_reenumeration(td, gens, horizon=2000)
    levels = [r.level for r in log.records]
    assert len(levels) == len(set(levels))
    for i, x in enumerate(gens):
        counts = collections.Counter(
            g.forward(l, x.vertex_at(l)) for l in range(2001))
        assert all(counts[j] >= 3 for j in range(11)), (i, counts)
    # per-level bijectivity across a window
    for level in (0, 3, 4, 16, 17, 25, 49):
        seen = set()
        for v in range(-40, 41):
            img = g.forward(level, v)
            assert img >= 0 and img not in seen
            seen.add(img)
            assert g.inverse(level, img) == v
    assert verify_permutation_identity(td, d2, g, 3, radius=8)


def test_toeplitz_forced_labels_give_irreducibility_evidence():
    td = make_diagram("tridiag_B")
    gens = [vertical_from(td, 0), vertical_from(td, 1), alternating_from(td, 0)]
    g, d2, log = toeplitz_reenumeration(td, gens, horizon=2000)
    for x in gens:
        for ell in (0, 2, 3):
            cyl_end_label = g.forward(ell, x.vertex_at(ell))
            for j in range(9):
                v = irreducible_probe(d2, cyl_end_label, j, ell, 64)
                assert v.is_yes, (x.describe(), ell, j, v.value)


def test_toeplitz_on_renewal():
    rs = make_diagram("renewal_shift")
    gens = [vertical_from(rs, 1)]
    g, d2, log = toeplitz_reenumeration(rs, gens, horizon=500)
    counts = collections.Counter(
        g.forward(l, gens[0].vertex_at(l)) for l in range(501))
    assert all(counts[j] >= 3 for j in range(8))


def test_dense_orbit_sequence():
    assert [triangular_sequence(n) for n in range(10)] == \
        [0, 0, 1, 0, 1, 2, 0, 1, 2, 3]
    td = make_diagram("tridiag_B")
    x = vertical_from(td, 0)
    g = dense_orbit_reenumeration(td, x)
    trace = [g.forward(n, x.vertex_at(n)) for n in range(220)]
    assert trace[:10] == [0, 0, 1, 0, 1, 2, 0, 1, 2, 3]
    assert trace[5] == 2
    zero_positions = [n for n, t in enumerate(trace) if t == 0]
    assert zero_positions[:5] == [0, 1, 3, 6, 10]
    for J in range(1, 21):
        T = J * (J + 1) // 2
        head = trace[:T]
        for j in range(J):
            assert head.count(j) == J - j, (J, j)


def test_cone_flatten_band():
    td = make_diagram("tridiag_B")
    g, d2, cert = cone_flatten(td)
    assert [g.forward(n, 0) for n in range(4)] == [0, -1, -2, -3]
    for v in range(-5, 6):
        assert dict(d2.in_edges(0, v)) == {v: 1, v + 1: 2, v + 2: 1}
    assert cert.kind == "triangular_support" and cert.params == ("upper", 0)
    assert cert.is_global
    # reachability only descends after flattening
    for w in range(-3, 4):
        assert irreducible_probe(d2, w, w + 1, 0, 10).is_no
        assert irreducible_probe(d2, w, w - 1, 0, 10).is_yes


def test_cone_flatten_parity():
    p1 = make_diagram("parity_1")
    g, d2, cert = cone_flatten(p1)
    assert dict(d2.in_edges(0, 0)) == {0: 1, 2: 1}
    assert cert.params[0] == "upper"


def test_cone_flatten_zero_rule_is_identity():
    from gbdkit import load_spec
    d = load_spec({"family": "banded", "side": "two",
                   "offsets": {0: 2}})
    g, d2, cert = cone_flatten(d)
    lo, hi = (-6, 6)
    assert d2.incidence_window(0, (lo, hi), (lo, hi)) == \
        d.incidence_window(0, (lo, hi), (lo, hi))


def test_cone_flatten_needs_width_or_anchor():
    rs = make_diagram("renewal_shift")
    with pytest.raises(NoBoundedSizeFlagError):
        cone_flatten(rs)


def test_cone_flatten_anchor_mode():
    # a two-sided diagram with exact columns but no declared width bound
    import gbdkit.indexing as ix
    from gbdkit.diagram import ColumnSupport, DiagramHandle

    def rows(n, v):
        return [(v, 2), (v + 1, 1)]

    def cols(n, w):
        return ColumnSupport.finite(((w - 1, 1), (w, 2)))

    plain = DiagramHandle(ix.two_sided(), rows, stationary_from=0,
                          col_rule=cols, name="plain_odometer")
    assert plain.width is None
    g, d2, cert = cone_flatten(plain, anchor=(0, 0), horizon=32)
    assert cert["kind"] == "anchored_floor"
    # the cone minima descend one per level, so the shift flattens them to 0
    assert g.forward(3, -3) == 0
    assert d2.in_edges(0, 0)
