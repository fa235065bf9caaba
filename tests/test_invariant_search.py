"""One invariant search per handle and window, filtered by each probe.

`reference_find_invariants` below is the search as it was while it took
a kind subset and an `include_slope_only` switch, and
`ref_global_invariants` is the call the orbit probe made with them.
They stay here, unchanged, as the reference each probe's filter of the
one memoized list is compared with.
"""

import gc
import sys
import threading
import weakref

import pytest

from gbdkit import (
    DiagramHandle,
    cone_shift,
    cylinder_at,
    identity,
    interleave,
    leftmost_slant_from,
    level_shift,
    make_diagram,
    orbit_visits_cylinder,
    relabel,
    vertical_from,
)
from gbdkit.diagram import DEFAULT_HORIZON
from gbdkit.errors import IndexingMismatchError, InvariantError
from gbdkit.indexing import two_sided
from gbdkit.verdicts import (
    ALL_KINDS,
    CLOPEN,
    CONE,
    MAX_LEVEL_COEFF,
    MAX_MODULUS,
    MAX_SLACK,
    RESIDUE,
    TRIANGULAR,
    NonReachInvariant,
    _residue_global_via,
    _SEARCHES,
    _triangular_global_via,
    _window_edges,
    find_invariants,
    reverify,
    window_desc,
)
from gbdkit import verdicts
from gbdkit.probes import invariant_certificate
from gbdkit.specfmt import load_spec
from gbdkit.windows import LevelWindow

from conftest import NAMES
from test_class_invariance import generators


# --- the reference: the search with kinds and slope options ------------------------

def reference_find_invariants(d, window, kinds=ALL_KINDS,
                              include_slope_only=False):
    found = []
    wdesc = window_desc(window)
    edges = _window_edges(d, window)
    if TRIANGULAR in kinds:
        lo_slacks = range(-MAX_SLACK, (MAX_SLACK if include_slope_only else 0) + 1)
        up_slacks = range(MAX_SLACK, (-MAX_SLACK if include_slope_only else 0) - 1, -1)
        for direction, slacks in (("lower", lo_slacks), ("upper", up_slacks)):
            for c in slacks:
                admits = verdicts.TriangularFlag(direction, c).admits
                if all(admits(v, w) for v, w in edges):
                    found.append(NonReachInvariant(
                        TRIANGULAR, (direction, c), wdesc, True,
                        _triangular_global_via(d, direction, c)))
                    break
    if RESIDUE in kinds or CLOPEN in kinds:
        seen = set()
        for p in range(2, MAX_MODULUS + 1):
            for a in range(-MAX_LEVEL_COEFF, MAX_LEVEL_COEFF + 1):
                a_canon = a % p
                if (p, a_canon) in seen:
                    continue
                if all((v - w + a_canon) % p == 0 for v, w in edges):
                    seen.add((p, a_canon))
                    via = _residue_global_via(d, p, a_canon)
                    if RESIDUE in kinds:
                        found.append(NonReachInvariant(
                            RESIDUE, (p, a_canon), wdesc, True, via))
                    if CLOPEN in kinds and p == 2:
                        found.append(NonReachInvariant(
                            CLOPEN, (p, a_canon), wdesc, True, via))
    if CONE in kinds:
        t = d.width
        if t is not None and all(abs(w - v) <= t for v, w in edges):
            found.append(NonReachInvariant(
                CONE, (t,), wdesc, True, ("BoundedSizeFlag",)))
    return found


def ref_global_invariants(d):
    invs = [inv for inv in reference_find_invariants(
                d, d.default_window(), (TRIANGULAR, RESIDUE, CONE),
                include_slope_only=True)
            if inv.is_global]
    invs.sort(key=lambda i: 0 if i.kind == CONE else 1)
    return invs


# --- handles: the fixed families and their relabels ----------------------------------

RELABELS = {"identity": lambda d: identity(d.indexing),
            "level_shift(1)": lambda d: level_shift(1),
            "cone_shift(1)": lambda d: cone_shift(1),
            "interleave": lambda d: interleave()}


def handle(name, label):
    """The family, or its relabel; None where the family's indexing does
    not allow the bijection."""
    d = make_diagram(name)
    if label is None:
        return d
    try:
        return relabel(d, RELABELS[label](d))
    except IndexingMismatchError:
        return None


CASES = [(name, label) for name in NAMES for label in (None, *RELABELS)
         if handle(name, label) is not None]


def test_every_relabel_applies_somewhere():
    assert {label for _, label in CASES} == {None, *RELABELS}


@pytest.mark.parametrize("name,label", CASES)
def test_each_filter_gives_the_reference_answer(name, label):
    d = handle(name, label)
    for window in (d.default_window(), d.default_window(4),
                   d.default_window(5, 12)):
        invs = find_invariants(d, window)
        ref = reference_find_invariants

        # invariant_certificate drops the drift-only triangular bounds
        assert invariant_certificate(d, window) == ref(d, window)
        # irreducible_probe: the first invariant excluding the pair
        lo, hi = d.indexing.default_interval(3)
        for i in range(lo, hi + 1):
            for j in range(lo, hi + 1):
                assert [inv for inv in invs if inv.excludes_pair(i, j)] == \
                    [inv for inv in ref(d, window) if inv.excludes_pair(i, j)]
        # classification
        assert [inv for inv in invs if inv.excludes_some_pair] == \
            [inv for inv in ref(d, window) if inv.excludes_some_pair]
        # compact_cylinder_check and the width branch of cone_flatten
        assert [inv for inv in invs
                if inv.kind == TRIANGULAR and inv.never_ascends] == \
            [inv for inv in ref(d, window, (TRIANGULAR,)) if inv.never_ascends]
        # connected_probe
        assert [inv for inv in invs if inv.kind == CLOPEN] == \
            ref(d, window, (CLOPEN,))

    # orbit_visits_cylinder: global invariants, cone first; those left
    # unfiltered (clopen or not global) have no separation level
    ordered = sorted(find_invariants(d, d.default_window()),
                     key=lambda i: i.kind != CONE)
    old = ref_global_invariants(d)
    assert [inv for inv in ordered
            if inv.is_global and inv.kind != CLOPEN] == old
    lo, hi = d.indexing.clamp(*d.indexing.default_interval(3))
    for x in generators(d):
        ev = x.eventual(DEFAULT_HORIZON)
        if ev is None:
            continue
        for ell in (0, 1, 2):
            for j in range(lo, hi + 1):
                got = [(inv, inv.separation_level(j, ell, ev)) for inv in ordered]
                want = [(inv, inv.separation_level(j, ell, ev)) for inv in old]
                assert [g for g in got if g[1] is not None] == \
                    [w for w in want if w[1] is not None]


def test_drift_only_bounds_are_in_the_one_list():
    # renewal_shift's rows hold v + 1, so only the lower slack 1 holds
    d = make_diagram("renewal_shift")
    tri = [inv.params for inv in find_invariants(d, d.default_window())
           if inv.kind == TRIANGULAR]
    assert ("lower", 1) in tri
    assert all(inv.params != ("lower", 1) for inv in invariant_certificate(d))


# --- one search per handle and window ----------------------------------------------

@pytest.fixture()
def fresh_searches(monkeypatch):
    calls = []
    search = verdicts._search

    def counted(d, window):
        calls.append((id(d), window_desc(window)))
        return search(d, window)

    monkeypatch.setattr(verdicts, "_search", counted)
    return calls


def test_orbit_scan_visits_search_once_per_handle(fresh_searches):
    # the 90 star_odometer visits and the 6 odometer_two_sided No visits
    # of the benchmark's orbit_scan workload, on fresh handles
    star = make_diagram("star_odometer")
    o2 = make_diagram("odometer_two_sided")
    values = []
    for i in range(2, 11):
        x = vertical_from(star, i)
        for j in range(1, 11):
            values.append(orbit_visits_cylinder(star, x, cylinder_at(star, j)).value)
    s = 17
    for i in (s - 2, s, s + 3):
        for x, c in ((vertical_from(o2, i), cylinder_at(o2, i - 1)),
                     (leftmost_slant_from(o2, i), cylinder_at(o2, i + 1))):
            v = orbit_visits_cylinder(o2, x, c)
            assert v.is_no
            values.append(v.value)
    assert len(values) == 96
    assert values.count("no") > 6  # the star visits ask too
    assert len(fresh_searches) == 2
    assert {h for h, _ in fresh_searches} == {id(star), id(o2)}


def test_each_call_gets_a_fresh_list(fresh_searches):
    d = make_diagram("tridiag_B")
    first = find_invariants(d, d.default_window())
    first.clear()
    assert find_invariants(d, d.default_window()) != []
    assert len(fresh_searches) == 1
    find_invariants(d, d.default_window(4))
    assert len(fresh_searches) == 2


def test_memo_lives_as_long_as_the_handle():
    d = make_diagram("parity_1")
    find_invariants(d, d.default_window())
    assert len(_SEARCHES[d]) == 1
    alive = weakref.ref(d)
    del d
    gc.collect()
    assert alive() is None  # the memo did not keep the handle


def test_concurrent_readers_share_one_answer():
    # racing readers may both search, but each stores the same answer
    d = make_diagram("shifted_Bsecond")
    window = d.default_window()
    want = verdicts._search(d, window)
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: results.append(find_invariants(d, window)))
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * 8
    assert list(_SEARCHES[d][window_desc(window)]) == want


def test_a_search_whose_row_read_raises_stores_nothing():
    # vertex 40 has an empty row, which no flag check reads
    def rows(n, v):
        return [] if v == 40 else [(v, 1)]

    d = DiagramHandle(two_sided(), rows, stationary_from=0)
    window = LevelWindow.uniform(d.indexing, 2, 50)
    with pytest.raises(InvariantError):
        find_invariants(d, window)
    assert window_desc(window) not in _SEARCHES.get(d, {})
    assert find_invariants(d, d.default_window(2, 5))


def test_reverify_searches_afresh_from_the_rows():
    d = make_diagram("parity_1")
    window = d.default_window()
    genuine = next(inv for inv in find_invariants(d, window) if inv.kind == CLOPEN)
    forged = NonReachInvariant(RESIDUE, (5, 3), window_desc(window), True,
                               ("BandedFlag",))
    # doctor the memo: the forged invariant in, the genuine one out
    _SEARCHES[d][window_desc(window)] = (forged,)
    assert find_invariants(d, window) == [forged]
    assert not reverify(d, forged)
    assert reverify(d, genuine)


def test_cone_invariant_names_the_flag_its_width_comes_from():
    # the band is the only width flag, so it backs the cone
    d = load_spec({"levels": [{v: {v - 1: 1, v: 2, v + 1: 1} for v in range(-20, 21)}],
                   "extension": "repeat_last",
                   "flags": [{"kind": "banded", "offsets": {-1: 1, 0: 2, 1: 1}}]})
    cone = next(inv for inv in find_invariants(d, d.default_window())
                if inv.kind == CONE)
    assert cone.global_via == ("BandedFlag",)
    assert cone.describe()["structural_assumptions"] == ["BandedFlag"]
    assert reverify(d, cone)
    # catalog bands also carry BoundedSizeFlag, which keeps the name
    td = make_diagram("tridiag_B")
    assert [inv.global_via for inv in find_invariants(td, td.default_window())
            if inv.kind == CONE] == [("BoundedSizeFlag",)]
