"""Reach and witnesses on bands without a sweep: `first_reach` tests each
level by the sumset of the band's offsets and `enumerate_paths(..., cap=1)`
walks greedily, against the per-level restart and the sweep enumerator
they replace there; the kept band check falls back to the sweep wherever
a row of the cone is not a translate, and the deep queries read a
number of rows linear in the depth."""

import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gbdkit import (
    DiagramHandle,
    enumerate_paths,
    irreducible_probe,
    level_shift,
    make_diagram,
    relabel,
)
from gbdkit import paths, probes
from gbdkit.indexing import two_sided

from conftest import defective_band, restart_first_reach, sweep_enumerate_paths

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)

offsets = st.dictionaries(st.integers(-3, 3), st.integers(1, 3),
                          min_size=1, max_size=4)


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@PROPERTY
@given(offs=st.dictionaries(st.integers(-9, 9), st.integers(1, 3), min_size=1,
                            max_size=5),
       h=st.integers(0, 25))
def test_the_sumset_table_answers_the_h_fold_sumset(offs, h):
    items = tuple(sorted(offs.items()))
    sums = {0}
    for _ in range(h):
        sums = {x + o for x in sums for o in offs}
    holds = paths._sumset(items)
    assert {x for x in range(-9 * h - 3, 9 * h + 4) if holds(x, h)} == sums


@pytest.mark.parametrize("a", range(1, 13))
def test_contiguous_coins_answer_as_the_table(a):
    # offsets base + g * (0..a): the closed form fewest(y) = ceil(y / a)
    # against the table of fewest that every other offset set builds
    fewest = paths._fewest(list(range(1, a + 1)))
    for base, g in ((0, 1), (-2, 1), (3, 2), (-1, 3)):
        holds = paths._sumset(tuple((base + g * i, 1) for i in range(a + 1)))
        for h in range(0, 9):
            for x in range(h * base - 2 * g, h * (base + g * a) + 2 * g + 1):
                y, r = divmod(x - h * base, g)
                assert holds(x, h) == (not r and y >= 0 and fewest(y) <= h), (x, h)


def test_contiguous_offsets_need_no_table():
    # 65 offsets would fill a table of 4,033 entries; 5,000 would exceed it
    for width in (64, 4999):
        holds = paths._sumset(tuple((o, 1) for o in range(width + 1)))
        assert holds(width * 3, 3) and not holds(width * 3 + 1, 3)
    assert paths._fewest(list(range(1, 5001))) is None


def band(offs, side, base, shifted):
    """A `banded` handle, or its level_shift(1) relabeling (two-sided)."""
    d = make_diagram("banded", offsets=offs, side=side, base=base)
    return relabel(d, level_shift(1)) if shifted else d


def answer(v):
    """Verdict, level and witness of an irreducible_probe verdict."""
    witness = v.witness.describe() if v.is_yes else None
    return v.value, v.detail.get("level"), witness


def probe_answer(d, i, j, n0, depth, first_reach=None):
    """answer(irreducible_probe(...)), through the given first_reach."""
    with mock.patch.object(probes, "first_reach", first_reach or paths.first_reach):
        return outcome(lambda: answer(irreducible_probe(d, i, j, n0, depth)))


# a gcd > 1 (-2, 2), a single offset, and a shift of a one-offset band
@PROPERTY
@example(offs={-2: 1, 2: 2}, side="two", base=0, shifted=False, i=0, delta=4,
         n0=0, depth=12)
@example(offs={1: 3}, side="one", base=-1, shifted=False, i=6, delta=-5, n0=2,
         depth=10)
@example(offs={-1: 2}, side="two", base=0, shifted=True, i=3, delta=-7, n0=0,
         depth=5)
@given(offs=offsets, side=st.sampled_from(["one", "two"]), base=st.integers(-2, 2),
       shifted=st.booleans(), i=st.integers(-12, 12), delta=st.integers(-8, 8),
       n0=st.integers(0, 3), depth=st.integers(1, 16))
def test_probes_answer_as_a_restart_per_level_on_random_bands(offs, side, base, shifted,
                                                              i, delta, n0, depth):
    # a one-sided band whose offsets are all negative has an empty base row
    assume(side == "two" or max(offs) >= 0)
    assume(side == "two" or not shifted)
    d, j = band(offs, side, base, shifted), i + delta
    want = probe_answer(d, i, j, n0, depth, restart_first_reach)
    assert probe_answer(d, i, j, n0, depth) == want


@PROPERTY
@example(offs={-2: 1, 2: 2}, side="two", base=0, shifted=False, w=0, v=4, n=1, k=6)
@example(offs={1: 3}, side="one", base=-1, shifted=False, w=9, v=1, n=0, k=8)
@given(offs=offsets, side=st.sampled_from(["one", "two"]), base=st.integers(-2, 2),
       shifted=st.booleans(), w=st.integers(-12, 30), v=st.integers(-12, 30),
       n=st.integers(0, 5), k=st.integers(0, 40))
def test_the_first_path_equals_the_sweep_enumerator_on_random_bands(offs, side, base,
                                                                    shifted, w, v, n, k):
    assume(side == "two" or max(offs) >= 0)
    assume(side == "two" or not shifted)
    d = band(offs, side, base, shifted)
    want = outcome(sweep_enumerate_paths, d, w, n, v, n + k, cap=1)
    assert outcome(enumerate_paths, d, w, n, v, n + k, cap=1) == want


# --- the kept check falls back to the sweep ---------------------------------------

def cone_holds(offs, v, k, at):
    """Whether the cone the sweep from v reads over k levels misses `at`,
    or is the one vertex v, so that its rows are translates of v's."""
    os = sorted(offs)
    g = math.gcd(*os) or 1
    lo, hi = v + min(0, (k - 1) * os[0]), v + max(0, (k - 1) * os[-1])
    return lo == hi or not (lo <= at <= hi and (at - v) % g == 0)


@PROPERTY
@given(offs=offsets, v=st.integers(-30, 30), w=st.integers(-30, 30),
       at=st.integers(-30, 30), n=st.integers(0, 5), k=st.integers(2, 30))
def test_a_defect_in_the_cone_leaves_the_first_path_to_the_sweep(offs, v, w, at, n, k):
    want = sweep_enumerate_paths(defective_band(offs, at), w, n, v, n + k, cap=1)
    d = defective_band(offs, at)
    with mock.patch.object(paths, "_sweep", wraps=paths._sweep) as sweep:
        assert enumerate_paths(d, w, n, v, n + k, cap=1) == want
    assert sweep.called != cone_holds(offs, v, k, at)
    # a later query whose cone misses the defect still walks the band
    far = at + 3 * k + 1
    want = sweep_enumerate_paths(defective_band(offs, at), w, n, far, n + k, cap=1)
    with mock.patch.object(paths, "_sweep", wraps=paths._sweep) as sweep:
        assert enumerate_paths(d, w, n, far, n + k, cap=1) == want
    assert not sweep.called


@PROPERTY
@given(offs=offsets, t=st.integers(-30, 30), w=st.integers(-30, 30),
       at=st.integers(-30, 30), n=st.integers(0, 5), depth=st.integers(2, 20))
def test_a_defect_in_the_cone_leaves_first_reach_to_the_frontier(offs, t, w, at, n,
                                                                  depth):
    levels = range(n + 1, n + depth + 1)
    want = restart_first_reach(defective_band(offs, at), w, n, levels, lambda m: t)
    d = defective_band(offs, at)
    with mock.patch.object(paths, "_reach", wraps=paths._reach) as reach:
        got = paths.first_reach(d, w, n, levels, lambda m: t)
    assert got == want
    last = want[0] if want else n + depth
    # the first level reads the frontier; a later one only off the band
    assert reach.call_count == 1 + sum(not cone_holds(offs, t, m - n, at)
                                       for m in range(n + 2, last + 1))


def test_a_later_query_off_the_defect_takes_the_band():
    d = defective_band({-1: 1, 0: 2, 1: 1}, 5)
    levels = range(1, 11)
    with mock.patch.object(paths, "_reach", wraps=paths._reach) as reach:
        assert paths.first_reach(d, 100, 0, levels, lambda m: 0) is None
    # levels 1 and 6-10: the cone of 0 holds 5 from depth 6 on
    assert reach.call_count == 6
    with mock.patch.object(paths, "_reach", wraps=paths._reach) as reach:
        assert paths.first_reach(d, 100, 0, levels, lambda m: -20) is None
        hit = paths.first_reach(d, -27, 0, levels, lambda m: -20)
    assert reach.call_count == 2  # the first level of each query
    assert hit == restart_first_reach(d, -27, 0, levels, lambda m: -20)
    assert hit[0] == 7


def counted_reads():
    return mock.patch.object(DiagramHandle, "in_edges", autospec=True,
                             side_effect=DiagramHandle.in_edges)


def one_sided_tridiag():
    return make_diagram("banded", offsets={-1: 1, 0: 2, 1: 1}, side="one", base=0)


# (handle, (w, n, v, m)): errors and answers the band check must leave alone
REACH_CASES = {
    "a target near a one-sided base": (one_sided_tridiag(), (4, 0, 1, 6)),
    "a one-sided base whose cone leaves the range": (one_sided_tridiag(),
                                                     (9, 0, 2, 9)),
    "an invalid w near a one-sided base": (one_sided_tridiag(), (-1, 0, 2, 5)),
    "an invalid target": (one_sided_tridiag(), (3, 0, -1, 5)),
    "an odometer target at its base": (make_diagram("odometer_one_sided"),
                                       (5, 0, 1, 6)),
    "an invalid odometer w": (make_diagram("odometer_one_sided"), (0, 0, 3, 5)),
    "offsets too wide for the sumset table": (
        make_diagram("banded", offsets={0: 1, 99: 1, 100: 1}), (199, 0, 0, 3)),
}


def test_offsets_too_wide_for_the_table_keep_the_sweep():
    wide = ((0, 1), (99, 1), (100, 1))
    assert paths._sumset(wide) is None
    assert paths._sumset(((0, 1), (63, 1), (64, 1))) is not None
    d = REACH_CASES["offsets too wide for the sumset table"][0]
    with mock.patch.object(paths, "_sweep", wraps=paths._sweep) as sweep:
        found, _ = enumerate_paths(d, 199, 0, 0, 3, cap=1)
    assert sweep.called and found[0].vertex_trace() == [199, 99, 0, 0]


def test_a_count_on_offsets_too_wide_for_the_table_reads_the_sweep(row_reads):
    """The band check gives up on such offsets before it reads the cone:
    the counting sweep reads 3,634 rows here, where the cone check alone
    read every vertex of [0, 23,000].  A path takes offset 1000 at 12 of
    its 24 steps and 0 at the others."""
    d = make_diagram("banded", offsets={0: 1, 999: 1, 1000: 1})
    row_reads[0] = 0
    assert paths.count_paths(d, 12000, 0, 0, 24) == math.comb(24, 12)
    assert row_reads[0] <= 4000


def test_offsets_too_wide_for_the_table_are_turned_down_before_the_cone(row_reads):
    """`translates` reads the rows next to the target alone, so the band
    check reads 2 rows before the table bound turns the offsets down, and
    the call reads 2,602 in all: 3,634 when the check read the target's
    one-step cone of 1,001 vertices first."""
    d = make_diagram("banded", offsets={0: 1, 999: 1, 1000: 1})
    row_reads[0] = 0
    assert paths.count_paths(d, 12000, 0, 0, 24) == math.comb(24, 12)
    assert row_reads[0] <= 2700


@pytest.mark.parametrize("name", sorted(REACH_CASES))
def test_reach_and_witness_raise_what_the_sweep_raises(name):
    d, (w, n, v, m) = REACH_CASES[name]
    assert outcome(enumerate_paths, d, w, n, v, m, cap=1) == \
        outcome(sweep_enumerate_paths, d, w, n, v, m, cap=1)
    levels = range(n + 1, m + 1)
    assert outcome(paths.first_reach, d, w, n, levels, lambda _: v) == \
        outcome(restart_first_reach, d, w, n, levels, lambda _: v)


def test_the_invalid_cases_raise():
    for name in ("an invalid w near a one-sided base", "an invalid target",
                 "an invalid odometer w"):
        d, (w, n, v, m) = REACH_CASES[name]
        with pytest.raises(Exception, match="below one-sided base"):
            enumerate_paths(d, w, n, v, m, cap=1)


def empty_row_at_1():
    """Offsets 2 and 3, but the row of vertex 1 is empty, which
    `DiagramHandle.in_edges` rejects with an InvariantError."""
    return DiagramHandle(two_sided(),
                         lambda n, v: [] if v == 1 else [(v + 2, 1), (v + 3, 1)],
                         stationary_from=0, name="empty row at 1")


@pytest.mark.parametrize("name, v", [("one-sided tridiag", 1), ("renewal_shift", 4),
                                     ("defective band", 5), ("empty row", 0)])
def test_a_vertex_known_not_to_hold_reads_no_row(name, v):
    d = {"one-sided tridiag": one_sided_tridiag(),
         "renewal_shift": make_diagram("renewal_shift"),
         "defective band": defective_band({-1: 1, 0: 2, 1: 1}, 6),
         "empty row": empty_row_at_1()}[name]
    assert paths._band_offsets(d, 0, v, 8) is None
    with counted_reads() as reads:
        assert paths._band_offsets(d, 0, v, 8) is None
        assert paths._band_offsets(d, 0, v, 30) is None
    assert reads.call_count == 0


def test_a_target_off_the_band_is_asked_once_per_query():
    # on star_odometer, 2 never reaches 5 (ROADMAP item 3)
    d = make_diagram("star_odometer")
    with mock.patch.object(paths, "_band_offsets", wraps=paths._band_offsets) as band:
        assert paths.first_reach(d, 2, 0, range(1, 25), lambda m: 5) is None
    assert band.call_count == 1


# --- deep queries: work linear in the depth ------------------------------------------

def test_a_5000_level_witness_reads_a_row_per_level():
    d = make_diagram("odometer_one_sided")
    with counted_reads() as reads:
        found, truncated = enumerate_paths(d, 1, 0, 1, 5000, cap=1)
    # the diagonal has multiplicity 2, so a second path exists
    assert truncated and len(found) == 1
    assert found[0].vertex_trace() == [1] * 5001
    assert {e.copy for e in found[0].edges} == {0}
    assert reads.call_count <= 2 * 5000


def test_a_5000_level_no_reads_a_row_per_level():
    want = irreducible_probe(make_diagram("shifted_Bsecond"), 0, -1, 0, 24)
    assert want.is_no
    d = make_diagram("shifted_Bsecond")
    with counted_reads() as reads:
        v = irreducible_probe(d, 0, -1, 0, 5000)
    assert v.describe() == want.describe()
    # the cone of -1 is [-1 - 2 * 4999, -1]; the certificate reads its window
    assert reads.call_count <= 3 * 5000
    # and no per-level state stays on the handle: one band record
    assert len(d._band_cache) == 1


def test_concurrent_queries_share_one_band_cache():
    # the band records grow under concurrent readers without a lock: a
    # lost update may only lose an extension, so every answer must still
    # equal the one a lone reader gets.  Each first read of a row sleeps,
    # so that the readers interleave inside the extensions.
    import sys
    import threading
    import time

    def handle():
        rows = defective_band({-1: 1, 0: 2, 1: 1}, 11)._row_rule

        def slow(n, u):
            time.sleep(1e-4)
            return rows(n, u)

        return DiagramHandle(two_sided(), slow, stationary_from=0, name="slow band")

    def queries(d):
        out = []
        for t in range(-6, 7, 3):
            out.append(paths.first_reach(d, 40, 0, range(1, 30), lambda m: t))
            out.append(enumerate_paths(d, t - 9, 0, t, 12, cap=1))
            out.append(paths.count_paths(d, t + 2, 0, t, 25))
        return out

    want = queries(handle())
    d = handle()
    start = threading.Barrier(8, timeout=60)
    results = []

    def reader():
        start.wait()
        results.append(queries(d))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [want] * 8
