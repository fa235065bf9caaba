import random

import pytest

from gbdkit import (
    FinitePath,
    InvalidEdgeError,
    backward_reach_set,
    count_paths,
    enumerate_paths,
    make_diagram,
)
from gbdkit.paths import Edge


def test_renewal_count_examples():
    rs = make_diagram("renewal_shift")
    assert count_paths(rs, 3, 0, 1, 2) == 1
    assert count_paths(rs, 5, 0, 5, 0) == 1
    assert count_paths(rs, 5, 0, 4, 0) == 0


def test_tridiag_two_step_count():
    td = make_diagram("tridiag_B")
    # brute force: sum over middle vertices of multiplicity products
    expected = sum(dict(td.in_edges(0, u)).get(0, 0)
                   * dict(td.in_edges(1, 0)).get(u, 0)
                   for u in range(-2, 3))
    assert expected == 6
    assert count_paths(td, 0, 0, 0, 2) == 6


def test_enumeration_matches_and_truncates():
    td = make_diagram("tridiag_B")
    paths, truncated = enumerate_paths(td, 0, 0, 0, 2, cap=3)
    assert len(paths) == 3 and truncated
    paths, truncated = enumerate_paths(td, 0, 0, 0, 2, cap=None)
    assert len(paths) == 6 and not truncated
    assert len({p.edges for p in paths}) == 6
    assert paths == sorted(paths, key=lambda p: p.edges)


def test_enumeration_unique_renewal_path():
    rs = make_diagram("renewal_shift")
    paths, truncated = enumerate_paths(rs, 3, 0, 1, 2, cap=10)
    assert not truncated and len(paths) == 1
    assert paths[0].vertex_trace() == [3, 2, 1]


def test_same_level_mismatch_is_empty():
    rs = make_diagram("renewal_shift")
    paths, truncated = enumerate_paths(rs, 2, 3, 4, 3)
    assert paths == [] and not truncated


def test_backward_reach_examples():
    rs = make_diagram("renewal_shift")
    assert backward_reach_set(rs, 1, 2, 0) == {1, 2, 3}
    assert backward_reach_set(rs, 4, 5, 5) == {4}
    td = make_diagram("tridiag_B")
    assert backward_reach_set(td, 0, 3, 0) == set(range(-3, 4))


def test_backward_reach_is_positive_count_set(each_diagram):
    d = each_diagram
    lo, hi = d.indexing.default_interval(4)
    for v in range(lo, hi + 1):
        reach = backward_reach_set(d, v, 3, 0)
        for w in reach:
            assert count_paths(d, w, 0, v, 3) > 0
        period = {w for w in range(lo - 6, hi + 7)
                  if d.indexing.contains(w) and count_paths(d, w, 0, v, 3) > 0}
        assert period <= reach


def test_backward_reach_recursion(each_diagram):
    d = each_diagram
    lo, hi = d.indexing.default_interval(3)
    for v in range(lo, hi + 1):
        whole = backward_reach_set(d, v, 3, 0)
        via = set()
        for w, _ in d.in_edges(2, v):
            via |= backward_reach_set(d, w, 2, 0)
        assert whole == via


def test_functoriality_random(handles):
    rng = random.Random(7)
    for _ in range(60):
        d = handles[rng.choice(sorted(handles))]
        lo, hi = d.indexing.default_interval(5)
        n = rng.randrange(0, 2)
        m = n + rng.randrange(2, 5)
        k = rng.randrange(n + 1, m)
        w = rng.randrange(lo, hi + 1)
        v = rng.randrange(lo, hi + 1)
        total = count_paths(d, w, n, v, m)
        split = sum(count_paths(d, w, n, u, k) * count_paths(d, u, k, v, m)
                    for u in backward_reach_set(d, v, m, k))
        assert total == split, (d.name, w, n, v, m, k)


def test_windowed_matrix_product(handles):
    rng = random.Random(11)
    for _ in range(30):
        d = handles[rng.choice(sorted(handles))]
        lo, hi = d.indexing.default_interval(4)
        n, m = 0, 3
        w = rng.randrange(lo, hi + 1)
        v = rng.randrange(lo, hi + 1)
        reach_at = {lvl: backward_reach_set(d, v, m, lvl)
                    for lvl in range(n, m + 1)}
        windows = {}
        for lvl, s in reach_at.items():
            windows[lvl] = (min(s | {w}), max(s | {w}))
        # accumulate the product of windowed incidence matrices
        vec = {w: 1}
        for lvl in range(n, m):
            rlo, rhi = windows[lvl + 1]
            nxt = {}
            for u in range(rlo, rhi + 1):
                if not d.indexing.contains(u):
                    continue
                total = sum(mult * vec.get(src, 0)
                            for src, mult in d.in_edges(lvl, u))
                if total:
                    nxt[u] = total
            vec = nxt
        assert vec.get(v, 0) == count_paths(d, w, n, v, m)


def test_oracle_equivalence_random(handles):
    rng = random.Random(3)
    done = 0
    while done < 60:
        d = handles[rng.choice(sorted(handles))]
        lo, hi = d.indexing.default_interval(8)
        n = rng.randrange(0, 3)
        m = n + rng.randrange(0, 6)
        w = rng.randrange(lo, hi + 1)
        v = rng.randrange(lo, hi + 1)
        c = count_paths(d, w, n, v, m)
        if c > 20000:
            continue
        paths, truncated = enumerate_paths(d, w, n, v, m)
        assert not truncated and len(paths) == c
        done += 1


def test_path_validation():
    rs = make_diagram("renewal_shift")
    good = FinitePath(0, 3, (Edge(0, 3, 2, 0), Edge(1, 2, 1, 0)))
    assert good.validate(rs)
    with pytest.raises(InvalidEdgeError):
        FinitePath(0, 3, (Edge(0, 3, 1, 0),)).validate(rs)
    with pytest.raises(InvalidEdgeError):
        FinitePath(0, 3, (Edge(0, 2, 1, 0),))  # does not chain
    with pytest.raises(InvalidEdgeError):
        FinitePath(0, 1, (Edge(0, 1, 1, 3),)).validate(rs)  # copy too large


def test_deep_sweep_without_recursion_limit():
    o1 = make_diagram("odometer_one_sided")
    assert count_paths(o1, 1, 0, 1, 1200) == 2 ** 1200
    paths, truncated = enumerate_paths(o1, 1, 0, 1, 1200, cap=1)
    assert truncated and len(paths) == 1
    assert len(paths[0]) == 1200
    assert set(paths[0].vertex_trace()) == {1}


def test_level_order_rejected():
    rs = make_diagram("renewal_shift")
    with pytest.raises(ValueError):
        count_paths(rs, 1, 3, 1, 2)


def test_concurrent_reads_are_consistent():
    import threading

    td = make_diagram("tridiag_B")
    expected = count_paths(td, 0, 0, 0, 8)
    results = []

    def worker():
        results.append(count_paths(td, 0, 0, 0, 8))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [expected] * 8
