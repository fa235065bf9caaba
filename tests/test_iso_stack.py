"""`iso_search` walks a fixed assignment order with an explicit stack; it
answers exactly as the recursive search that picked each variable anew,
and deep windows no longer meet the recursion limit."""

import pytest

from gbdkit import (
    GbdError,
    IsoWitness,
    LevelWindow,
    NoneWithinBudget,
    interleave,
    iso_search,
    level_shift,
    load_spec,
    make_diagram,
    relabel,
)
from gbdkit.cli import main
from gbdkit.windows import clamped_interval

from conftest import NAMES
from test_sweep_reuse import explicit_error_beyond, outcome


def recursive_search(dA, dB, depth, windows_a, windows_b, budget=100_000):
    """The search as it was: pick a variable per call, recurse per variable."""
    def by_size(d, window, n):
        lo, hi = clamped_interval(d.indexing, window.interval(n))
        return sorted(range(lo, hi + 1), key=lambda x: (abs(x), x))

    def row_multiset(d, n, v):
        return tuple(sorted(m for _, m in d.in_edges(n, v)))

    levels = range(depth + 1)
    variables = [(n, v) for n in levels for v in by_size(dA, windows_a, n)]
    cand_pool = {n: by_size(dB, windows_b, n) for n in levels}
    nbrs = {x: {} for x in variables}
    for n, v in variables:
        if n > 0:
            for w, m in dA.in_edges(n - 1, v):
                if (n - 1, w) in nbrs:
                    nbrs[(n, v)][(n - 1, w)] = m
                    nbrs[(n - 1, w)][(n, v)] = m
    tables = {n: {} for n in levels}
    used = {n: set() for n in levels}
    nodes = 0

    def consistent(n, v, v_img):
        nb = nbrs[(n, v)]
        return (all(nb.get((n - 1, w), 0) == dB.entry(n - 1, v_img, got)
                    for w, got in tables.get(n - 1, {}).items())
                and all(nb.get((n + 1, u), 0) == dB.entry(n, got, v_img)
                        for u, got in tables.get(n + 1, {}).items()))

    def pick_variable():
        first = None
        for n, v in variables:
            if v in tables[n]:
                continue
            if any(w in tables[m] for m, w in nbrs[(n, v)]):
                return n, v
            if first is None:
                first = (n, v)
        return first

    def backtrack():
        nonlocal nodes
        var = pick_variable()
        if var is None:
            return True
        n, v = var
        sig = row_multiset(dA, n - 1, v) if n > 0 else None
        for v_img in cand_pool[n]:
            if v_img in used[n]:
                continue
            nodes += 1
            if nodes > budget:
                return False
            if n > 0 and row_multiset(dB, n - 1, v_img) != sig:
                continue
            if not consistent(n, v, v_img):
                continue
            tables[n][v] = v_img
            used[n].add(v_img)
            if backtrack():
                return True
            del tables[n][v]
            used[n].discard(v_img)
            if nodes > budget:
                return False
        return False

    if not backtrack():
        return NoneWithinBudget(nodes_explored=nodes, budget=budget, depth=depth)
    witness = IsoWitness(tables=tables, depth=depth, windows=windows_a,
                         nodes_explored=nodes)
    for n in range(depth):
        witness.verified_rows[n + 1] = sorted(
            v for v in tables[n + 1]
            if all(w in tables[n] for w, _ in dA.in_edges(n, v)))
    return witness


def summary(res):
    if isinstance(res, NoneWithinBudget):
        return "none", res.nodes_explored
    return res.nodes_explored, res.describe(), res.verified_rows


def pairs():
    td = make_diagram("tridiag_B")
    out = [(make_diagram(n), make_diagram(n)) for n in NAMES]
    out += [(td, make_diagram("interleaved_Bprime")),
            (td, make_diagram("shifted_Bsecond")),
            (make_diagram("parity_1"), make_diagram("parity_2")),
            (make_diagram("renewal_shift"), make_diagram("b_infinity")),
            (td, relabel(td, level_shift(1))),
            (td, relabel(td, interleave())),
            (explicit_error_beyond(), explicit_error_beyond())]
    rows = {v: {v - 1: 1, v: v % 3 + 1} for v in range(-6, 7)}
    d = load_spec({"levels": [rows], "extension": "repeat_last"})
    out.append((d, relabel(d, level_shift(1))))
    out.append((make_diagram("interleaved_Bprime"), td))  # one-sided vs two-sided
    return out


def late_budgets(search):
    """Budgets that cut `search()` half way and at its last node, where an
    exhausted search is deep in backtracking; none when it raises."""
    try:
        nodes = search().nodes_explored
    except GbdError:
        return ()
    return (nodes // 2, nodes - 1) if nodes > 2 else ()


@pytest.mark.parametrize("k", range(len(pairs())))
def test_stack_search_matches_the_recursive_search(k):
    dA, dB = pairs()[k]
    for depth in (0, 1, 2, 3, 5):
        for radius in (2, 3):
            wa = LevelWindow.uniform(dA.indexing, depth, radius)
            wb = LevelWindow.uniform(dB.indexing, depth, radius + 1)
            late = late_budgets(lambda: recursive_search(dA, dB, depth, wa, wb))
            for budget in (1, 7, 60, 400, 100_000, *late):
                new = outcome(lambda: summary(iso_search(dA, dB, depth, wa, wb,
                                                         budget=budget)))
                ref = outcome(lambda: summary(recursive_search(
                    dA, dB, depth, wa, wb, budget=budget)))
                assert new == ref, (depth, radius, budget)


@pytest.mark.parametrize("radius", (2, 3))
def test_late_budgets_cut_after_a_backtrack(radius):
    """Until its first backtrack a search tries each variable's pool at most
    once, so a search cut past the sum of the pool sizes has backtracked:
    both late budgets of the depth-5 tridiag_B vs shifted_Bsecond search
    lie past it."""
    dA, dB = make_diagram("tridiag_B"), make_diagram("shifted_Bsecond")
    wa = LevelWindow.uniform(dA.indexing, 5, radius)
    wb = LevelWindow.uniform(dB.indexing, 5, radius + 1)
    assert isinstance(recursive_search(dA, dB, 5, wa, wb), NoneWithinBudget)
    pools = 6 * (2 * radius + 1) * (2 * radius + 3)  # variables times pool size
    assert pools < min(late_budgets(lambda: recursive_search(dA, dB, 5, wa, wb)))


def test_seventy_levels_from_the_command_line(tmp_path, capsys):
    # 17 vertices on each of 71 levels: 1,207 variables
    td, bp = tmp_path / "td.yaml", tmp_path / "bp.yaml"
    td.write_text("family: tridiag_B\n")
    bp.write_text("family: interleaved_Bprime\n")
    code = main(["iso", "search", "--spec", str(td), "--spec-b", str(bp),
                 "--levels", "70"])
    out = capsys.readouterr().out
    assert code == 0
    assert "witness verified: True" in out
