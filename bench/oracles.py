"""Answer oracles that do not use gbdkit.

Each catalog family's incidence rows and each bijection family's vertex
maps are restated here from their mathematical definitions, so that a
timed answer can be re-derived without the code under test.  Rows are
dicts {source: multiplicity} for a target vertex; all catalog families
are stationary, so rows do not depend on the level.
"""

from __future__ import annotations

import math


def _band(offsets):
    return lambda v: {v + o: m for o, m in offsets.items()}


def _renewal(v):
    return {1: 1, 2: 1} if v == 1 else {1: 1, v + 1: 1}


def _star(v):
    return {1: 2} if v == 1 else {1: 1, v: 3}


def _b_infinity(v):
    return {w: 1 for w in range(1, v + 1)}


def _bprime(v):
    special = {0: {0: 2, 1: 1, 2: 1}, 1: {0: 1, 1: 2, 3: 1}}
    return special.get(v, {v - 2: 1, v: 2, v + 2: 1})


BANDED_OFFSETS = {-2: 1, 0: 3, 1: 1}

# family -> rows(v); one-sided families are only asked about vertices >= base
ROWS = {
    "tridiag_B": _band({-1: 1, 0: 2, 1: 1}),
    "shifted_Bsecond": _band({0: 1, -1: 2, -2: 1}),
    "parity_1": _band({-1: 1, 1: 1}),
    "parity_2": _band({-2: 1, 2: 1}),
    "odometer_two_sided": _band({0: 2, 1: 1}),
    "banded": _band(BANDED_OFFSETS),
    "odometer_one_sided": _band({0: 2, 1: 1}),
    "growth_odometer": lambda v: {v: v + 1, v + 1: 1},
    "renewal_shift": _renewal,
    "star_odometer": _star,
    "b_infinity": _b_infinity,
    "interleaved_Bprime": _bprime,
}


def rows(family):
    return ROWS[family]


# --- vertex maps: level n -> (forward, inverse) --------------------------------

def _fold(v):
    return 2 * v if v >= 0 else -2 * v - 1


def _unfold(x):
    return x // 2 if x % 2 == 0 else -(x + 1) // 2


def shift_maps(step):
    """g_n(v) = v + step * n (level_shift(step); cone_shift(t) is step = -t)."""
    return lambda n: (lambda v: v + step * n, lambda x: x - step * n)


def fold_maps(n):
    """interleave(): fold the integers onto the nonnegatives."""
    return _fold, _unfold


def identity_maps(n):
    return (lambda v: v), (lambda x: x)


def relabeled_matrix(family, maps, n, win):
    """Dense level-n matrix of the relabeled family on win x win:
    entry (v', w') = f(g_{n+1}^{-1}(v'), g_n^{-1}(w'))."""
    row = rows(family)
    lo, hi = win
    inv_next, inv_here = maps(n + 1)[1], maps(n)[1]
    return [[row(inv_next(v)).get(inv_here(w), 0) for w in range(lo, hi + 1)]
            for v in range(lo, hi + 1)]


def matrix(family, win):
    return relabeled_matrix(family, identity_maps, 0, win)


# --- closed forms ---------------------------------------------------------------

def tridiag_count(levels, delta):
    """Paths w -> w + delta over `levels` levels of the 1/2/1 band: the
    row generating function is (1 + x)^2, so the count is C(2L, L + delta)."""
    return math.comb(2 * levels, levels + delta)


def cylinders_full_band(width, row_sum, depth):
    """Cylinders of length <= depth ending in a window of `width` vertices
    of a two-sided band whose rows all sum to row_sum."""
    return width * sum(row_sum ** k for k in range(depth + 1))


def cylinders_b_infinity(hi, depth):
    """Cylinders of length <= depth ending in [1, hi] on b_infinity: a
    length-L cylinder ending at v is a nondecreasing L-sequence in [1, v]."""
    return sum(math.comb(v - 1 + k, k) for v in range(1, hi + 1)
               for k in range(depth + 1))


# --- path and witness checks ----------------------------------------------------

def path_error(family, edges, start, start_level, end, end_level):
    """None when the (level, source, target, copy) edges chain from
    start@start_level to end@end_level along edges of the family."""
    row = rows(family)
    level, at = start_level, start
    for lvl, src, tgt, copy in edges:
        if lvl != level or src != at:
            return f"edge {(lvl, src, tgt, copy)} does not chain at {at}@{level}"
        if not 0 <= copy < row(tgt).get(src, 0):
            return f"edge {(lvl, src, tgt, copy)} is not an edge of {family}"
        level, at = lvl + 1, tgt
    if (at, level) != (end, end_level):
        return f"path ends at {at}@{level}, expected {end}@{end_level}"
    return None


def iso_witness_error(family_a, family_b, tables, verified_rows):
    """None when every verified row of A, pushed through the tables,
    equals the row of B at the image vertex."""
    row_a, row_b = rows(family_a), rows(family_b)
    for level in sorted(verified_rows):
        below, here = tables[level - 1], tables[level]
        for v in verified_rows[level]:
            pushed = {below[w]: m for w, m in row_a(v).items()}
            if pushed != row_b(here[v]):
                return f"row {v}@{level} is not preserved by the witness"
    return None
