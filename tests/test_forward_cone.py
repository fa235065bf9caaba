"""The forward-cone kernel `paths.forward_layers`/`forward_step` and the
walkers built on it: compactness, forced hits, cone bounds and anchored
flattening."""

import pytest

from gbdkit import (
    NoBoundedSizeFlagError,
    backward_reach_set,
    catalog_names,
    cone_bound,
    cone_flatten,
    interleave,
    level_shift,
    make_diagram,
    relabel,
    toeplitz_reenumeration,
)
from gbdkit.bijections import cone_shift
from gbdkit.diagram import (
    BoundedSizeFlag,
    ColumnSupport,
    DiagramHandle,
    ExplicitLevelsFlag,
)
from gbdkit.errors import IndexingMismatchError, UndeclaredRowError
from gbdkit.indexing import two_sided
from gbdkit.paths import forward_layers
from gbdkit.specfmt import load_spec

from conftest import NAMES
from test_class_invariance import generators

K = 6  # forward steps compared against backward sweeps


def explicit_repeat_last():
    # two declared levels, the second repeated: sources sink toward 0
    a = {v: {max(v - 1, 0): 1, v: 1} for v in range(61)}
    b = {v: {max(v - 2, 0): 1, v: 2} for v in range(61)}
    return load_spec({"indexing": {"mode": "one_sided", "base": 0},
                      "levels": [a, b], "extension": "repeat_last"})


def explicit_width_bounded():
    # two declared levels of width 1 on -60..60, the second repeated; the
    # walks and sweeps below read no row outside that range
    a = {v: {v: 1, v + 1: 1} for v in range(-60, 61)}
    b = {v: {v - 1: 1, v: 2} for v in range(-60, 61)}
    return load_spec({"levels": [a, b], "extension": "repeat_last",
                      "flags": [{"kind": "bounded_size", "t": 1}]})


def width_rows_only():
    """Two-sided, width 1, no column rule: columns come from the rows."""
    def rows(n, v):
        return [(v - 1, 1), (v, 2)]

    return DiagramHandle(two_sided(), rows, stationary_from=0,
                         flags=(BoundedSizeFlag(1),))


def without_columns(d):
    """The same rows and flags as d, without d's column rule."""
    return DiagramHandle(d.indexing, d.in_edges, stationary_from=d.stationary_from,
                         flags=d.flags, name=d.name)


def kernel_handles():
    out = {}
    for name in NAMES:
        d = make_diagram(name)
        out[name] = d
        for label, g in (("interleave", interleave()), ("level_shift", level_shift(1))):
            try:
                out[f"{name} {label}"] = relabel(d, g)
            except IndexingMismatchError:
                pass
        gens = generators(d)
        out[f"{name} toeplitz"] = toeplitz_reenumeration(d, gens[:1], 64)[1]
    out["explicit repeat_last"] = explicit_repeat_last()
    out["explicit bounded_size"] = explicit_width_bounded()
    out["width rows only"] = width_rows_only()
    return out


KERNEL_HANDLES = kernel_handles()


# every handle is walked through its columns, and the width-bounded
# ones also through columns derived from their own rows within their
# width, with any column rule taken away
WALKS = ([(name, "columns") for name in sorted(KERNEL_HANDLES)]
         + [(name, "rows") for name in sorted(KERNEL_HANDLES)
            if KERNEL_HANDLES[name].width is not None])


@pytest.mark.parametrize("name,through", WALKS)
def test_forward_layers_agree_with_backward_sweeps(name, through):
    d = KERNEL_HANDLES[name]
    walked_d = without_columns(d) if through == "rows" else d
    lo, hi = d.indexing.default_interval(2)
    starts = range(lo, hi + 1)
    ulo, uhi = d.indexing.default_interval(2 + 4 * K)
    for n in (0, 1):
        layers = {w: list(forward_layers(walked_d, w, n, K)) for w in starts}
        for k in range(K + 1):
            walked = [w for w in starts if len(layers[w]) > k]
            if not walked:
                break
            # every vertex of a layer reaches back to w ...
            for w in walked:
                for u in layers[w][k]:
                    assert w in backward_reach_set(d, u, n + k, n), (name, w, n, k, u)
            # ... and every vertex of the window that does is in it
            for u in range(ulo, uhi + 1):
                reach = backward_reach_set(d, u, n + k, n)
                for w in walked:
                    assert (u in layers[w][k]) == (w in reach), (name, w, n, k, u)


@pytest.mark.parametrize("name", ["b_infinity", "renewal_shift"])
def test_walk_ends_at_the_first_infinite_column(name):
    d = make_diagram(name)
    for w in range(1, 8):
        layers = list(forward_layers(d, w, 0, 39))
        last = len(layers) - 1
        for k, layer in enumerate(layers[:-1]):
            assert all(d.column_support(k, u).is_finite for u in layer)
        assert any(not d.column_support(last, u).is_finite for u in layers[-1])


def test_renewal_walk_stops_at_the_full_column():
    # w -> w - 1 down to 1, whose column covers every vertex
    d = make_diagram("renewal_shift")
    assert list(forward_layers(d, 5, 0, 39)) == [{5}, {4}, {3}, {2}, {1}]


def declared_levels_handle():
    """Three declared levels on two-sided vertices, then an error: the
    rows of 0, 1 and 2 change with the level, every other vertex feeds
    only itself.  Its column rule states the columns those rows give."""
    mats = [{0: {0: 1, 1: 1}, 1: {1: 1}, 2: {1: 1, 2: 2}},
            {0: {1: 2}, 1: {1: 1, 2: 1}, 2: {1: 1}},
            {0: {1: 1, 0: 1}, 1: {0: 1, 1: 1}, 2: {1: 1, 2: 1}}]

    def rows(n, v):
        return list(mats[n].get(v, {v: 1}).items())

    def cols(n, w):
        if w not in (0, 1, 2):
            return ColumnSupport.finite(((w, 1),))
        return ColumnSupport.finite(
            (v, row[w]) for v, row in mats[n].items() if w in row)

    return DiagramHandle(two_sided(), rows, col_rule=cols,
                         flags=(ExplicitLevelsFlag("error_beyond", 3),),
                         name="declared_levels")


def test_walk_ends_at_the_undeclared_level():
    d = declared_levels_handle()
    layers = list(forward_layers(d, 1, 0, 39))
    assert len(layers) == 4  # levels 0..3; the columns at level 3 are undeclared
    assert layers[1] == {0, 1, 2}


def reference_cone_bound(d, v, n, m):
    """The per-vertex backward formula: one sweep per interval vertex."""
    total = d.width * (m - n)
    lo, hi = d.indexing.clamp(v - total, v + total)
    return (v - total, v + total), sorted(
        u for u in range(lo, hi + 1) if v in backward_reach_set(d, u, m, n))


def test_cone_bound_matches_the_backward_formula():
    calls = 0
    for name in catalog_names():
        if name == "banded":
            continue
        d = make_diagram(name)
        if d.width is None:
            continue
        lo, hi = d.indexing.default_interval(6)
        for v in range(lo, hi + 1):
            for n in range(2):
                for m in range(n + 1, n + 7):
                    assert cone_bound(d, v, n, m) == reference_cone_bound(d, v, n, m)
                    calls += 1
    assert calls == 1248


def banded_explicit(rows):
    """One declared level, repeated, on vertices -4..4, width 1."""
    return load_spec({"levels": [rows], "extension": "repeat_last",
                      "flags": [{"kind": "bounded_size", "t": 1}]})


def test_cone_bound_raises_on_an_undeclared_row_the_cone_may_reach():
    # -4@0 has out-edges to -4 and, if -5 were declared, to -5: the answer
    # would depend on a row the spec does not give
    d = banded_explicit({v: {v: 1, v + 1: 1} for v in range(-4, 5)})
    with pytest.raises(UndeclaredRowError, match="vertex -5"):
        cone_bound(d, -4, 0, 1)
    assert cone_bound(d, 0, 0, 3) == ((-3, 3), [-3, -2, -1, 0])


def test_cone_bound_answers_when_the_undeclared_rows_are_out_of_reach():
    # diagonal rows: every row the cone of 3@0 may reach (2, 3 and 4) is
    # declared, though 5 and 6 of the licensed interval are not
    d = banded_explicit({v: {v: 1} for v in range(-4, 5)})
    assert cone_bound(d, 3, 0, 3) == ((0, 6), [3])


def test_cone_bound_on_a_handle_without_columns():
    d = width_rows_only()
    for v in range(-3, 4):
        for m in range(1, 6):
            assert cone_bound(d, v, 0, m) == reference_cone_bound(d, v, 0, m)
    assert cone_bound(d, 0, 0, 2) == ((-2, 2), [0, 1, 2])


def plain_odometer(read=None):
    """Two-sided, exact columns, no declared width bound; read logs each
    column the rule is asked for."""
    def rows(n, v):
        return [(v, 2), (v + 1, 1)]

    def cols(n, w):
        if read is not None:
            read.append((n, w))
        return ColumnSupport.finite(((w - 1, 1), (w, 2)))

    return DiagramHandle(two_sided(), rows, stationary_from=0, col_rule=cols,
                         name="plain_odometer")


def test_a_stationary_column_is_read_once():
    read = []
    d = plain_odometer(read)
    for _ in range(2):
        assert list(forward_layers(d, 0, 0, 9))[-1] == set(range(-9, 1))
    assert len(read) == len({w for _, w in read})


def test_anchored_flatten_pins_the_cone_minima():
    g, _, _ = cone_flatten(plain_odometer(), anchor=(0, 0), horizon=32)
    # the cone from 0@0 is [-k, 0] at level k: its minimum moves to 0 up
    # to the horizon, and levels past it are not shifted
    assert [g.forward(k, -k) for k in range(33)] == [0] * 33
    assert g.forward(33, -33) == -33


def test_blocked_anchored_flatten_raises():
    with pytest.raises(NoBoundedSizeFlagError, match="level 3"):
        cone_flatten(declared_levels_handle(), anchor=(1, 0), horizon=8)


def test_anchored_flatten_of_an_empty_cone_names_the_level():
    # 0 feeds nothing: the row of 1 is {2} and every other row is {v - 1}
    def rows(n, v):
        return [(2, 1)] if v == 1 else [(v - 1, 1)]

    def cols(n, w):
        if w == 0:
            return ColumnSupport.finite(())
        if w == 2:
            return ColumnSupport.finite(((1, 1), (3, 1)))
        return ColumnSupport.finite(((w + 1, 1),))

    d = DiagramHandle(two_sided(), rows, stationary_from=0, col_rule=cols)
    with pytest.raises(NoBoundedSizeFlagError, match="empty at level 1"):
        cone_flatten(d, anchor=(0, 0))


def test_an_explicit_column_needs_every_row_of_its_band():
    # -5 may hold -4 under the width flag but has no declared row, so the
    # column of -4 is not known, and neither is the cone past level 0
    d = banded_explicit({v: {v: 1, v + 1: 1} for v in range(-4, 5)})
    with pytest.raises(UndeclaredRowError, match="vertex -5"):
        d.column_support(0, -4)
    assert list(forward_layers(d, -4, 0, 2)) == [{-4}]
    assert d.column_support(0, 0).entries == ((-1, 1), (0, 1))


def test_an_explicit_spec_without_a_width_flag_knows_no_column():
    d = load_spec({"levels": [{v: {v: 1, v + 1: 1} for v in range(-4, 5)}],
                   "extension": "repeat_last"})
    assert d.column_support(0, 0) is None
    assert list(forward_layers(d, 0, 0, 2)) == [{0}]


def test_relabel_of_an_explicit_width_spec_builds():
    # the relabeled column check reads bands that leave the declared rows
    d = banded_explicit({v: {v: 1, v + 1: 1} for v in range(-4, 5)})
    g = cone_shift(1)
    d2 = relabel(d, g)
    assert d2.column_support(0, g.forward(0, 0)) == ColumnSupport.finite(
        (g.forward(1, v), m) for v, m in d.column_support(0, 0).entries)
