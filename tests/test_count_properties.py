"""`count_paths` against the backward counting sweep it replaces on
translation-invariant cones: random bands, bands with one defective row,
and the errors its guard must leave to the sweep."""

import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gbdkit import (
    DiagramHandle,
    ExplicitLevelsFlag,
    InvalidVertexError,
    UndeclaredRowError,
    UnsupportedLevelError,
    count_paths,
    level_shift,
    load_spec,
    make_diagram,
    relabel,
)
from gbdkit import paths
from gbdkit.indexing import two_sided

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)

offsets = st.dictionaries(st.integers(-3, 3), st.integers(1, 3),
                          min_size=1, max_size=4)


def sweep_layer(d, v, n, m):
    for layer in paths._sweep(d, v, m, n, counting=True):
        pass
    return layer


def sweep_count(d, w, n, v, m):
    """The count of the backward sweep alone, errors included."""
    layer = sweep_layer(d, v, n, m)
    d.indexing.check(w)
    return layer.get(w, 0)


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@PROPERTY
@given(offs=offsets, side=st.sampled_from(["one", "two"]),
       base=st.integers(-2, 2), v=st.integers(-3, 40), w=st.integers(-3, 40),
       n=st.integers(0, 5), k=st.integers(0, 40))
def test_count_paths_equals_the_sweep_on_random_bands(offs, side, base, v, w, n, k):
    # a one-sided band whose offsets are all negative has an empty base row
    assume(side == "two" or max(offs) >= 0)
    d = make_diagram("banded", offsets=offs, side=side, base=base)
    want = outcome(sweep_count, d, w, n, v, n + k)
    assert outcome(count_paths, d, w, n, v, n + k) == want


def defective_band(offs, at):
    """A stationary two-sided band whose row at vertex `at` alone has its
    lowest source's multiplicity raised by one."""
    items = sorted(offs.items())

    def rows(n, u):
        row = [(u + o, mult) for o, mult in items]
        if u == at:
            row[0] = (row[0][0], row[0][1] + 1)
        return row

    return DiagramHandle(two_sided(), rows, stationary=True, name="defective band")


@PROPERTY
@given(offs=offsets, v=st.integers(-40, 40), w=st.integers(-40, 40),
       at=st.integers(-40, 40), n=st.integers(0, 5), k=st.integers(1, 40))
def test_a_defective_row_in_the_cone_leaves_the_count_to_the_sweep(offs, v, w, at,
                                                                   n, k):
    os = sorted(offs)
    g = math.gcd(*os) or 1
    lo, hi = v + min(0, (k - 1) * os[0]), v + max(0, (k - 1) * os[-1])
    inside = lo <= at <= hi and (at - v) % g == 0
    want = sweep_count(defective_band(offs, at), w, n, v, n + k)
    d = defective_band(offs, at)
    with mock.patch.object(paths, "_sweep", wraps=paths._sweep) as sweep:
        assert count_paths(d, w, n, v, n + k) == want
    # a cone of one vertex reads one row, so a defect there is its band
    assert sweep.called == (inside and lo < hi)


def relabeled_and_sided_bands():
    out = {name: (make_diagram(name), 0)
           for name in ("tridiag_B", "parity_1", "parity_2", "shifted_Bsecond",
                        "odometer_two_sided")}
    out["level_shift(1) of tridiag_B"] = (
        relabel(make_diagram("tridiag_B"), level_shift(1)), 0)
    out["odometer_one_sided away from its base"] = (
        make_diagram("odometer_one_sided"), 450)
    return out


BANDS = relabeled_and_sided_bands()


@pytest.mark.parametrize("name", sorted(BANDS))
def test_band_power_equals_the_sweep_on_every_vertex_of_a_deep_layer(name):
    d, v = BANDS[name]
    k = 400 if name == "tridiag_B" else 200
    layer = sweep_layer(d, v, 0, k)
    assert paths._band_offsets(d, 0, v, k) is not None
    # every 7th vertex, so both parities of the parity bands, and both ends
    ws = [*range(min(layer) - 2, max(layer) + 3, 7), max(layer), max(layer) + 1]
    assert [count_paths(d, w, 0, v, k) for w in ws] == [layer.get(w, 0) for w in ws]


@pytest.mark.parametrize("offset", [-2, 0, 1])
@pytest.mark.parametrize("mult", [2, 3])
def test_each_field_holds_the_higher_half_power(offset, mult):
    # one offset: P^k is the single coefficient mult^k, which for odd k
    # outgrows the field of mult^(k // 2) at some k <= 40
    d = make_diagram("banded", offsets={offset: mult})
    assert [count_paths(d, 5 + k * offset, 0, 5, k) for k in range(1, 41)] == \
        [mult ** k for k in range(1, 41)]


# --- errors the guard leaves to the sweep ---------------------------------------------

def band_with_two_levels():
    """tridiag_B's rows, stationary, on the two levels an error_beyond flag
    declares."""
    return DiagramHandle(two_sided(), lambda n, v: [(v - 1, 1), (v, 2), (v + 1, 1)],
                         stationary=True, name="two levels",
                         flags=(ExplicitLevelsFlag("error_beyond", 2),))


def windowed_band():
    """tridiag_B's rows on vertices -4..4 only, repeated, under a banded flag."""
    rows = {v: {v - 1: 1, v: 2, v + 1: 1} for v in range(-4, 5)}
    return load_spec({"levels": [rows], "extension": "repeat_last",
                      "flags": [{"kind": "banded",
                                 "offsets": {-1: 1, 0: 2, 1: 1}}]})


@pytest.mark.parametrize("d, args, error, message", [
    (windowed_band(), (0, 0, 3, 3), UndeclaredRowError,
     "vertex 5 has no declared row at level 0"),
    (band_with_two_levels(), (0, 0, 0, 5), UnsupportedLevelError,
     "level 4 beyond the 2 declared levels"),
    (make_diagram("tridiag_B"), (0, 3, 0, 2), ValueError,
     "levels out of order: 3 > 2"),
    (make_diagram("odometer_one_sided"), (0, 0, -1, 5), InvalidVertexError,
     "vertex -1 below one-sided base 1"),
    (make_diagram("odometer_one_sided"), (0, 0, 3, 5), InvalidVertexError,
     "vertex 0 below one-sided base 1"),
], ids=["a band's rows stop at a window", "a band's levels end", "m < n",
        "invalid v before invalid w", "invalid w"])
def test_the_guard_raises_what_the_sweep_raises(d, args, error, message):
    with pytest.raises(error) as caught:
        count_paths(d, *args)
    assert str(caught.value) == message
    assert outcome(sweep_count, d, *args) == (error, message)


def test_a_bad_row_the_sweep_never_reads_leaves_the_count_to_the_sweep():
    # offsets 2 and 3 never reach 1 from 0, but the guard reads every
    # vertex of [0, 3 (k - 1)]: its failing read is not an answer
    d = DiagramHandle(two_sided(),
                      lambda n, v: [] if v == 1 else [(v + 2, 1), (v + 3, 1)],
                      stationary=True, name="bad row at 1")
    assert count_paths(d, 9, 0, 0, 4) == sweep_count(d, 9, 0, 0, 4) == 4


def test_a_windowed_band_answers_from_its_power_inside_the_window():
    d = windowed_band()
    assert paths._band_offsets(d, 0, 0, 3) is not None
    assert [count_paths(d, w, 0, 0, 3) for w in range(-4, 5)] == \
        [sweep_count(d, w, 0, 0, 3) for w in range(-4, 5)]
