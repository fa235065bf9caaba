"""Complete irreducibility is an isomorphism invariant, so no relabeling
may move a catalog family into the other irreducibility class; a finite
search may only lose the class to `unknown`."""

import functools

import pytest

from gbdkit import (
    alternating_from,
    classify_irreducibility_type,
    climbing,
    compact_cylinder_check,
    cone_shift,
    cylinder_at,
    dense_orbit_reenumeration,
    interleave,
    leftmost_slant_from,
    level_shift,
    make_diagram,
    make_generator,
    relabel,
    toeplitz_reenumeration,
    verify_permutation_identity,
    vertical_from,
)
from gbdkit.errors import GbdError, IndexingMismatchError

from conftest import NAMES


def generators(d):
    """Up to two valid generators: a vertical one where a loop exists near
    the origin, then climbing, alternating and slanting ones."""
    lo, hi = d.indexing.default_interval(3)
    loops = [v for v in sorted(range(lo, hi + 1), key=lambda t: (abs(t), t))
             if d.indexing.contains(v) and d.entry(0, v, v) > 0]
    base = d.indexing.base if d.indexing.mode == "one_sided" else 0
    found = []
    for make in ([lambda: vertical_from(d, loops[0])] if loops else []) + [
            lambda: climbing(d, base), lambda: alternating_from(d, base),
            lambda: make_generator(d, "rightmost_slant", vertex=base),
            lambda: leftmost_slant_from(d, base)]:
        try:
            g = make()
            g.validate_to(8)
        except GbdError:
            continue
        found.append(g)
    return found[:2]


@pytest.mark.parametrize("relabeling", ["toeplitz", "dense"])
def test_relabeled_renewal_shift_is_not_relatively_irreducible(relabeling):
    # a repeated layer of a non-stationary handle proves nothing: the cone
    # of 3@0 is the same one vertex at levels 2 and 3, whose column at
    # level 3 covers every vertex
    d = make_diagram("renewal_shift")
    x = vertical_from(d, 1)
    if relabeling == "toeplitz":
        _, d2, _ = toeplitz_reenumeration(d, [x], 400)
    else:
        d2 = relabel(d, dense_orbit_reenumeration(d, x))
    assert not d2.stationary
    verdict = compact_cylinder_check(d2, cylinder_at(d2, 3))
    assert verdict.is_no and verdict.certificate["level"] == 3
    assert classify_irreducibility_type(d).kind == "completely_irreducible"
    assert classify_irreducibility_type(d2).kind == "unknown"


RELABELINGS = ("interleave", "level_shift", "cone_shift", "toeplitz1",
               "toeplitz2", "dense")
SHIFTS = ("interleave", "level_shift", "cone_shift")
# cone_shift needs a width rule, which renewal_shift, b_infinity and
# star_odometer do not carry
CASES = [(name, label) for name in NAMES for label in RELABELINGS
         if label != "cone_shift" or make_diagram(name).width is not None]


def relabeled(d, label):
    """(bijections, relabeled handle) of d under the named relabeling."""
    gens = generators(d)
    if label.startswith("toeplitz"):
        return toeplitz_reenumeration(d, gens[:int(label[-1])], 64)[:2]
    g = {"interleave": interleave,
         "level_shift": lambda: level_shift(1),
         "cone_shift": lambda: cone_shift(d.width),
         "dense": lambda: dense_orbit_reenumeration(d, gens[0])}[label]()
    return g, relabel(d, g)


@functools.cache
def base_class(name):
    return classify_irreducibility_type(make_diagram(name)).kind


def test_generators_cover_every_family():
    assert all(len(generators(make_diagram(name))) == 2 for name in NAMES)


@pytest.mark.parametrize("name,label", CASES)
def test_irreducibility_class_survives_relabeling(name, label):
    d = make_diagram(name)
    if label in SHIFTS and d.indexing.mode == "one_sided":
        # a shift would move the base of a one-sided level
        with pytest.raises(IndexingMismatchError):
            relabeled(d, label)
        return
    g, d2 = relabeled(d, label)
    assert verify_permutation_identity(d, d2, g, 3)
    # a short horizon suffices: the false Yes this guards against shows
    # at step 2
    kind = classify_irreducibility_type(d2, horizon=16).kind
    assert kind in (base_class(name), "unknown")
