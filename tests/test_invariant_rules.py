"""Each invariant's reach rule, checked against the per-kind formulas it
replaced and against the rows of the catalog.

The reference functions below are the per-kind formulas that
`excludes_pair`, the classification's excluding-power test and the orbit
probe's eternal separation spelled out before `NonReachInvariant.drift`
and `residue_class` stated the rule once.  They stay here, unchanged, as
the reference the methods are compared with on a seeded sample.
"""

import math
import random

import pytest

from gbdkit import make_diagram
from gbdkit.catalog import catalog_names
from gbdkit.generators import EventualTrace
from gbdkit.paths import backward_reach_set
from gbdkit.verdicts import (
    ALL_KINDS,
    CLOPEN,
    CONE,
    RESIDUE,
    TRIANGULAR,
    NonReachInvariant,
    find_invariants,
)

SAMPLE = 12_000


# --- reference formulas ----------------------------------------------------------

def ref_excludes_pair(inv, i, j):
    if not inv.is_global:
        return False
    if inv.kind == TRIANGULAR:
        direction, c = inv.params
        if direction == "lower" and c <= 0:
            return j < i - c
        if direction == "upper" and c >= 0:
            return j > i - c
        return False
    if inv.kind in (RESIDUE, CLOPEN):
        p, a = inv.params
        g = math.gcd(a % p, p) or p
        return (j - i) % g != 0
    if inv.kind == CONE:
        (t,) = inv.params
        return t == 0 and j != i
    return False


def ref_has_excluding_power(inv):
    if inv.kind == TRIANGULAR:
        direction, c = inv.params
        if direction == "lower" and c <= 0:
            return True
        if direction == "upper" and c >= 0:
            return True
        return False
    if inv.kind == RESIDUE:
        p, a = inv.params
        return math.gcd(a % p, p) > 1
    if inv.kind == CONE:
        return inv.params[0] == 0
    return False


def ref_eternal_separation(inv, j, ell, ev):
    if not (inv.is_global and ev.certified):
        return None
    q = ev.period
    M0 = max(ev.start, ell + 1)

    def first_m(r):
        m = M0
        while (m - ev.start) % q != r:
            m += 1
        return m

    if inv.kind == TRIANGULAR:
        direction, c = inv.params
        for r in range(q):
            m0 = first_m(r)
            bound0 = j - c * (m0 - ell)
            f0 = ev.value(m0) - bound0
            slope = ev.step + c * q
            ok = (slope <= 0 and f0 < 0) if direction == "lower" \
                else (slope >= 0 and f0 > 0)
            if not ok:
                return None
        return M0
    if inv.kind == CONE:
        (t,) = inv.params
        for r in range(q):
            m0 = first_m(r)
            below0 = ev.value(m0) - (j - t * (m0 - ell))
            above0 = ev.value(m0) - (j + t * (m0 - ell))
            below_ok = ev.step + t * q <= 0 and below0 < 0
            above_ok = ev.step - t * q >= 0 and above0 > 0
            if not (below_ok or above_ok):
                return None
        return M0
    if inv.kind == RESIDUE:
        p, a = inv.params
        target = (j + a * ell) % p
        for r in range(q):
            m0 = first_m(r)
            step = (ev.step + a * q) % p
            attained = {(ev.value(m0) + a * m0 + k * step) % p for k in range(p)}
            if target in attained:
                return None
        return M0
    return None


# --- the seeded sample -----------------------------------------------------------

def random_invariant(rng, kind):
    if kind == TRIANGULAR:
        params = (rng.choice(("lower", "upper")), rng.randint(-3, 3))
    elif kind == CONE:
        params = (rng.randint(0, 3),)
    else:
        p = rng.randint(2, 6)
        params = (p, rng.randrange(p))
    via = rng.choice(((), ("BandedFlag",)))
    return NonReachInvariant(kind, params, (), True, via)


def random_trace(rng, period):
    return EventualTrace(start=rng.randint(0, 5), period=period,
                         step=rng.randint(-4, 4), certified=rng.random() < 0.8,
                         base_vertices=tuple(rng.randint(-8, 8)
                                             for _ in range(period)))


@pytest.fixture(scope="module")
def sample():
    rng = random.Random(20261018)
    return [(random_invariant(rng, rng.choice(ALL_KINDS)),
             random_trace(rng, rng.choice((1, 2))),
             rng.randint(-8, 8), rng.randint(0, 6), rng.randint(-8, 8))
            for _ in range(SAMPLE)]


def test_sample_covers_every_case(sample):
    seen = {(inv.kind, inv.is_global, ev.certified, ev.period)
            for inv, ev, *_ in sample}
    assert len(seen) == len(ALL_KINDS) * 2 * 2 * 2


def test_excludes_pair_matches_the_reference(sample):
    for inv, _, i, _, j in sample:
        assert inv.excludes_pair(i, j) == ref_excludes_pair(inv, i, j), (inv, i, j)


def test_excludes_some_pair_matches_the_reference(sample):
    for inv, *_ in sample:
        # the reference was only asked about global invariants, and never
        # credited a clopen one: a residue twin with the same (p, a) is
        # found first and answers for it
        twin = NonReachInvariant(RESIDUE, inv.params) if inv.kind == CLOPEN else inv
        assert inv.excludes_some_pair == \
            (inv.is_global and ref_has_excluding_power(twin)), inv
        assert inv.excludes_some_pair == any(
            inv.excludes_pair(i, j) for i in range(-3, 4) for j in range(-3, 4)), inv


def test_separation_level_matches_the_reference(sample):
    for inv, ev, j, ell, _ in sample:
        assert inv.separation_level(j, ell, ev) == \
            ref_eternal_separation(inv, j, ell, ev), (inv, ev, j, ell)


def test_never_ascends_is_an_upper_bound_of_slack_at_least_zero(sample):
    for inv, *_ in sample:
        upper = inv.kind == TRIANGULAR and inv.params[0] == "upper" \
            and inv.params[1] >= 0
        zero_cone = inv.kind == CONE and inv.params == (0,)
        assert inv.never_ascends == (upper or zero_cone), inv


def test_residue_class_is_v_plus_a_n_mod_p(sample):
    for inv, _, v, n, _ in sample:
        if inv.kind in (RESIDUE, CLOPEN):
            p, a = inv.params
            assert inv.residue_class(v, n) == (v + a * n) % p


# --- the rule against the catalog ------------------------------------------------

FAMILIES = [n for n in catalog_names() if n != "banded"]


@pytest.mark.parametrize("name", FAMILIES)
def test_classification_picks_the_reference_invariant(name):
    d = make_diagram(name)
    invs = find_invariants(d, d.default_window())
    assert next((inv for inv in invs if inv.excludes_some_pair), None) == next(
        (inv for inv in invs if inv.is_global and ref_has_excluding_power(inv)),
        None)


@pytest.mark.parametrize("name", FAMILIES)
def test_reach_stays_within_the_drift_and_the_residue_class(name):
    d = make_diagram(name)
    invs = find_invariants(d, d.default_window())
    lo, hi = d.indexing.default_interval(4)
    for k in (1, 2, 3):
        for v in range(lo, hi + 1):
            sources = backward_reach_set(d, v, k, 0)
            for inv in invs:
                floor, ceiling = inv.drift
                for j in sources:
                    assert floor is None or v >= j + floor * k, (inv, j, v, k)
                    assert ceiling is None or v <= j + ceiling * k, (inv, j, v, k)
                    if inv.kind in (RESIDUE, CLOPEN):
                        assert inv.residue_class(v, k) == inv.residue_class(j, 0)
                    if inv.is_global:
                        assert not inv.excludes_pair(j, v), (inv, j, v)
