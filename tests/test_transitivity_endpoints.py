"""`transitivity_probe` asks one orbit verdict per cylinder endpoint and
counts the cylinders; it answers exactly as a loop that lists every
cylinder and asks each one."""

import pytest

from gbdkit import (
    Edge,
    FinitePath,
    Verdict,
    alternating_from,
    cylinders_ending_in,
    make_diagram,
    make_generator,
    orbit_visits_cylinder,
    transitivity_probe,
)
from gbdkit import dynamics
from gbdkit.dynamics import _generator_battery
from gbdkit.specfmt import load_spec

from conftest import NAMES
from test_sweep_reuse import explicit_error_beyond, outcome


def listed(d, length, window):
    """The cylinder listing as one depth-first stack over all endpoints."""
    lo, hi = d.indexing.clamp(*window)
    out = []
    for v in range(lo, hi + 1):
        stack = [(length, v, ())]
        while stack:
            lvl, at, acc = stack.pop()
            if lvl == 0:
                out.append(FinitePath(0, at, acc))
                continue
            for w, mult in d.in_edges(lvl - 1, at):
                for copy in range(mult):
                    stack.append((lvl - 1, w,
                                  (Edge(lvl - 1, w, at, copy),) + acc))
    return out


def per_cylinder_probe(d, x, cyl_depth, window, depth):
    """Every cylinder listed and asked, in listing order."""
    unknowns = 0
    checked = 0
    for length in range(cyl_depth + 1):
        for c in listed(d, length, window):
            checked += 1
            v = orbit_visits_cylinder(d, x, c, depth)
            if v.is_no:
                return Verdict.no(certificate=v.certificate,
                                  witness_cylinder=c.describe(),
                                  cylinders_checked=checked)
            if v.is_unknown:
                unknowns += 1
    if unknowns:
        return Verdict.unknown(depth=depth, windows=window,
                               unknown_cylinders=unknowns)
    return Verdict.yes(witness={"cylinders_checked": checked,
                                "cyl_depth": cyl_depth, "window": list(window)})


def hostile_explicit():
    # 0@3 has sources 0, 1, 2; 1 has no row at level 1, and 2's source 5
    # has none at level 0.  The listing meets 5@0 first (last source
    # first); a level-by-level sweep would meet 1@1 first.
    return load_spec({"levels": [{0: {0: 1}},
                                 {0: {0: 1}, 2: {5: 1}},
                                 {0: {0: 1, 1: 1, 2: 1}}],
                      "extension": "repeat_last"})


def both(d, make_gens, cyl_depths, windows, depth=10):
    """(new, reference) outcomes over fresh generators for each probe."""
    new, ref = [], []
    for window in windows:
        for cyl_depth in cyl_depths:
            for k in range(len(make_gens())):
                x = make_gens()[k]
                new.append(outcome(lambda: transitivity_probe(
                    d, x, cyl_depth, window, depth)))
                x = make_gens()[k]
                ref.append(outcome(lambda: per_cylinder_probe(
                    d, x, cyl_depth, window, depth)))
    return new, ref


@pytest.mark.parametrize("name", NAMES)
def test_catalog_battery_matches_the_per_cylinder_loop(name):
    d = make_diagram(name)
    windows = [d.indexing.default_interval(r) for r in (1, 2)]
    new, ref = both(d, lambda: _generator_battery(d), range(4), windows)
    assert new == ref
    for window in windows:
        for length in range(4):
            assert cylinders_ending_in(d, length, window) \
                == listed(d, length, window)


def test_a_deep_no_matches_the_per_cylinder_loop():
    # the leftmost slant from -1 falls one vertex a level, so it misses the
    # cylinders ending left of it only from some length on
    o2 = make_diagram("odometer_two_sided")
    gens = lambda: [make_generator(o2, "leftmost_slant", vertex=v)
                    for v in (-2, -1)]
    new, ref = both(o2, gens, range(4), [(-3, -3), (-3, -1), (-4, 1)])
    assert new == ref
    deep = [o for o in ref if o["verdict"] == "no"
            and o["detail"]["witness_cylinder"]["copies"]]
    assert max(o["detail"]["cylinders_checked"] for o in deep) >= 14


@pytest.mark.parametrize("spec", [explicit_error_beyond, hostile_explicit])
def test_explicit_specs_match_the_per_cylinder_loop(spec):
    d = spec()
    gens = lambda: [make_generator(d, kind, vertex=v)
                    for kind in ("vertical", "alternating") for v in (0, 1, 2)]
    new, ref = both(d, gens, range(5), [(0, 2), (0, 0)])
    assert new == ref
    assert any(isinstance(o, tuple) for o in ref)  # some probes raise


def test_listing_order_decides_the_error():
    d = hostile_explicit()
    x = make_generator(d, "vertical", vertex=0)
    assert outcome(lambda: transitivity_probe(d, x, 3, (0, 0))) == (
        "UndeclaredRowError", "vertex 5 has no declared row at level 0")


def test_one_verdict_per_endpoint(monkeypatch):
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return orbit_visits_cylinder(*args, **kwargs)

    monkeypatch.setattr(dynamics, "orbit_visits_cylinder", counted)
    o2 = make_diagram("odometer_two_sided")
    v = transitivity_probe(o2, alternating_from(o2, 0), 4, (-6, 6))
    assert v.is_yes and v.witness["cylinders_checked"] == 1573
    assert calls[0] <= 65  # 13 end vertices at each of 5 lengths


def test_deep_cylinder_count_is_exact():
    o2 = make_diagram("odometer_two_sided")
    v = transitivity_probe(o2, alternating_from(o2, 0), 12, (-6, 6))
    assert v.is_yes
    assert v.witness["cylinders_checked"] == 13 * (3 ** 13 - 1) // 2 \
        == 10_363_093


def test_negative_cyl_depth_is_rejected():
    o2 = make_diagram("odometer_two_sided")
    with pytest.raises(ValueError, match="cyl_depth"):
        transitivity_probe(o2, make_generator(o2, "vertical", vertex=0), -1)
