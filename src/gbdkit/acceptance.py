"""Runnable acceptance criteria.

Each criterion is a zero-argument callable returning a CriterionResult;
all checks are exact (integer equality, verdict identity), nothing is
tolerance-based.  The pytest suite and the command-line report both run
these.
"""

from __future__ import annotations

import collections
import random
import time
from dataclasses import dataclass

from . import (
    alternating_from,
    catalog_names,
    climbing,
    cone_bound,
    count_paths,
    cylinder_at,
    cylinders_ending_in,
    enumerate_paths,
    interleave,
    invariant_certificate,
    irreducible_probe,
    leftmost_slant_from,
    level_shift,
    make_diagram,
    make_generator,
    minimality_certificate,
    orbit_visits_cylinder,
    period_of_index,
    relabel,
    toeplitz_reenumeration,
    transitivity_probe,
    vertical_from,
    verify_permutation_identity,
)
from .bijections import cone_shift, identity
from .errors import GbdError

SEED = 20240817


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    @property
    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name}: {self.detail}"


def _check(cond, msg):
    if not cond:
        raise AssertionError(msg)


# --- 1: two-sided band vs its one-sided fold ---------------------------------

def criterion_1_fold_isomorphism():
    td = make_diagram("tridiag_B")
    bp = make_diagram("interleaved_Bprime")
    g = interleave()
    dprime = relabel(td, g)
    listed = [(0, 0, 2), (1, 1, 2), (0, 1, 1), (0, 2, 1),
              (1, 0, 1), (1, 3, 1), (2, 0, 1), (3, 1, 1)]
    for v, w, want in listed:
        _check(dprime.entry(0, v, w) == want,
               f"relabeled entry ({v},{w}) = {dprime.entry(0, v, w)}, want {want}")
        _check(bp.entry(0, v, w) == want, f"catalog entry ({v},{w}) wrong")
    for n in range(5):
        _check(dprime.incidence_window(n, (0, 20), (0, 20))
               == bp.incidence_window(n, (0, 20), (0, 20)),
               f"windowed mismatch at level {n}")
    _check(verify_permutation_identity(td, bp, g, 4, radius=12),
           "permutation identity failed")
    return "relabeled band equals the folded catalog diagram on [0,20]^2, levels 0..4"


# --- 2: level shift makes the band triangular ---------------------------------

def criterion_2_shift_triangularity():
    td = make_diagram("tridiag_B")
    dsec = relabel(td, level_shift(1))
    for n in range(3):
        for v in range(-10, 11):
            row = dict(dsec.in_edges(n, v))
            _check(row == {v: 1, v - 1: 2, v - 2: 1},
                   f"shifted row {v} at level {n} is {row}")
    pairs = [(0, -1), (0, -3), (3, 1), (-2, -5), (5, -5)]
    for i, j in pairs:
        verdict = irreducible_probe(dsec, i, j, 0, 12)
        _check(verdict.is_no, f"probe {i}->{j} gave {verdict.value}")
        _check(verdict.certificate.kind == "triangular_support",
               f"certificate kind {verdict.certificate.kind}")
    return ("shifted band is lower-triangular (1/2/1 on offsets 0/-1/-2); "
            f"{len(pairs)} descending probes certified No(TriangularSupport)")


# --- 3: counting vs enumeration oracle ----------------------------------------

def default_catalog():
    return [make_diagram(n) for n in catalog_names() if n != "banded"]


def criterion_3_oracle_equivalence():
    rng = random.Random(SEED)
    handles = default_catalog()
    done = 0
    while done < 200:
        d = handles[rng.randrange(len(handles))]
        lo, hi = d.indexing.default_interval(8)
        n = rng.randrange(0, 3)
        m = n + rng.randrange(0, 6)
        w = rng.randrange(lo, hi + 1)
        v = rng.randrange(lo, hi + 1)
        c = count_paths(d, w, n, v, m)
        if c > 50_000:
            continue
        paths, truncated = enumerate_paths(d, w, n, v, m, cap=None)
        _check(not truncated, "uncapped enumeration truncated")
        _check(len(paths) == c,
               f"{d.name}: count {c} != {len(paths)} paths for "
               f"{w}@{n}->{v}@{m}")
        seen = set()
        for p in paths:
            p.validate(d)
            _check(p.edges not in seen, "duplicate path")
            seen.add(p.edges)
        done += 1
    return "200 randomized instances: count_paths equals exhaustive enumeration"


# --- 4: the forced-return family ------------------------------------------------

def _random_renewal_generator(d, rng):
    start = rng.randrange(1, 9)
    table = list(range(start, 0, -1))
    hops = rng.randrange(0, 3)
    for _ in range(hops):
        w = rng.randrange(1, 9)
        table.extend(range(w, 0, -1))
    return make_generator(d, "table_then_rule", table=table,
                          tail={"kind": "vertical", "vertex": 1})


def criterion_4_renewal_family():
    from .probes import classify_irreducibility_type, compact_cylinder_check

    d = make_diagram("renewal_shift")
    for i in range(1, 16):
        for j in range(1, 16):
            verdict = irreducible_probe(d, i, j, 0, 24)
            _check(verdict.is_yes, f"probe {i}->{j} gave {verdict.value}")
            _check(verdict.detail["level"] <= i + 1,
                   f"witness level {verdict.detail['level']} > {i + 1}")
    m = minimality_certificate(d)
    _check(m.is_yes, f"minimality gave {m.value}")
    _check(m.witness["distinguished_vertex"] == 1, "wrong distinguished vertex")
    for w, b in m.witness["forced_bounds"].items():
        _check(b == w - 1, f"forced bound b({w}) = {b} != {w - 1}")
    rng = random.Random(SEED + 4)
    prefixes = []
    for _ in range(100):
        x = _random_renewal_generator(d, rng)
        depth = rng.randrange(0, 5)
        end = rng.randrange(1, 9)
        cands = cylinders_ending_in(d, depth, (end, end))
        c = rng.choice(cands)
        prefixes.append(c)
        verdict = orbit_visits_cylinder(d, x, c)
        _check(verdict.is_yes, f"orbit miss: {x.describe()} vs {c.describe()}")
    cls = classify_irreducibility_type(d)
    _check(cls.is_completely, f"classified {cls.kind}")
    for c in prefixes[:20] + [cylinder_at(d, v) for v in range(1, 9)]:
        _check(compact_cylinder_check(d, c).is_no, "compact cylinder found")
    return ("15x15 reachability Yes with witness levels <= i+1; forced-return "
            "minimality with b(w) = w-1; 100 random orbit visits; completely "
            "irreducible; no compact cylinders")


# --- 5: period-2 bands ------------------------------------------------------------

def criterion_5_parity_bands():
    from .probes import connected_probe

    p1 = make_diagram("parity_1")
    p2 = make_diagram("parity_2")
    for i in range(-5, 6):
        g, lengths = period_of_index(p1, i, 8)
        _check(g == 2, f"period at {i} is {g} (returns {lengths})")
    inv1 = {(i.kind, i.params) for i in invariant_certificate(p1)}
    _check(("residue_class", (2, 1)) in inv1,
           f"missing residue invariant for the offset-1 band: {inv1}")
    inv2 = {(i.kind, i.params) for i in invariant_certificate(p2)}
    _check(("residue_class", (2, 0)) in inv2,
           f"missing residue invariant for the offset-2 band: {inv2}")
    verdict = connected_probe(p1, 4)
    _check(verdict.is_no, f"connectedness gave {verdict.value}")
    _check(verdict.certificate.kind == "clopen_partition",
           "expected a clopen-partition certificate")
    return ("period 2 at |i| <= 5; residue invariants (2,1) and (2,0) found; "
            "offset-1 band disconnected via a clopen 2-coloring")


# --- 6: the lower-triangular all-ones diagram -------------------------------------

def criterion_6_allones_triangular():
    d = make_diagram("b_infinity")
    verdict = irreducible_probe(d, 2, 1, 0, 24)
    _check(verdict.is_no and verdict.certificate.kind == "triangular_support",
           f"2->1 gave {verdict.value}")
    t = transitivity_probe(d, climbing(d, 1), 3, (1, 8))
    _check(t.is_yes, f"climbing transitivity gave {t.value}")
    v = orbit_visits_cylinder(d, vertical_from(d, 2), cylinder_at(d, 5))
    _check(v.is_no, f"vertical orbit vs cylinder 5 gave {v.value}")
    return ("2->1 certified unreachable; climbing orbit dense at depth 3 on "
            "[1,8]; bounded vertical orbit provably misses cylinder 5")


# --- 7: odometer bands --------------------------------------------------------------

def criterion_7_odometers():
    o1 = make_diagram("odometer_one_sided")
    o2 = make_diagram("odometer_two_sided")
    for i in (1, 2, 5):
        x = vertical_from(o1, i)
        _check(all(x.vertex_at(m) == i for m in range(50)),
               "vertical trace not constant")
    invs = invariant_certificate(o1)
    _check(any(i.kind == "triangular_support" and i.params == ("upper", 0)
               and i.is_global for i in invs),
           f"no reducibility certificate: {[(i.kind, i.params) for i in invs]}")
    t = transitivity_probe(o2, alternating_from(o2, 0), 3, (-6, 6))
    _check(t.is_yes, f"alternating transitivity gave {t.value}")
    for i in (-2, 0, 3):
        v = orbit_visits_cylinder(o2, vertical_from(o2, i), cylinder_at(o2, i - 1))
        _check(v.is_no, f"vertical {i} vs cylinder {i - 1} gave {v.value}")
        v = orbit_visits_cylinder(o2, leftmost_slant_from(o2, i),
                                  cylinder_at(o2, i + 1))
        _check(v.is_no, f"slant {i} vs cylinder {i + 1} gave {v.value}")
    return ("vertical traces constant, one-sided reducibility certified; "
            "alternating orbit dense at depth 3 on [-6,6]; vertical misses "
            "i-1, slant misses i+1")


# --- 8: self-loop star family ---------------------------------------------------------

def criterion_8_star_orbits():
    from .probes import connected_probe

    d = make_diagram("star_odometer")
    for i in range(2, 11):
        x = vertical_from(d, i)
        for j in range(2, 11):
            verdict = orbit_visits_cylinder(d, x, cylinder_at(d, j))
            _check(verdict.is_yes == (j in (1, i)),
                   f"x^{i} vs cylinder {j}: {verdict.value}")
        verdict = orbit_visits_cylinder(d, x, cylinder_at(d, 1))
        _check(verdict.is_yes, f"x^{i} vs cylinder 1: {verdict.value}")
    _check(connected_probe(d, 4).is_yes, "star diagram not connected")
    for g in (vertical_from(d, 1), vertical_from(d, 2), vertical_from(d, 5),
              climbing(d, 1)):
        t = transitivity_probe(d, g, 2, (1, 5))
        _check(not t.is_yes, f"{g.describe()} unexpectedly dense")
    return ("orbit of x^i meets cylinder j exactly for j in {1, i} "
            "(2 <= i, j <= 10); connected; no tested orbit is dense")


# --- 9: block re-enumeration -----------------------------------------------------------

def criterion_9_block_reenumeration():
    td = make_diagram("tridiag_B")
    gens = [vertical_from(td, 0), vertical_from(td, 1), alternating_from(td, 0)]
    g, d2, log = toeplitz_reenumeration(td, gens, horizon=2000)
    lab0 = log.labels_at_levels(0)
    _check([lab0.get(l) for l in (0, 2, 3, 6, 7, 8)] == [0, 0, 1, 0, 1, 2],
           "stage-0 forced labels wrong")
    lab1 = log.labels_at_levels(1)
    _check((lab1.get(1), lab1.get(9), lab1.get(10)) == (0, 0, 1),
           f"stage-1 forced labels wrong: {sorted(lab1.items())[:4]}")
    lab2 = log.labels_at_levels(2)
    _check(lab2.get(4) == 0, f"stage-2 first label wrong: {sorted(lab2.items())[:3]}")
    levels = [r.level for r in log.records]
    _check(len(levels) == len(set(levels)), "forced levels collide")
    for i, x in enumerate(gens):
        counts = collections.Counter(
            g.forward(l, x.vertex_at(l)) for l in range(2001))
        for j in range(11):
            _check(counts[j] >= 3,
                   f"generator {i}: label {j} hit {counts[j]} < 3 times")
    for level in (0, 1, 4, 9, 10, 17, 25, 36, 50):
        for lab in range(51):
            _check(g.forward(level, g.inverse(level, lab)) == lab,
                   f"bijectivity fails at level {level}, label {lab}")
    _check(verify_permutation_identity(td, d2, g, 4, radius=10),
           "permutation identity failed for the re-enumeration")
    return ("forced log reproduces the 0*01**012*** block pattern and the "
            "stage-1/2 values (levels 1,9,10 -> 0,0,1; level 4 -> 0); every "
            "label <= 10 recurs >= 3 times; bijective on [0,50]; identity verified")


# --- 10: cross-cutting invariants ---------------------------------------------------------

def _bijection_pairs():
    td = make_diagram("tridiag_B")
    p1 = make_diagram("parity_1")
    o2 = make_diagram("odometer_two_sided")
    rs = make_diagram("renewal_shift")
    return [(td, interleave()), (td, level_shift(1)), (td, cone_shift(1)),
            (p1, level_shift(2)), (o2, cone_shift(1)), (rs, identity(rs.indexing)),
            (p1, interleave())]


def criterion_10_cross_cutting():
    from .probes import connected_probe

    # relabel round trip
    for d, g in _bijection_pairs():
        d2 = relabel(relabel(d, g), g.inverted())
        for n in range(7):
            lo, hi = d.indexing.default_interval(12)
            _check(d2.incidence_window(n, (lo, hi), (lo, hi))
                   == d.incidence_window(n, (lo, hi), (lo, hi)),
                   f"round trip broke {d.name} under {g.kind} at level {n}")
    # path-count preservation
    rng = random.Random(SEED + 10)
    pairs = _bijection_pairs()
    for _ in range(100):
        d, g = pairs[rng.randrange(len(pairs))]
        lo, hi = d.indexing.default_interval(6)
        n = rng.randrange(0, 3)
        m = n + rng.randrange(0, 5)
        w = rng.randrange(lo, hi + 1)
        v = rng.randrange(lo, hi + 1)
        d2 = relabel(d, g)
        _check(count_paths(d, w, n, v, m)
               == count_paths(d2, g.forward(n, w), n, g.forward(m, v), m),
               f"count not preserved: {d.name} {g.kind} {w}@{n}->{v}@{m}")
    # equal-row-sum preservation, row by row
    for d, g in pairs:
        d2 = relabel(d, g)
        for n in range(3):
            lo, hi = d.indexing.default_interval(8)
            for v in range(lo, hi + 1):
                s1 = sum(mult for _, mult in d.in_edges(n, v))
                s2 = sum(mult for _, mult in d2.in_edges(n, g.forward(n + 1, v)))
                _check(s1 == s2, f"row sum moved: {d.name} {g.kind} {v}@{n}")
    # cone containment for every width-bounded catalog entry
    for name in catalog_names():
        if name == "banded":
            continue
        d = make_diagram(name)
        if d.t_rule() is None:
            continue
        lo, hi = d.indexing.default_interval(6)
        for v in range(lo, hi + 1):
            for n in range(2):
                for m in range(n + 1, n + 7):
                    (ilo, ihi), reach = cone_bound(d, v, n, m)
                    _check(all(ilo <= u <= ihi for u in reach),
                           f"cone violated: {name} {v}@{n}->{m}")
                    if name == "tridiag_B":
                        _check(reach == list(range(ilo, ihi + 1)),
                               "band cone not full")
    # transitive evidence implies connected
    dense_found = []
    for name in catalog_names():
        if name == "banded":
            continue
        d = make_diagram(name)
        for g in _transitivity_battery(d):
            window = d.indexing.default_interval(3)
            if transitivity_probe(d, g, 2, window).is_yes:
                dense_found.append(name)
                _check(connected_probe(d, 3).is_yes,
                       f"{name}: dense orbit evidence but not connected")
                break
    _check(len(dense_found) >= 4, f"too few transitive entries: {dense_found}")
    return ("round trips exact; 100 path counts preserved under relabeling; "
            "row sums permuted exactly; cone containment holds (equality for "
            "the full band); every entry with dense-orbit evidence "
            f"({len(dense_found)}) is connected")


def _transitivity_battery(d):
    gens = []
    lo, hi = d.indexing.default_interval(3)
    for v in sorted(range(lo, hi + 1), key=lambda t: (abs(t), t)):
        if d.indexing.contains(v) and d.entry(0, v, v) > 0:
            gens.append(vertical_from(d, v))
            break
    base = d.indexing.base if d.indexing.mode == "one_sided" else 0
    gens.append(climbing(d, base))
    if d.indexing.mode == "two_sided":
        gens.append(alternating_from(d, 0))
    valid = []
    for g in gens:
        try:
            g.validate_to(8)
            valid.append(g)
        except GbdError:
            continue
    return valid


CRITERIA = [
    ("1_fold_isomorphism", criterion_1_fold_isomorphism),
    ("2_shift_triangularity", criterion_2_shift_triangularity),
    ("3_oracle_equivalence", criterion_3_oracle_equivalence),
    ("4_renewal_family", criterion_4_renewal_family),
    ("5_parity_bands", criterion_5_parity_bands),
    ("6_allones_triangular", criterion_6_allones_triangular),
    ("7_odometers", criterion_7_odometers),
    ("8_star_orbits", criterion_8_star_orbits),
    ("9_block_reenumeration", criterion_9_block_reenumeration),
    ("10_cross_cutting", criterion_10_cross_cutting),
]

QUICK = [name for name, _ in CRITERIA[:5]]


def run_criterion(name: str) -> CriterionResult:
    fn = dict(CRITERIA)[name]
    start = time.perf_counter()
    try:
        detail = fn()
        return CriterionResult(name, True, detail,
                               time.perf_counter() - start)
    except AssertionError as exc:
        return CriterionResult(name, False, str(exc),
                               time.perf_counter() - start)


def run_suite(names=None) -> list:
    names = list(names) if names is not None else [n for n, _ in CRITERIA]
    return [run_criterion(n) for n in names]
