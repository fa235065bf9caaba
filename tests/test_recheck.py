"""Each recheck re-derives a probe's evidence from the rows.

A verdict's recheck takes the verdict and the probe's own arguments,
and reads the evidence from the verdict's witness, certificate and
detail, so the library gives the same line the CLI prints, and a
doctored verdict reads False or raises.
"""

import copy
from dataclasses import replace

import pytest
import yaml

from gbdkit import (
    DiagramHandle,
    GbdError,
    InvalidEdgeError,
    LevelWindow,
    PathGenerator,
    connected_probe,
    cylinder_at,
    dense_orbit_reenumeration,
    explicit_spec_of_window,
    identity,
    interleave,
    irreducible_probe,
    iso_search,
    leftmost_slant_from,
    level_shift,
    load_spec,
    make_diagram,
    minimality_certificate,
    orbit_visits_cylinder,
    period_of_index,
    relabel,
    toeplitz_reenumeration,
    transitivity_probe,
    two_sided,
    verify_permutation_identity,
    vertical_from,
)
from gbdkit.cli import main
from gbdkit.bijections import VertexBijectionSeq, recheck_relabel
from gbdkit.dynamics import recheck_minimal, recheck_transitive, recheck_visit
from gbdkit.iso import recheck_identity, recheck_search
from gbdkit.probes import recheck_connected, recheck_irreducible, recheck_period
from gbdkit.reenumerate import recheck_dense, recheck_toeplitz

from conftest import NAMES


def _cli_recheck(capsys, argv):
    main(argv)
    return yaml.safe_load(capsys.readouterr().out)["result"]["recheck"]


def _library_and_cli_calls(d, spec):
    """(name, probe, recheck, asked, CLI argv) of the same question, where
    asked() builds the probe's arguments after d; a CLI default is spelled
    out where the library's differs."""
    lo, hi = d.indexing.default_interval(1)
    calls = [("irreducible", irreducible_probe, recheck_irreducible,
              lambda i=i, j=j: (i, j),
              ["probe", "irreducible", "--spec", spec, f"--src={i}", f"--dst={j}"])
             for i in range(lo, hi + 1) for j in range(lo, hi + 1)]
    calls += [
        ("connected", connected_probe, recheck_connected,
         lambda: (4, LevelWindow.uniform(d.indexing, 4, 8)),
         ["probe", "connected", "--spec", spec]),
        ("minimal", minimality_certificate, recheck_minimal, lambda: (),
         ["orbit", "minimal", "--spec", spec])]
    for g in range(lo, hi + 1):
        gen = f"--generator={{kind: vertical, vertex: {g}}}"
        calls += [("visit", orbit_visits_cylinder, recheck_visit,
                   lambda g=g, c=c: (vertical_from(d, g), cylinder_at(d, c)),
                   ["orbit", "visit", "--spec", spec, gen, f"--cylinder={{vertex: {c}}}"])
                  for c in range(lo, hi + 1)]
        calls.append(("transitive", transitivity_probe, recheck_transitive,
                      lambda g=g: (vertical_from(d, g), 3,
                                   d.indexing.default_interval(6)),
                      ["orbit", "transitive", "--spec", spec, gen]))
    return calls


def test_library_recheck_is_the_line_the_cli_prints(tmp_path, capsys):
    answered = set()
    for name in NAMES:
        spec = tmp_path / f"{name}.yaml"
        spec.write_text(f"family: {name}\n")
        d = make_diagram(name)
        for probe_name, probe, check, asked, argv in _library_and_cli_calls(d, str(spec)):
            try:
                args = asked()
                v = probe(d, *args)
            except GbdError:  # a generator that is no path: the CLI exits 2
                assert main(argv) == 2
                capsys.readouterr()
                continue
            assert check(d, v, *args) == _cli_recheck(capsys, argv), (name, argv)
            answered.add((probe_name, v.value))
    # every probe is rechecked on a Yes and on a No
    assert answered >= {(p, value) for value in ("yes", "no")
                        for p in ("irreducible", "connected", "minimal", "visit",
                                  "transitive")}


def _certificate(v, **changes):
    return replace(v, certificate=replace(v.certificate, **changes))


@pytest.fixture(scope="module")
def d():
    return {name: make_diagram(name) for name in
            ("b_infinity", "renewal_shift", "parity_1", "tridiag_B",
             "odometer_two_sided", "star_odometer")}


def test_irreducible(d):
    bi, rs = d["b_infinity"], d["renewal_shift"]
    no = irreducible_probe(bi, 2, 1)
    assert recheck_irreducible(bi, no, 2, 1) == "certificate re-verified: True"
    for changes in ({"params": ("lower", -1)}, {"global_via": ("BandedFlag",)}):
        assert recheck_irreducible(bi, _certificate(no, **changes), 2, 1) == \
            "certificate re-verified: False"
    yes = irreducible_probe(rs, 3, 7)
    assert recheck_irreducible(rs, yes, 3, 7) == "witness path re-validated edge-by-edge"
    # a real path that answers 3 -> 8, or ends at another level
    other = irreducible_probe(rs, 3, 8)
    for doctored in (replace(yes, witness=other.witness),
                     replace(yes, detail={"level": yes.detail["level"] + 1})):
        with pytest.raises(InvalidEdgeError, match="path runs from"):
            recheck_irreducible(rs, doctored, 3, 7)
    # the same verdict, asked of another pair or from another level
    for asked in ((3, 8), (3, 7, 1)):
        with pytest.raises(InvalidEdgeError, match="path runs from"):
            recheck_irreducible(rs, yes, *asked)
    unknown = irreducible_probe(rs, 3, 9, 0, 1)
    assert unknown.is_unknown
    assert recheck_irreducible(rs, unknown, 3, 9, 0, 1) == "unknown depth exhausted"


def test_connected(d):
    rs, p1 = d["renewal_shift"], d["parity_1"]
    yes = connected_probe(rs)
    line = "window re-walked breadth first from one vertex: {}"
    assert recheck_connected(rs, yes) == line.format(True)
    vertices = yes.witness["vertices"]
    assert recheck_connected(rs, replace(yes, witness={**yes.witness,
                                                       "vertices": vertices + 1})) \
        == line.format(False)
    # the same verdict, asked of a smaller window
    assert recheck_connected(rs, yes, 3) == line.format(False)
    no = connected_probe(p1)
    assert recheck_connected(p1, no) == "certificate re-verified: True"
    classes = dict(no.detail["classes"])
    classes["0"] += 1
    for doctored in (_certificate(no, params=(3, 1)), replace(no, detail={"classes": classes})):
        assert recheck_connected(p1, doctored) == "certificate re-verified: False"
    # the window is disconnected, so a Yes cannot walk all of it
    nodes = sum(no.detail["classes"].values())
    turned = replace(no, value="yes", witness={"vertices": nodes, "levels": 4})
    assert recheck_connected(p1, turned) == line.format(False)
    # vertices 3 and up have no declared row, so the window falls apart
    # into components that no global coloring separates
    holes = load_spec({"indexing": {"mode": "one_sided", "base": 0},
                       "levels": [{0: {0: 1}, 1: {1: 1, 2: 1}, 2: {2: 1}}],
                       "extension": "repeat_last"})
    unknown = connected_probe(holes)
    assert unknown.is_unknown
    assert recheck_connected(holes, unknown) == "components re-counted breadth first: True"
    for off in (-1, 1):
        doctored = replace(unknown, detail={
            **unknown.detail, "components": unknown.detail["components"] + off})
        assert recheck_connected(holes, doctored) == \
            "components re-counted breadth first: False"


def test_orbit_visit(d):
    so, bi = d["star_odometer"], d["b_infinity"]
    x, c = vertical_from(so, 5), cylinder_at(so, 1)
    yes = orbit_visits_cylinder(so, x, c)
    assert recheck_visit(so, yes, x, c) == \
        "prefix + connecting path re-validated as one chain"
    # a connecting path to the orbit of vertex 2, not of vertex 5, and the
    # same verdict asked of the orbit of vertex 2
    other = orbit_visits_cylinder(so, vertical_from(so, 2), c)
    with pytest.raises(InvalidEdgeError, match="path runs from"):
        recheck_visit(so, replace(yes, witness=other.witness), x, c)
    with pytest.raises(InvalidEdgeError, match="path runs from"):
        recheck_visit(so, yes, vertical_from(so, 2), c)
    x, c = vertical_from(bi, 2), cylinder_at(bi, 5)
    no = orbit_visits_cylinder(bi, x, c)
    assert recheck_visit(bi, no, x, c) == "certificate re-verified: True"
    for doctored in (_certificate(no, params=("lower", -1)),
                     replace(no, detail={**no.detail, "separated_from_level": 2})):
        assert recheck_visit(bi, doctored, x, c) == "certificate re-verified: False"


def test_orbit_transitive(d):
    o2 = d["odometer_two_sided"]
    # the slant falls one vertex a level: it misses the cylinder ending at -3@3
    x = leftmost_slant_from(o2, -1)
    no = transitivity_probe(o2, x, 3, (-3, -3))
    line = "witness cylinder re-validated; certificate re-verified: {}"
    assert recheck_transitive(o2, no, x, 3, (-3, -3)) == line.format(True)
    for changes in ({"params": ("lower", -2)}, {"global_via": ("BandedFlag",)}):
        assert recheck_transitive(o2, _certificate(no, **changes), x, 3, (-3, -3)) \
            == line.format(False)


def test_orbit_minimal(d):
    rs, td = d["renewal_shift"], d["tridiag_B"]
    yes = minimality_certificate(rs)
    assert recheck_minimal(rs, yes) == "forced bounds re-walked: True"
    bounds = yes.witness["forced_bounds"]
    loosened = {w: b + 1 for w, b in bounds.items()}
    shorter = {w: b for w, b in bounds.items() if w != max(bounds)}
    for doctored in (loosened, shorter):
        assert recheck_minimal(rs, replace(yes, witness={**yes.witness,
                                                         "forced_bounds": doctored})) \
            == "forced bounds re-walked: False"
    # the same verdict, asked of a wider window
    lo, hi = min(bounds), max(bounds)
    assert recheck_minimal(rs, yes, None, (lo, hi + 1)) == \
        "forced bounds re-walked: False"
    no = minimality_certificate(td)
    assert recheck_minimal(td, no) == "certificate re-verified: True"
    assert recheck_minimal(td, _certificate(no, params=(0,))) == \
        "certificate re-verified: False"


def test_probe_period(d):
    p1 = d["parity_1"]
    g, lengths = period_of_index(p1, 0)
    assert (g, lengths) == (2, [2, 4, 6, 8])
    line = "return lengths re-swept level by level: {}"
    assert recheck_period(p1, 0, 8, g, lengths) == line.format(True)
    # each of these lists is divisible by its own gcd, yet the period is 2
    for doctored in ((4, [4, 8]), (2, [2, 4]), (None, [])):
        assert recheck_period(p1, 0, 8, *doctored) == line.format(False)


def test_iso_relabel(d):
    td = d["tridiag_B"]
    line = "exported rows re-derived from the bijection: {}"
    for g in (level_shift(1), interleave()):
        doc = explicit_spec_of_window(relabel(td, g), 2, (-3, 3))
        assert recheck_relabel(td, g, 2, (-3, 3), doc) == line.format(True)
    # rows missing from a one-sided spec stay missing from the export
    rows = load_spec({"indexing": {"mode": "one_sided", "base": 0},
                      "levels": [{0: {0: 1}, 1: {1: 1, 2: 1}, 2: {2: 1}}],
                      "extension": "repeat_last"})
    g = dense_orbit_reenumeration(rows, vertical_from(rows, 1))
    doc = explicit_spec_of_window(relabel(rows, g), 2, (0, 5))
    assert recheck_relabel(rows, g, 2, (0, 5), doc) == line.format(True)
    g = level_shift(1)
    doc = explicit_spec_of_window(relabel(td, g), 2, (-3, 3))
    changed, dropped = copy.deepcopy(doc), copy.deepcopy(doc)
    changed["levels"][1][0][0] += 1
    del dropped["levels"][2][1][0]
    for doctored in (changed, dropped):
        assert recheck_relabel(td, g, 2, (-3, 3), doctored) == line.format(False)
    # the export of another bijection, and too few levels
    assert recheck_relabel(td, level_shift(2), 2, (-3, 3), doc) == line.format(False)
    assert recheck_relabel(td, g, 3, (-3, 3), doc) == line.format(False)


def test_iso_check(d):
    td, bp = d["tridiag_B"], make_diagram("interleaved_Bprime")
    line = "entries and row sums re-read through the bijection: {}"
    for g in (interleave(), identity(td.indexing)):
        holds = verify_permutation_identity(td, bp, g, 4)
        assert holds == (g.kind == "interleave")
        assert recheck_identity(td, bp, g, 4, holds) == line.format(True)
        assert recheck_identity(td, bp, g, 4, not holds) == line.format(False)
    # every edge of tridiag_B is in this row, so only its sum shows the extra one
    extra = DiagramHandle(two_sided(), lambda n, v: [(v - 1, 1), (v, 2), (v + 1, 1)]
                          + ([(v + 5, 1)] if v == 3 else []), name="extra edge")
    g = identity(td.indexing)
    assert not verify_permutation_identity(td, extra, g, 4)
    assert recheck_identity(td, extra, g, 4, False) == line.format(True)
    assert recheck_identity(td, extra, g, 4, True) == line.format(False)


def test_rechecks_read_past_a_wrong_push(monkeypatch):
    """The relabel and identity rechecks read per vertex, through forward,
    inverse and entry, so a `push` that alters a multiplicity reads False
    in both, while the identity check, which pushes on both sides, still
    holds."""
    push = VertexBijectionSeq.push

    def altered(self, n, pairs):
        (w, m), *rest = push(self, n, pairs)
        return ((w, m + 1), *rest)

    monkeypatch.setattr(VertexBijectionSeq, "push", altered)
    # no flags, so nothing rejects the altered rows at build time
    d = DiagramHandle(two_sided(), lambda n, v: [(v - 1, 1), (v, 2), (v + 1, 1)],
                      stationary_from=0, name="plain tridiagonal")
    g = level_shift(1)
    d2 = relabel(d, g)
    # level 1's vertex 1 is level 0's vertex 0, with source -1's edge doubled
    assert d2.in_edges(0, 1) == ((-1, 2), (0, 2), (1, 1))
    assert verify_permutation_identity(d, d2, g, 2)
    assert recheck_identity(d, d2, g, 2, True) \
        == "entries and row sums re-read through the bijection: False"
    doc = explicit_spec_of_window(d2, 2, (-3, 3))
    assert recheck_relabel(d, g, 2, (-3, 3), doc) \
        == "exported rows re-derived from the bijection: False"


def test_iso_search(d):
    td, bp = d["tridiag_B"], make_diagram("interleaved_Bprime")
    res = iso_search(td, bp, 3, LevelWindow.uniform(td.indexing, 3, 8),
                     LevelWindow.uniform(bp.indexing, 3, 8))
    assert recheck_search(td, bp, res) == "witness verified: True"
    # two images swapped at level 1: still a bijection, no longer carrying rows
    table = res.tables[1]
    table[1], table[2] = table[2], table[1]
    assert recheck_search(td, bp, res) == "witness verified: False"
    rs, bi = make_diagram("renewal_shift"), d["b_infinity"]
    window = LevelWindow({n: (1, 9) for n in range(3)})
    bounded = iso_search(rs, bi, 2, window, window)
    assert recheck_search(rs, bi, bounded) == \
        "bounded search only; not a non-isomorphism proof"


def test_construct_dense(d):
    td = d["tridiag_B"]
    x = vertical_from(td, 0)
    g = dense_orbit_reenumeration(td, x)
    labels = [g.forward(n, x.vertex_at(n)) for n in range(30)]
    line = "labels follow the block-counting sequence: {}"
    assert recheck_dense(x, g, labels) == line.format(True)
    # a label off the sequence, and the trace of another generator
    off = labels[:5] + [labels[5] + 1] + labels[6:]
    assert recheck_dense(x, g, off) == line.format(False)
    assert recheck_dense(vertical_from(td, 1), g, labels) == line.format(False)


def test_construct_toeplitz(d):
    td = d["tridiag_B"]
    gens = [vertical_from(td, 0), vertical_from(td, 1)]
    g, _, log = toeplitz_reenumeration(td, gens, 400)
    line = "forced labels re-read from the generator traces: {}"
    assert recheck_toeplitz(gens, g, log) == line.format(True)
    # a record past the 200 the CLI prints, with a doctored label, vertex
    # or generator
    r = log.records[250]
    for doctored in (replace(r, label=r.label + 1), replace(r, vertex=r.vertex + 1),
                     replace(r, generator=1 - r.generator)):
        log.records[250] = doctored
        assert recheck_toeplitz(gens, g, log) == line.format(False)


def test_a_minimality_no_is_rechecked_on_its_printed_generator(d):
    td = d["tridiag_B"]
    no = minimality_certificate(td)
    # the slant climbs away from the missed cylinder; the vertical orbit of
    # its start visits it, since -1 feeds 0
    missed = no.detail["witness"]
    assert missed == {"generator": {"kind": "rightmost_slant",
                                    "params": {"vertex": 0}},
                      "missed_cylinder_vertex": -1}
    assert orbit_visits_cylinder(td, PathGenerator(td, "vertical", {"vertex": 0}),
                                 cylinder_at(td, -1)).is_yes
    doctored = replace(no, detail={"witness": {
        **missed, "generator": {"kind": "vertical", "params": {"vertex": 0}}}})
    assert recheck_minimal(td, doctored) == "certificate re-verified: False"
