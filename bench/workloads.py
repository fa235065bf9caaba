"""The four benchmark workloads, built from a seed.

The seed picks vertices, generators and argument values, never sizes.
On the stationary bands a seeded vertex only translates a query, which
changes no cost, so those tiers cost the same at every seed.

Every query is checked by an oracle from oracles.py, which restates the
families from their definitions instead of calling the code under test.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import yaml

import oracles as O

WARM_CLI_ROUNDS = 40   # 120 calls of three commands
COLD_CLI_ROUNDS = 6    # 42 calls of seven commands: ten samples beyond the p75

SPEC_FAMILIES = ("tridiag_B", "interleaved_Bprime", "shifted_Bsecond",
                 "renewal_shift", "star_odometer", "odometer_two_sided",
                 "parity_1")


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right


@dataclass
class CliCall:
    label: str
    argv: list
    check: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> error


@dataclass
class Workload:
    tiers: list       # [(tier, [Query, ...]), ...] in pass order; last is "deep"
    cli_calls: list   # at least 40, so the p75 has ten samples beyond it
    cli_cold: bool = False  # fresh processes; otherwise calls into gbdkit.cli.main
    warm: Optional[Callable[[], None]] = None  # untimed; default: one whole pass


def write_specs(spec_dir: Path) -> dict:
    spec_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for family in SPEC_FAMILIES:
        path = spec_dir / f"{family}.yaml"
        path.write_text(f"family: {family}\n", encoding="utf-8")
        paths[family] = str(path)
    return paths


def warm_call(cli, argv) -> tuple:
    """One command through gbdkit.cli.main in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# --- answer checks -------------------------------------------------------------

def verdict_is(value, certificate=None):
    def check(v):
        if v.value != value:
            return f"verdict {v.value}, expected {value}"
        if certificate is not None and v.certificate.kind != certificate:
            return f"certificate {v.certificate.kind}, expected {certificate}"
        return None
    return check


def never_yes(v):
    """No or Unknown are both sound for an orbit that misses the cylinder."""
    return "verdict yes for an orbit that misses the cylinder" if v.is_yes else None


def equals(expected):
    return lambda got: None if got == expected else f"got {got}, expected {expected}"


def transitive(expected_cylinders):
    def check(v):
        if not v.is_yes:
            return f"verdict {v.value}, expected yes"
        got = v.witness["cylinders_checked"]
        if got != expected_cylinders:
            return f"{got} cylinders checked, expected {expected_cylinders}"
        return None
    return check


def orbit_witness(family, start, start_level, trace):
    """A Yes visit's connecting path must run from the cylinder's end to
    the generator's trace vertex at the witness level."""
    def check(v):
        if not v.is_yes:
            return f"verdict {v.value}, expected yes"
        m = v.witness["level"]
        return O.path_error(family, v.witness["connecting_path"].edges,
                            start, start_level, trace(m), m)
    return check


def payload_edges(path: dict) -> list:
    vs, level = path["vertices"], path["start_level"]
    return [(level + k, a, b, c)
            for k, (a, b, c) in enumerate(zip(vs, vs[1:], path["copies"]))]


def report_check(code, text, want_code, want_verdict, extra=None):
    result = yaml.safe_load(text)["result"]
    if code != want_code or result.get("verdict") != want_verdict:
        return f"exit {code}, verdict {result.get('verdict')}"
    return extra(result) if extra else None


# --- CLI commands: each draws its arguments from the seed ----------------------

def cmd_irreducible_yes(rng, specs):
    i, j = rng.randrange(1, 16), rng.randrange(1, 16)

    def extra(r):
        level = r["detail"]["level"]
        if level > i + 1:
            return f"witness level {level} > {i + 1}"
        return O.path_error("renewal_shift", payload_edges(r["witness"]),
                            i, 0, j, level)

    return CliCall(f"probe irreducible renewal_shift {i}->{j}",
                   ["probe", "irreducible", "--spec", specs["renewal_shift"],
                    f"--src={i}", f"--dst={j}"],
                   lambda code, text: report_check(code, text, 0, "yes", extra))


def cmd_irreducible_no(rng, specs):
    i, k = rng.randrange(-500, 501), rng.randrange(1, 4)

    def extra(r):
        kind = r["certificate"]["kind"]
        return None if kind == "triangular_support" else f"certificate {kind}"

    return CliCall(f"probe irreducible shifted_Bsecond {i}->{i - k}",
                   ["probe", "irreducible", "--spec", specs["shifted_Bsecond"],
                    f"--src={i}", f"--dst={i - k}", "--depth=8"],
                   lambda code, text: report_check(code, text, 1, "no", extra))


def cmd_period(rng, specs):
    i = rng.randrange(-100, 101)

    def check(code, text):
        period = yaml.safe_load(text)["result"]["period"]
        return None if (code, period) == (0, 2) else f"exit {code}, period {period}"

    return CliCall(f"probe period parity_1 at {i}",
                   ["probe", "period", "--spec", specs["parity_1"], f"--index={i}"],
                   check)


def cmd_orbit_visit(rng, specs):
    """Star orbits: x^i meets cylinder j exactly when j is 1 or i."""
    i, j = rng.randrange(2, 11), rng.randrange(1, 11)
    argv = ["orbit", "visit", "--spec", specs["star_odometer"],
            f"--generator={{kind: vertical, vertex: {i}}}",
            f"--cylinder={{vertex: {j}}}"]

    def extra(r):
        w = r["witness"]
        return O.path_error("star_odometer", payload_edges(w["connecting_path"]),
                            j, 0, i, w["level"])

    def check(code, text):
        if j in (1, i):
            return report_check(code, text, 0, "yes", extra)
        verdict = yaml.safe_load(text)["result"]["verdict"]
        if (code, verdict) in ((1, "no"), (3, "unknown")):
            return None
        return f"exit {code}, verdict {verdict}: x^{i} never meets cylinder {j}"

    return CliCall(f"orbit visit star x^{i} cylinder {j}", argv, check)


def cmd_orbit_visit_no(rng, specs):
    i = rng.randrange(-500, 501)
    return CliCall(f"orbit visit odometer_two_sided vertical {i} cylinder {i - 1}",
                   ["orbit", "visit", "--spec", specs["odometer_two_sided"],
                    f"--generator={{kind: vertical, vertex: {i}}}",
                    f"--cylinder={{vertex: {i - 1}}}", "--depth=8"],
                   lambda code, text: report_check(code, text, 1, "no"))


def cmd_orbit_minimal(rng, specs):
    def extra(r):
        w = r["witness"]
        bounds_ok = all(b == int(v) - 1 for v, b in w["forced_bounds"].items())
        if w["distinguished_vertex"] != 1 or not bounds_ok:
            return f"witness {w['distinguished_vertex']}, bounds ok {bounds_ok}"
        return None

    return CliCall("orbit minimal renewal_shift",
                   ["orbit", "minimal", "--spec", specs["renewal_shift"]],
                   lambda code, text: report_check(code, text, 0, "yes", extra))


def cmd_iso_check(rng, specs):
    def check(code, text):
        holds = yaml.safe_load(text)["result"]["identity_holds"]
        return None if (code, holds) == (0, True) else f"exit {code}, holds {holds}"

    return CliCall("iso check tridiag_B interleaved_Bprime",
                   ["iso", "check", "--spec", specs["tridiag_B"],
                    "--spec-b", specs["interleaved_Bprime"],
                    "--bijection=kind: interleave"], check)


def cmd_export_matrix(rng, specs):
    c = rng.randrange(-200, 201)
    win = (c - 8, c + 8)

    def check(code, text):
        got = yaml.safe_load(text)["result"]["matrix"]
        if code != 0 or got != O.matrix("tridiag_B", win):
            return f"exit {code}, matrix differs from the band on {win}"
        return None

    return CliCall(f"export matrix tridiag_B {win}",
                   ["export", "matrix", "--spec", specs["tridiag_B"],
                    f"--rows={win[0]}:{win[1]}", f"--cols={win[0]}:{win[1]}"],
                   check)


def cmd_construct_flatten(rng, specs):
    c = rng.randrange(-200, 201)
    win = (c - 4, c + 4)
    want = O.relabeled_matrix("tridiag_B", O.shift_maps(-1), 0, win)

    def check(code, text):
        r = yaml.safe_load(text)["result"]
        if code != 0 or r["certificate"]["kind"] != "triangular_support":
            return f"exit {code}, certificate {r['certificate']}"
        if r["flattened_window"] != want:
            return f"flattened window differs from cone_shift(1) on {win}"
        return None

    return CliCall(f"construct flatten tridiag_B {win}",
                   ["construct", "flatten", "--spec", specs["tridiag_B"],
                    f"--window={win[0]}:{win[1]}"], check)


def cli_batch(rng, specs, commands, rounds):
    return [cmd(rng, specs) for _ in range(rounds) for cmd in commands]


def spread(shallow, deeper):
    """Pass order with the shallow tier cut into slices, one before each
    deeper query, so that shallow samples come from every part of a pass
    and not from one moment of a machine whose speed swings."""
    slots = [(tier, q) for tier, queries in deeper for q in queries]
    size = -(-len(shallow) // len(slots))
    order = []
    for k, (tier, q) in enumerate(slots):
        order += [("shallow", shallow[k * size:(k + 1) * size]), (tier, [q])]
    return [(tier, queries) for tier, queries in order if queries]


# --- reach_deep ------------------------------------------------------------------

def reach_deep(G, cli, rng, specs) -> Workload:
    rs = G.make_diagram("renewal_shift")
    td = G.make_diagram("tridiag_B")
    sh = G.relabel(td, G.level_shift(1))

    def probe(d, i, j, depth):
        return lambda: G.irreducible_probe(d, i, j, 0, depth)

    def renewal_witness(i, j):
        def check(v):
            if not v.is_yes:
                return f"verdict {v.value}, expected yes"
            level = v.detail["level"]
            if level > i + 1:
                return f"witness level {level} > {i + 1}"
            v.witness.validate(rs)
            return O.path_error("renewal_shift", v.witness.edges, i, 0, j, level)
        return check

    shallow = [Query(f"irreducible renewal_shift {i}->{j}",
                     probe(rs, i, j, 24), renewal_witness(i, j))
               for i in range(1, 16) for j in range(1, 16)]
    deeper = []
    rows = [(rs, 1, 20), (sh, -20, 20)]  # the invariant search reads [-16, 16]
    for tier, depth, levels in (("d24_l100", 24, 100), ("d48_l200", 48, 200),
                                ("deep", 96, 400)):
        i, k = rng.randrange(-1000, 1001), rng.randrange(1, 4)
        w, delta = rng.randrange(-1000, 1001), rng.randrange(-4, 5)
        rows += [(sh, i - k - 2 * depth - 2, i - k + 2),
                 (td, w + delta - levels - 1, w + delta + levels + 1)]
        deeper.append((tier, [
            Query(f"irreducible shifted band {i}->{i - k} depth {depth}",
                  probe(sh, i, i - k, depth),
                  verdict_is("no", "triangular_support")),
            Query(f"count_paths tridiag_B {w}->{w + delta} over {levels}",
                  lambda w=w, delta=delta, levels=levels:
                      G.count_paths(td, w, 0, w + delta, levels),
                  equals(O.tridiag_count(levels, delta)))]))
    calls = cli_batch(rng, specs, (cmd_irreducible_yes, cmd_irreducible_no,
                                   cmd_period), WARM_CLI_ROUNDS)

    def warm():  # every row the batch reads, so that passes hit the row caches
        for d, lo, hi in rows:
            for v in range(lo, hi + 1):
                d.in_edges(0, v)

    return Workload(spread(shallow, deeper), calls, warm=warm)


# --- orbit_scan ------------------------------------------------------------------

def _renewal_table(rng) -> list:
    """A forced-return trace as in acceptance criterion 4: count down to 1,
    then up to two more count-downs."""
    table = list(range(rng.randrange(1, 9), 0, -1))
    for _ in range(rng.randrange(0, 3)):
        table.extend(range(rng.randrange(1, 9), 0, -1))
    return table


# The renewal generators, with the depth and end vertex of their cylinders,
# come from this fixed stream, as in acceptance criterion 4; the benchmark
# seed picks which cylinder path of that depth and end each one meets.
# Cost depends on the tables, and 100 of the 196 shallow queries are these
# cheap visits, so the tier's median sits among them: with seeded tables
# it moved by 17% from seed to seed.
RENEWAL_DRAWS = 4


def orbit_scan(G, cli, rng, specs) -> Workload:
    star = G.make_diagram("star_odometer")
    rs = G.make_diagram("renewal_shift")
    o2 = G.make_diagram("odometer_two_sided")
    bi = G.make_diagram("b_infinity")

    def visit(d, x, c):
        return lambda: G.orbit_visits_cylinder(d, x, c)

    shallow = []
    for i in range(2, 11):
        x = G.vertical_from(star, i)
        for j in range(1, 11):
            check = (orbit_witness("star_odometer", j, 0, lambda m, i=i: i)
                     if j in (1, i) else never_yes)
            shallow.append(Query(f"star x^{i} vs cylinder {j}",
                                 visit(star, x, G.cylinder_at(star, j)), check))
    draws = random.Random(RENEWAL_DRAWS)
    for _ in range(100):
        table = _renewal_table(draws)
        x = G.make_generator(rs, "table_then_rule", table=table,
                             tail={"kind": "vertical", "vertex": 1})
        depth, end = draws.randrange(0, 5), draws.randrange(1, 9)
        c = rng.choice(G.cylinders_ending_in(rs, depth, (end, end)))
        trace = (lambda m, t=table: t[m] if m < len(t) else t[-1])
        shallow.append(Query(f"renewal table {table} vs {c.describe()}",
                             visit(rs, x, c),
                             orbit_witness("renewal_shift", end, depth, trace)))
    s = rng.randrange(-500, 501)
    for i in (s - 2, s, s + 3):
        shallow.append(Query(f"odometer vertical {i} vs cylinder {i - 1}",
                             visit(o2, G.vertical_from(o2, i), G.cylinder_at(o2, i - 1)),
                             verdict_is("no")))
        shallow.append(Query(f"odometer slant {i} vs cylinder {i + 1}",
                             visit(o2, G.leftmost_slant_from(o2, i),
                                   G.cylinder_at(o2, i + 1)),
                             verdict_is("no")))

    def alternating(depth, centre=s):
        x = G.alternating_from(o2, centre)
        window = (centre - 6, centre + 6)
        return Query(f"transitivity alternating from {centre} depth {depth}",
                     lambda: G.transitivity_probe(o2, x, depth, window),
                     transitive(O.cylinders_full_band(13, 3, depth)))

    def minimal(d, value):
        return Query(f"minimality {d.name}",
                     lambda: G.minimality_certificate(d), value)

    def renewal_minimal(v):
        if not v.is_yes or v.witness["distinguished_vertex"] != 1:
            return f"verdict {v.value}, expected yes at vertex 1"
        bad = {w: b for w, b in v.witness["forced_bounds"].items() if b != w - 1}
        return f"forced bounds {bad} differ from w - 1" if bad else None

    climb = G.climbing(bi, 1)
    middle = [alternating(2), alternating(3),
              Query("transitivity climbing b_infinity depth 3",
                    lambda: G.transitivity_probe(bi, climb, 3, (1, 8)),
                    transitive(O.cylinders_b_infinity(8, 3))),
              minimal(rs, renewal_minimal), minimal(star, verdict_is("no")),
              minimal(o2, verdict_is("no"))]
    # three seeded centres: translation leaves the cost alone, and one
    # ~1 s query a pass gave too few samples for a steady median
    deep = [alternating(4, centre)
            for centre in (s, rng.randrange(-500, 501), rng.randrange(-500, 501))]
    tiers = spread(shallow, [("middle", middle), ("deep", deep)])
    calls = cli_batch(rng, specs, (cmd_orbit_visit, cmd_orbit_visit_no,
                                   cmd_orbit_minimal), WARM_CLI_ROUNDS)
    return Workload(tiers, calls)


# --- relabel_build ---------------------------------------------------------------

def relabel_build(G, cli, rng, specs) -> Workload:
    families = {"tridiag_B", "parity_1", "odometer_two_sided", "renewal_shift"}
    handles = {name: G.make_diagram(name) for name in families}
    # the seven (diagram, bijection) pairs of acceptance criterion 10
    pairs = (("tridiag_B", "interleave", G.interleave, O.fold_maps),
             ("tridiag_B", "level_shift(1)", lambda: G.level_shift(1), O.shift_maps(1)),
             ("tridiag_B", "cone_shift(1)", lambda: G.cone_shift(1), O.shift_maps(-1)),
             ("parity_1", "level_shift(2)", lambda: G.level_shift(2), O.shift_maps(2)),
             ("odometer_two_sided", "cone_shift(1)", lambda: G.cone_shift(1),
              O.shift_maps(-1)),
             ("renewal_shift", "identity",
              lambda: G.identity(handles["renewal_shift"].indexing), O.identity_maps),
             ("parity_1", "interleave", G.interleave, O.fold_maps))

    def window(indexing):
        if indexing.mode == "one_sided":
            return indexing.base, indexing.base + 24
        c = rng.randrange(-40, 41)
        return c - 12, c + 12

    def round_trip(family, gname, make_g, maps):
        d = handles[family]
        win0 = window(d.indexing)
        win1 = window(make_g().target_indexing)

        def run():
            g = make_g()
            d1 = G.relabel(d, g)
            seen = [d1.incidence_window(n, win1, win1) for n in range(4)]
            d2 = G.relabel(d1, g.inverted())
            return seen, [d2.incidence_window(n, win0, win0) for n in range(4)]

        def check(res):
            seen, back = res
            for n in range(4):
                if seen[n] != O.relabeled_matrix(family, maps, n, win1):
                    return f"relabeled window differs at level {n}"
                if back[n] != O.matrix(family, win0):
                    return f"round trip differs at level {n}"
            if (family, gname) == ("tridiag_B", "interleave") and \
                    seen[0] != O.matrix("interleaved_Bprime", win1):
                return "fold of tridiag_B differs from interleaved_Bprime"
            return None

        return Query(f"relabel {family} by {gname}, windows {win1} {win0}",
                     run, check)

    def catalog_check(name):
        def check(d):
            lo, hi = d.indexing.default_interval(2)
            for v in range(lo, hi + 1):
                if dict(d.in_edges(0, v)) != O.rows(name)(v):
                    return f"row {v} of {name} differs from its definition"
            return None
        return check

    shallow = [round_trip(*pair) for _ in range(13) for pair in pairs]
    for name in G.catalog_names():
        params = {"offsets": O.BANDED_OFFSETS} if name == "banded" else {}
        shallow.append(Query(f"make_diagram {name}",
                             lambda name=name, params=params:
                                 G.make_diagram(name, **params),
                             catalog_check(name)))
    rng.shuffle(shallow)

    td = handles["tridiag_B"]
    bp = G.make_diagram("interleaved_Bprime")
    bs = G.make_diagram("shifted_Bsecond")
    s = rng.randrange(-200, 201)
    traces = (lambda m: s, lambda m: s + 1, lambda m: s - m // 2)

    def toeplitz():
        gens = [G.vertical_from(td, s), G.vertical_from(td, s + 1),
                G.alternating_from(td, s)]
        g, d2, log = G.toeplitz_reenumeration(td, gens, 2000)
        return g, log, G.verify_permutation_identity(td, d2, g, 4, radius=10)

    def toeplitz_check(res):
        g, log, identity_holds = res
        if not identity_holds:
            return "permutation identity fails for the re-enumeration"
        for r in log.records:
            if r.vertex != traces[r.generator](r.level) or \
                    g.forward(r.level, r.vertex) != r.label:
                return f"forced assignment {r} is not honoured"
        for level in (0, 1, 4, 9, 10, 17, 25, 36, 50):
            for label in range(51):
                if g.forward(level, g.inverse(level, label)) != label:
                    return f"forward(inverse({label})) fails at level {level}"
        return None

    def iso_found(res):
        if not isinstance(res, G.IsoWitness):
            return f"no witness: {res}"
        if not G.verify_witness(td, bp, res):
            return "verify_witness rejects the witness"
        return O.iso_witness_error("tridiag_B", "interleaved_Bprime",
                                   res.tables, res.verified_rows)

    def iso_exhausted(res):
        if not isinstance(res, G.NoneWithinBudget) or res.nodes_explored >= res.budget:
            return f"expected an exhausted search, got {res}"
        return None

    uniform = G.LevelWindow.uniform
    deep = [Query(f"toeplitz_reenumeration tridiag_B from {s}, horizon 2000",
                  toeplitz, toeplitz_check),
            Query("iso_search tridiag_B vs interleaved_Bprime, 6 levels",
                  lambda: G.iso_search(td, bp, 6, uniform(td.indexing, 6, 16),
                                       uniform(bp.indexing, 6, 16)),
                  iso_found),
            Query("iso_search tridiag_B vs shifted_Bsecond, 4 levels",
                  lambda: G.iso_search(td, bs, 4, uniform(td.indexing, 4, 8),
                                       uniform(bs.indexing, 4, 8)),
                  iso_exhausted)]
    calls = cli_batch(rng, specs, (cmd_iso_check, cmd_construct_flatten,
                                   cmd_export_matrix), WARM_CLI_ROUNDS)
    return Workload(spread(shallow, [("deep", deep)]), calls)


# --- cli_cold ------------------------------------------------------------------------

CLI_COLD_COMMANDS = (cmd_irreducible_yes, cmd_irreducible_no, cmd_period,
                     cmd_orbit_visit, cmd_iso_check, cmd_export_matrix,
                     cmd_construct_flatten)


def cli_cold(G, cli, rng, specs) -> Workload:
    def in_process(call):
        return Query(call.label, lambda: warm_call(cli, call.argv),
                     lambda res: call.check(*res))

    def quick_check(res):
        code, text = res
        if code != 0 or "# criteria: 5 passed: 5 failed: 0" not in text:
            return f"quick suite exit {code}"
        return None

    shallow = [in_process(call)
               for call in cli_batch(rng, specs, CLI_COLD_COMMANDS, 15)]
    deep = [Query("report --suite quick",
                  lambda: warm_call(cli, ["report", "--suite", "quick"]), quick_check)
            for _ in range(2)]
    calls = cli_batch(rng, specs, CLI_COLD_COMMANDS, COLD_CLI_ROUNDS)

    def warm():  # fresh handles per call: only the interpreter has to warm up
        for q in shallow[:len(CLI_COLD_COMMANDS)]:
            q.run()

    return Workload(spread(shallow, [("deep", deep)]), calls,
                    cli_cold=True, warm=warm)


BY_NAME = {"reach_deep": reach_deep, "orbit_scan": orbit_scan,
            "relabel_build": relabel_build, "cli_cold": cli_cold}
