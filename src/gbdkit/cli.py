"""Command-line surface.

Exit codes: 0 for pass/Yes, 1 for No, 3 for Unknown, 2 for usage or
parse errors, so scripts can branch on verdicts.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import specfmt
from .bijections import relabel
from .diagram import DEFAULT_DEPTH, DiagramHandle
from .dot import render_dot
from .dynamics import (
    minimality_certificate,
    orbit_visits_cylinder,
    transitivity_probe,
)
from .errors import GbdError
from .generators import PathGenerator, cylinder_at, parse_generator, prefix_from_trace
from .iso import IsoWitness, iso_search, verify_permutation_identity
from .probes import (
    bounded_size_params,
    classify_irreducibility_type,
    connected_probe,
    irreducible_probe,
    period_of_index,
)
from .reenumerate import (
    cone_flatten,
    dense_orbit_reenumeration,
    toeplitz_reenumeration,
)
from .report import probe_report, run_report
from .verdicts import Verdict
from .windows import LevelWindow

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _load(path: str) -> DiagramHandle:
    return specfmt.load_spec_file(path)


def _window(arg: str | None, d: DiagramHandle, radius: int = 16):
    if arg is None:
        return d.indexing.default_interval(radius)
    lo, _, hi = arg.partition(":")
    return int(lo), int(hi)


def _generator(d: DiagramHandle, arg: str) -> PathGenerator:
    return parse_generator(d, specfmt.parse_document(arg))


def _cylinder(d: DiagramHandle, arg: str):
    doc = specfmt.parse_document(arg)
    if "vertex" in doc and "trace" not in doc:
        return cylinder_at(d, int(doc["vertex"]))
    return prefix_from_trace(d, doc["trace"])


def _emit(args, command: str, d: DiagramHandle, payload, started: float,
          verdict: Verdict | None = None) -> int:
    text = probe_report(command, d, payload, time.perf_counter() - started)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    if verdict is None:
        return EXIT_YES
    if verdict.is_yes:
        return EXIT_YES
    if verdict.is_no:
        return EXIT_NO
    return EXIT_UNKNOWN


def _verdict_payload(v: Verdict, recheck: str) -> dict:
    payload = v.describe()
    payload["recheck"] = recheck
    return payload


# --- probe ----------------------------------------------------------------------

def cmd_probe_irreducible(args):
    started = time.perf_counter()
    d = _load(args.spec)
    v = irreducible_probe(d, args.src, args.dst, args.level,
                          args.depth or DEFAULT_DEPTH)
    recheck = "unknown depth exhausted"
    if v.is_yes:
        v.witness.validate(d)
        recheck = "witness path re-validated edge-by-edge"
    elif v.is_no:
        recheck = "invariant re-verified on its window at load time"
    return _emit(args, "probe irreducible", d,
                 _verdict_payload(v, recheck), started, v)


def cmd_probe_connected(args):
    started = time.perf_counter()
    d = _load(args.spec)
    lo, hi = _window(args.window, d, radius=8)
    win = LevelWindow({n: (lo, hi) for n in range(args.levels + 1)})
    v = connected_probe(d, args.levels, win)
    return _emit(args, "probe connected", d,
                 _verdict_payload(v, "union-find over windowed edges"),
                 started, v)


def cmd_probe_period(args):
    started = time.perf_counter()
    d = _load(args.spec)
    g, lengths = period_of_index(d, args.index, args.depth or 8)
    payload = {"period": g, "return_lengths": lengths,
               "recheck": "every return length divisible by the gcd: "
                          + str(all(l % g == 0 for l in lengths) if g else "n/a")}
    code = _emit(args, "probe period", d, payload, started)
    return code if g is not None else EXIT_UNKNOWN


def cmd_probe_bounded_size(args):
    started = time.perf_counter()
    d = _load(args.spec)
    t, L, exact = bounded_size_params(d, args.level, _window(args.window, d, 8))
    payload = {"t_lower": t, "L_lower": L, "exact": exact}
    return _emit(args, "probe bounded-size", d, payload, started)


def cmd_probe_classify(args):
    started = time.perf_counter()
    d = _load(args.spec)
    cls = classify_irreducibility_type(d, horizon=args.depth or 64,
                                       window=_window(args.window, d))
    payload = cls.describe()
    code = _emit(args, "probe classify", d, payload, started)
    if cls.kind == "unknown":
        return EXIT_UNKNOWN
    return code


# --- orbit ----------------------------------------------------------------------

def cmd_orbit_visit(args):
    started = time.perf_counter()
    d = _load(args.spec)
    x = _generator(d, args.generator)
    c = _cylinder(d, args.cylinder)
    v = orbit_visits_cylinder(d, x, c, args.depth or DEFAULT_DEPTH)
    recheck = "unknown depth exhausted"
    if v.is_yes:
        w = v.witness
        full = list(c.edges) + list(w["connecting_path"].edges)
        from .paths import FinitePath
        FinitePath(0, c.start_vertex, tuple(full)).validate(d)
        recheck = "prefix + connecting path re-validated as one chain"
    elif v.is_no:
        recheck = "separation re-derived from the embedded invariant"
    return _emit(args, "orbit visit", d, _verdict_payload(v, recheck), started, v)


def cmd_orbit_transitive(args):
    started = time.perf_counter()
    d = _load(args.spec)
    x = _generator(d, args.generator)
    v = transitivity_probe(d, x, args.cyl_depth, _window(args.window, d, 6),
                           args.depth or DEFAULT_DEPTH)
    return _emit(args, "orbit transitive", d,
                 _verdict_payload(v, "per-cylinder verdicts embedded"),
                 started, v)


def cmd_orbit_minimal(args):
    started = time.perf_counter()
    d = _load(args.spec)
    v = minimality_certificate(d, horizon=args.depth,
                               window=_window(args.window, d))
    return _emit(args, "orbit minimal", d,
                 _verdict_payload(v, "forced bounds / missed cylinder embedded"),
                 started, v)


# --- iso ------------------------------------------------------------------------

def cmd_iso_check(args):
    started = time.perf_counter()
    dA = _load(args.spec)
    dB = _load(args.spec_b)
    g = specfmt.parse_bijection(args.bijection)
    ok = verify_permutation_identity(dA, dB, g, args.levels)
    payload = {"identity_holds": ok, "levels": args.levels,
               "recheck": "row-by-row exact comparison through the bijection"}
    code = _emit(args, "iso check", dA, payload, started)
    return code if ok else EXIT_NO


def cmd_iso_search(args):
    started = time.perf_counter()
    dA = _load(args.spec)
    dB = _load(args.spec_b)
    lo, hi = _window(args.window, dA, radius=8)
    wa = LevelWindow({n: (lo, hi) for n in range(args.levels + 1)})
    lob, hib = _window(args.window, dB, radius=8)
    wb = LevelWindow({n: (lob, hib) for n in range(args.levels + 1)})
    res = iso_search(dA, dB, args.levels, wa, wb, budget=args.budget)
    if isinstance(res, IsoWitness):
        from .iso import verify_witness
        payload = {"witness": res.describe(),
                   "nodes_explored": res.nodes_explored,
                   "recheck": f"witness verified: {verify_witness(dA, dB, res)}"}
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(specfmt.witness_text(res.tables))
        code = _emit(argparse.Namespace(out=None), "iso search", dA, payload,
                     started)
        return code
    payload = {"result": "none_within_budget",
               "nodes_explored": res.nodes_explored, "budget": res.budget,
               "recheck": "bounded search only; not a non-isomorphism proof"}
    _emit(argparse.Namespace(out=args.out), "iso search", dA, payload, started)
    return EXIT_UNKNOWN


def cmd_iso_relabel(args):
    started = time.perf_counter()
    d = _load(args.spec)
    g = specfmt.parse_bijection(args.bijection)
    d2 = relabel(d, g)
    lo, hi = _window(args.window, d2, radius=6)
    doc = specfmt.explicit_spec_of_window(d2, args.levels, (lo, hi))
    payload = {"relabeled_window_spec": doc,
               "recheck": "exported rows re-derived from the bijection"}
    return _emit(args, "iso relabel", d, payload, started)


# --- construct --------------------------------------------------------------------

def cmd_construct_toeplitz(args):
    started = time.perf_counter()
    d = _load(args.spec)
    gens = [_generator(d, spec) for spec in args.generator]
    g, d2, log = toeplitz_reenumeration(d, gens, horizon=args.depth or 2000)
    payload = {"forced_assignments": [[r.generator, r.level, r.vertex, r.label]
                                      for r in log.records[:200]],
               "total_assignments": len(log.records),
               "identity_verified": verify_permutation_identity(d, d2, g, 3,
                                                                radius=8)}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(log.export_text())
    return _emit(argparse.Namespace(out=None), "construct toeplitz", d,
                 payload, started)


def cmd_construct_dense(args):
    started = time.perf_counter()
    d = _load(args.spec)
    x = _generator(d, args.generator)
    g = dense_orbit_reenumeration(d, x)
    trace = [g.forward(n, x.vertex_at(n)) for n in range(30)]
    payload = {"pinned_trace_labels": trace,
               "recheck": "labels follow the block-counting sequence"}
    return _emit(args, "construct dense", d, payload, started)


def cmd_construct_flatten(args):
    started = time.perf_counter()
    d = _load(args.spec)
    anchor = None
    if args.anchor:
        v, _, n = args.anchor.partition(":")
        anchor = (int(v), int(n))
    g, d2, cert = cone_flatten(d, anchor, horizon=args.depth or 64)
    lo, hi = _window(args.window, d2, radius=4)
    payload = {"certificate": cert.describe() if hasattr(cert, "describe") else cert,
               "flattened_window": d2.incidence_window(0, (lo, hi), (lo, hi))}
    return _emit(args, "construct flatten", d, payload, started)


# --- export ------------------------------------------------------------------------

def cmd_export_dot(args):
    d = _load(args.spec)
    lo, hi = _window(args.window, d, radius=4)
    win = LevelWindow({n: (lo, hi) for n in range(args.levels + 1)})
    text = render_dot(d, args.levels, win)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_YES


def cmd_export_matrix(args):
    started = time.perf_counter()
    d = _load(args.spec)
    rlo, rhi = _window(args.rows, d, radius=4)
    clo, chi = _window(args.cols, d, radius=4)
    mat = d.incidence_window(args.level, (rlo, rhi), (clo, chi))
    payload = {"level": args.level, "rows": [rlo, rhi], "cols": [clo, chi],
               "matrix": mat}
    return _emit(args, "export matrix", d, payload, started)


def cmd_report(args):
    code, text = run_report(args.suite, args.file)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return code


# --- parser -------------------------------------------------------------------------

def _add_common(p, spec=True):
    if spec:
        p.add_argument("--spec", required=True, help="diagram spec file")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--window", help="lo:hi vertex window")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--out", help="also write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gbdkit",
        description="exact probes and constructions on generalized "
                    "Bratteli diagrams")
    sub = ap.add_subparsers(dest="group", required=True)

    probe = sub.add_parser("probe").add_subparsers(dest="cmd", required=True)
    p = probe.add_parser("irreducible")
    _add_common(p)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.add_argument("--level", type=int, default=0)
    p.set_defaults(fn=cmd_probe_irreducible)
    p = probe.add_parser("connected")
    _add_common(p)
    p.set_defaults(fn=cmd_probe_connected)
    p = probe.add_parser("period")
    _add_common(p)
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(fn=cmd_probe_period)
    p = probe.add_parser("bounded-size")
    _add_common(p)
    p.add_argument("--level", type=int, default=0)
    p.set_defaults(fn=cmd_probe_bounded_size)
    p = probe.add_parser("classify")
    _add_common(p)
    p.set_defaults(fn=cmd_probe_classify)

    orbit = sub.add_parser("orbit").add_subparsers(dest="cmd", required=True)
    p = orbit.add_parser("visit")
    _add_common(p)
    p.add_argument("--generator", required=True, help="generator spec (inline)")
    p.add_argument("--cylinder", required=True,
                   help='{"vertex": v} or {"trace": [v0, v1, ...]}')
    p.set_defaults(fn=cmd_orbit_visit)
    p = orbit.add_parser("transitive")
    _add_common(p)
    p.add_argument("--generator", required=True)
    p.add_argument("--cyl-depth", type=int, default=3, dest="cyl_depth")
    p.set_defaults(fn=cmd_orbit_transitive)
    p = orbit.add_parser("minimal")
    _add_common(p)
    p.set_defaults(fn=cmd_orbit_minimal)

    iso = sub.add_parser("iso").add_subparsers(dest="cmd", required=True)
    p = iso.add_parser("check")
    _add_common(p)
    p.add_argument("--spec-b", required=True, dest="spec_b")
    p.add_argument("--bijection", required=True)
    p.set_defaults(fn=cmd_iso_check)
    p = iso.add_parser("search")
    _add_common(p)
    p.add_argument("--spec-b", required=True, dest="spec_b")
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(fn=cmd_iso_search)
    p = iso.add_parser("relabel")
    _add_common(p)
    p.add_argument("--bijection", required=True)
    p.set_defaults(fn=cmd_iso_relabel)

    construct = sub.add_parser("construct").add_subparsers(dest="cmd",
                                                           required=True)
    p = construct.add_parser("toeplitz")
    _add_common(p)
    p.add_argument("--generator", action="append", required=True,
                   help="repeatable generator spec")
    p.set_defaults(fn=cmd_construct_toeplitz)
    p = construct.add_parser("dense")
    _add_common(p)
    p.add_argument("--generator", required=True)
    p.set_defaults(fn=cmd_construct_dense)
    p = construct.add_parser("flatten")
    _add_common(p)
    p.add_argument("--anchor", help="vertex:level for cone anchoring")
    p.set_defaults(fn=cmd_construct_flatten)

    export = sub.add_parser("export").add_subparsers(dest="cmd", required=True)
    p = export.add_parser("dot")
    _add_common(p)
    p.set_defaults(fn=cmd_export_dot)
    p = export.add_parser("matrix")
    _add_common(p)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--rows", help="lo:hi")
    p.add_argument("--cols", help="lo:hi")
    p.set_defaults(fn=cmd_export_matrix)

    p = sub.add_parser("report")
    p.add_argument("--suite", default="acceptance",
                   choices=["acceptance", "quick", "custom"])
    p.add_argument("--file", help="criterion-name list for a custom suite")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except GbdError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
