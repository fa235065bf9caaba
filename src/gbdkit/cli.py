"""Command-line surface.

Exit codes: 0 for pass/Yes, 1 for No, 3 for Unknown, 2 for usage or
parse errors, so scripts can branch on verdicts.

Every command is one row of COMMANDS, which lists the flags the command
reads besides the common --spec and --out; any other flag exits 2.  A
command function takes the parsed arguments and the loaded diagram and
returns (payload, exit code) or (payload, exit code, artifact), where a
verdict's payload holds the line of the recheck beside its probe, called
with the probe's own arguments; `_run` loads --spec, times the call,
prints the probe report and returns the exit code.  With --out, the
artifact (when there is one) or else the printed text goes to that file.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import specfmt
from .bijections import recheck_relabel, relabel
from .diagram import DEFAULT_DEPTH, DiagramHandle
from .dot import render_dot
from .dynamics import (
    minimality_certificate,
    orbit_visits_cylinder,
    recheck_minimal,
    recheck_transitive,
    recheck_visit,
    transitivity_probe,
)
from .errors import GbdError, OutputError, SchemaError, echo, reject_unknown_keys
from .generators import PathGenerator, cylinder_at, parse_generator, prefix_from_trace
from .iso import (
    IsoWitness,
    iso_search,
    recheck_identity,
    recheck_search,
    verify_permutation_identity,
)
from .paths import FinitePath
from .probes import (
    bounded_size_params,
    classify_irreducibility_type,
    connected_probe,
    irreducible_probe,
    period_of_index,
    recheck_connected,
    recheck_irreducible,
    recheck_period,
)
from .reenumerate import (
    cone_flatten,
    dense_orbit_reenumeration,
    recheck_dense,
    recheck_toeplitz,
    toeplitz_reenumeration,
)
from .report import probe_report, run_report
from .windows import LevelWindow

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4  # a crash, which must not read as a verdict


# --- argument types ----------------------------------------------------------------

def _span(text: str) -> tuple:
    """`lo:hi`, two integers with lo <= hi."""
    lo, _, hi = text.partition(":")
    try:
        span = int(lo), int(hi)
    except ValueError:
        span = None
    if span is None or span[0] > span[1]:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi with integers lo <= hi, got {text!r}")
    return span


def _anchor(text: str) -> tuple:
    """`vertex:level`, two integers."""
    v, _, n = text.partition(":")
    try:
        return int(v), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected vertex:level with integers, got {text!r}") from None


def _at_least(lo: int):
    """Argument type: an integer >= lo."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < lo:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lo}, got {text!r}")
        return n
    return parse


# --- shared pieces ---------------------------------------------------------------

def _window(span, d: DiagramHandle, radius: int) -> tuple:
    """The given lo:hi span, or d's default interval of this radius."""
    return span or d.indexing.default_interval(radius)


def _level_window(args, d: DiagramHandle, radius: int) -> LevelWindow:
    """The --window span (or d's default) on every level 0..--levels."""
    span = _window(args.window, d, radius)
    return LevelWindow({n: span for n in range(args.levels + 1)})


def _generator(d: DiagramHandle, arg: str) -> PathGenerator:
    return parse_generator(d, specfmt.parse_document(arg))


def _cylinder(d: DiagramHandle, arg: str) -> FinitePath:
    doc = specfmt.parse_document(arg)
    reject_unknown_keys(doc, ("vertex", "trace"), "a cylinder")
    if "vertex" in doc and "trace" in doc:
        raise SchemaError("a cylinder takes a vertex or a trace, not both")
    if "vertex" in doc:
        try:
            vertex = int(doc["vertex"])
        except (TypeError, ValueError):
            raise SchemaError(
                f"cylinder vertex must be an integer, got {echo(doc['vertex'])}") from None
        return cylinder_at(d, vertex)
    trace = doc.get("trace")
    if not isinstance(trace, list) or not trace \
            or not all(isinstance(v, int) for v in trace):
        raise SchemaError('cylinder needs {"vertex": v} or a nonempty integer '
                          '{"trace": [v0, v1, ...]}')
    # a true passes the check above; print it as the 1 it stands for
    return prefix_from_trace(d, [int(v) for v in trace])


def _write(args, text: str, artifact: str | None = None) -> None:
    """Print text; --out gets the artifact when there is one, else the text."""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text if artifact is None else artifact)
        except OSError as exc:
            raise OutputError(f"cannot write {args.out}: {exc}") from None
    sys.stdout.write(text)


def _run(args) -> int:
    """Load --spec, run the command, print its probe report; the exit code."""
    started = time.perf_counter()
    d = specfmt.load_spec_file(args.spec)
    payload, code, *artifact = args.fn(args, d)
    text = probe_report(f"{args.group} {args.cmd}", d, payload,
                        time.perf_counter() - started)
    _write(args, text, *artifact)
    return code


def _run_text(args) -> int:
    """Runner of `export dot` and `report`, which print raw text, not a report."""
    d = specfmt.load_spec_file(args.spec) if "spec" in args else None
    code, text = args.fn(args, d)
    _write(args, text)
    return code


def _verdict(d: DiagramHandle, probe, check, *asked) -> tuple:
    """(payload, exit code) of v = probe(d, *asked), with check's line."""
    v = probe(d, *asked)
    code = EXIT_YES if v.is_yes else EXIT_NO if v.is_no else EXIT_UNKNOWN
    return {**v.describe(), "recheck": check(d, v, *asked)}, code


# --- probe ----------------------------------------------------------------------

def cmd_probe_irreducible(args, d):
    return _verdict(d, irreducible_probe, recheck_irreducible,
                    args.src, args.dst, args.level, args.depth)


def cmd_probe_connected(args, d):
    return _verdict(d, connected_probe, recheck_connected,
                    args.levels, _level_window(args, d, 8))


def cmd_probe_period(args, d):
    g, lengths = period_of_index(d, args.index, args.depth)
    payload = {"period": g, "return_lengths": lengths,
               "recheck": recheck_period(d, args.index, args.depth, g, lengths)}
    return payload, EXIT_YES if g is not None else EXIT_UNKNOWN


def cmd_probe_bounded_size(args, d):
    t, L, exact = bounded_size_params(d, args.level, args.window)
    return {"t_lower": t, "L_lower": L, "exact": exact}, EXIT_YES


def cmd_probe_classify(args, d):
    cls = classify_irreducibility_type(d, horizon=args.depth, window=args.window)
    return cls.describe(), EXIT_UNKNOWN if cls.kind == "unknown" else EXIT_YES


# --- orbit ----------------------------------------------------------------------

def cmd_orbit_visit(args, d):
    return _verdict(d, orbit_visits_cylinder, recheck_visit,
                    _generator(d, args.generator), _cylinder(d, args.cylinder),
                    args.depth)


def cmd_orbit_transitive(args, d):
    return _verdict(d, transitivity_probe, recheck_transitive,
                    _generator(d, args.generator), args.cyl_depth,
                    _window(args.window, d, 6), args.depth)


def cmd_orbit_minimal(args, d):
    return _verdict(d, minimality_certificate, recheck_minimal,
                    args.depth, args.window)


# --- iso ------------------------------------------------------------------------

def cmd_iso_check(args, dA):
    dB = specfmt.load_spec_file(args.spec_b)
    g = specfmt.parse_bijection(args.bijection)
    ok = verify_permutation_identity(dA, dB, g, args.levels)
    payload = {"identity_holds": ok, "levels": args.levels,
               "recheck": recheck_identity(dA, dB, g, args.levels, ok)}
    return payload, EXIT_YES if ok else EXIT_NO


def cmd_iso_search(args, dA):
    dB = specfmt.load_spec_file(args.spec_b)
    res = iso_search(dA, dB, args.levels, _level_window(args, dA, 8),
                     _level_window(args, dB, 8), budget=args.budget)
    if isinstance(res, IsoWitness):
        payload = {"witness": res.describe(),
                   "nodes_explored": res.nodes_explored,
                   "recheck": recheck_search(dA, dB, res)}
        return payload, EXIT_YES, specfmt.witness_text(res.tables)
    payload = {"result": "none_within_budget",
               "nodes_explored": res.nodes_explored, "budget": res.budget,
               "recheck": recheck_search(dA, dB, res)}
    return payload, EXIT_UNKNOWN


def cmd_iso_relabel(args, d):
    g = specfmt.parse_bijection(args.bijection)
    d2 = relabel(d, g)
    span = _window(args.window, d2, 6)
    doc = specfmt.explicit_spec_of_window(d2, args.levels, span)
    payload = {"relabeled_window_spec": doc,
               "recheck": recheck_relabel(d, g, args.levels, span, doc)}
    return payload, EXIT_YES


# --- construct --------------------------------------------------------------------

def cmd_construct_toeplitz(args, d):
    gens = [_generator(d, spec) for spec in args.generator]
    for x in gens:  # every pinned level 0..depth lies on the path
        x.validate_to(args.depth + 1)
    g, d2, log = toeplitz_reenumeration(d, gens, horizon=args.depth)
    payload = {"forced_assignments": [[r.generator, r.level, r.vertex, r.label]
                                      for r in log.records[:200]],
               "total_assignments": len(log.records),
               "identity_verified": verify_permutation_identity(d, d2, g, 3,
                                                                radius=8),
               "recheck": recheck_toeplitz(gens, g, log)}
    return payload, EXIT_YES, log.export_text()


def cmd_construct_dense(args, d):
    x = _generator(d, args.generator)
    x.validate_to(30)  # the 30 printed levels lie on the path
    g = dense_orbit_reenumeration(d, x)
    trace = [g.forward(n, x.vertex_at(n)) for n in range(30)]
    payload = {"pinned_trace_labels": trace,
               "recheck": recheck_dense(x, g, trace)}
    return payload, EXIT_YES


def cmd_construct_flatten(args, d):
    g, d2, cert = cone_flatten(d, args.anchor, horizon=args.depth)
    span = _window(args.window, d2, 4)
    payload = {"certificate": cert.describe() if hasattr(cert, "describe") else cert,
               "flattened_window": d2.incidence_window(0, span, span)}
    return payload, EXIT_YES


# --- export and report ---------------------------------------------------------------

def cmd_export_dot(args, d):
    return EXIT_YES, render_dot(d, args.levels, _level_window(args, d, 4))


def cmd_export_matrix(args, d):
    rows, cols = _window(args.rows, d, 4), _window(args.cols, d, 4)
    payload = {"level": args.level, "rows": list(rows), "cols": list(cols),
               "matrix": d.incidence_window(args.level, rows, cols)}
    return payload, EXIT_YES


def cmd_report(args, d):
    return run_report(args.suite, args.file)


# --- parser -------------------------------------------------------------------------

REQUIRED = {"required": True}
REQUIRED_INT = {"type": int, "required": True}
LEVEL = {"type": int, "default": 0}
SPAN = {"type": _span, "help": "lo:hi"}
WINDOW = {"type": _span, "help": "lo:hi vertex window"}
LEVELS = {"type": _at_least(0), "default": 4}


def _depth(default):
    """--depth with this command's default; None lets the function use
    its own horizon."""
    return {"type": _at_least(1), "default": default}


# One row per command: its name, its function, the defaults it sets (the
# runner of a raw-text command) and the flags it reads on top of the
# common --spec and --out.  A flag the command does not read exits 2.
COMMANDS = (
    ("probe irreducible", cmd_probe_irreducible, {},
     {"--depth": _depth(DEFAULT_DEPTH), "--src": REQUIRED_INT,
      "--dst": REQUIRED_INT, "--level": LEVEL}),
    ("probe connected", cmd_probe_connected, {},
     {"--window": WINDOW, "--levels": LEVELS}),
    ("probe period", cmd_probe_period, {},
     {"--depth": _depth(8), "--index": REQUIRED_INT}),
    ("probe bounded-size", cmd_probe_bounded_size, {},
     {"--window": WINDOW, "--level": LEVEL}),
    ("probe classify", cmd_probe_classify, {},
     {"--depth": _depth(64), "--window": WINDOW}),
    ("orbit visit", cmd_orbit_visit, {},
     {"--depth": _depth(DEFAULT_DEPTH),
      "--generator": {"required": True, "help": "generator spec (inline)"},
      "--cylinder": {"required": True,
                     "help": '{"vertex": v} or {"trace": [v0, v1, ...]}'}}),
    ("orbit transitive", cmd_orbit_transitive, {},
     {"--depth": _depth(DEFAULT_DEPTH), "--window": WINDOW,
      "--generator": REQUIRED, "--cyl-depth": {"type": _at_least(0), "default": 3}}),
    ("orbit minimal", cmd_orbit_minimal, {},
     {"--depth": _depth(None), "--window": WINDOW}),
    ("iso check", cmd_iso_check, {},
     {"--levels": LEVELS, "--spec-b": REQUIRED, "--bijection": REQUIRED}),
    ("iso search", cmd_iso_search, {},
     {"--window": WINDOW, "--levels": LEVELS, "--spec-b": REQUIRED,
      "--budget": {"type": _at_least(1), "default": 100_000}}),
    ("iso relabel", cmd_iso_relabel, {},
     {"--window": WINDOW, "--levels": LEVELS, "--bijection": REQUIRED}),
    ("construct toeplitz", cmd_construct_toeplitz, {},
     {"--depth": _depth(2000),
      "--generator": {"action": "append", "required": True,
                      "help": "repeatable generator spec"}}),
    ("construct dense", cmd_construct_dense, {}, {"--generator": REQUIRED}),
    ("construct flatten", cmd_construct_flatten, {},
     {"--depth": _depth(64), "--window": WINDOW,
      "--anchor": {"type": _anchor, "help": "vertex:level for cone anchoring"}}),
    ("export dot", cmd_export_dot, {"run": _run_text},
     {"--window": WINDOW, "--levels": LEVELS}),
    ("export matrix", cmd_export_matrix, {},
     {"--level": LEVEL, "--rows": SPAN, "--cols": SPAN}),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="gbdkit",
        description="exact probes and constructions on generalized "
                    "Bratteli diagrams")
    sub = ap.add_subparsers(dest="group", required=True)
    groups = {}
    for name, fn, defaults, flags in COMMANDS:
        group, cmd = name.split()
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(
                dest="cmd", required=True)
        p = groups[group].add_parser(cmd)
        p.add_argument("--spec", required=True, help="diagram spec file")
        p.add_argument("--out", help="write a copy of the printed report to this "
                       "file; iso search and construct toeplitz write their "
                       "artifact there instead")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn, run=_run)
        p.set_defaults(**defaults)

    p = sub.add_parser("report")
    p.add_argument("--suite", default="acceptance",
                   choices=["acceptance", "quick", "custom"])
    p.add_argument("--file", help="criterion-name list for a custom suite")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report, run=_run_text)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.run(args)
    except GbdError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        first = str(exc).splitlines()[:1]
        sys.stderr.write(f"internal error: {': '.join([type(exc).__name__] + first)}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
