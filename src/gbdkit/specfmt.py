"""Serialized diagram specs and structured-text exports.

The on-disk format is line-oriented key/value text with nested maps
(YAML-compatible, so inline JSON-style documents also parse).  Integers
only: any float anywhere is rejected, keeping every artifact bit-exact.
"""

from __future__ import annotations

import yaml

from . import indexing as ix
from .bijections import VertexBijectionSeq, builtin_bijection
from .catalog import make_diagram
from .diagram import (
    BandedFlag,
    BoundedSizeFlag,
    DiagramHandle,
    ExplicitLevelsFlag,
    FullOutColumnFlag,
    InfiniteOutDegreesFlag,
    TriangularFlag,
)
from .errors import (
    ParseError,
    SchemaError,
    UndeclaredRowError,
    echo,
    int_keyed,
    reject_unknown_keys,
)
from .windows import clamped_interval

# Reports go through libyaml's emitter, the faster one, when PyYAML was
# built with it, and through the pure-Python one otherwise.  Both write
# the same bytes for a report payload: a mapping whose keys are ints or
# short identifiers and whose strings are printable ASCII
# (tests/test_report_emitters.py names where the two differ).  Specs
# still load through the pure-Python SafeLoader, which turns deep
# nesting into a ParseError.
_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


def read_input(path) -> str:
    """The text of an input file; a file that cannot be read as UTF-8
    text is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def load_yaml(text: str):
    """The YAML value of text; unparseable or too deeply nested text, or a
    scalar that cannot be built, such as an integer longer than the
    interpreter converts from text, is a ParseError."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"unparseable spec: {exc}") from exc
    except RecursionError:
        raise ParseError("unparseable spec: nested too deeply") from None
    except ValueError as exc:
        raise ParseError(f"unparseable spec: {exc}") from None


def parse_document(src) -> dict:
    """The mapping of a spec document given as text or already parsed; a
    float anywhere in it is a SchemaError."""
    if isinstance(src, str):
        doc = load_yaml(src)
        if doc is None:
            raise ParseError("empty spec document")
        if not isinstance(doc, dict):
            raise SchemaError("spec must be a mapping")
    else:
        doc = dict(src)
    _reject_floats(doc, "top level")
    return doc


def _reject_floats(obj, where, seen=None):
    """SchemaError at the first float in obj, depth first.  Each container
    is walked once, by identity: YAML aliases share one node, and a chain
    of them would otherwise be walked once per path through it."""
    if isinstance(obj, float):
        raise SchemaError(f"float {obj!r} at {where}: the format is integer-only")
    if not isinstance(obj, (dict, list, tuple)):
        return
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        for k, v in obj.items():
            _reject_floats(k, where, seen)
            _reject_floats(v, f"{where}.{k}", seen)
    else:
        for i, v in enumerate(obj):
            _reject_floats(v, f"{where}[{i}]", seen)


def _banded_flag(p) -> BandedFlag:
    if not p["offsets"]:
        raise SchemaError("banded flag needs a nonempty offset map")
    return BandedFlag.from_dict(p["offsets"])


def _triangular_flag(p) -> TriangularFlag:
    if p["direction"] not in ("lower", "upper"):
        raise SchemaError(f"triangular direction must be 'lower' or 'upper', "
                          f"got {echo(p['direction'])}")
    return TriangularFlag(p["direction"], int(p.get("slack", 0)))


# each flag kind's parser and the keys it reads besides the kind
_FLAG_PARSERS = {
    "banded": (_banded_flag, ("offsets",)),
    "triangular": (_triangular_flag, ("direction", "slack")),
    "full_out_column": (lambda p: FullOutColumnFlag(int(p["vertex"])), ("vertex",)),
    "infinite_out_degrees": (lambda p: InfiniteOutDegreesFlag(), ()),
    "bounded_size": (lambda p: BoundedSizeFlag(
        int(p["t"]), int(p["L"]) if "L" in p else None), ("t", "L")),
}


def _parse_flags(descs) -> tuple:
    descs = descs or []
    if not isinstance(descs, list):
        raise SchemaError("flags must be a list")
    flags = []
    for desc in descs:
        if not isinstance(desc, dict):
            raise SchemaError(f"a flag is a mapping, got {echo(desc)}")
        kind = desc.get("kind")
        if not isinstance(kind, str) or kind not in _FLAG_PARSERS:
            raise SchemaError(f"unknown flag kind {echo(kind)}")
        parse, keys = _FLAG_PARSERS[kind]
        reject_unknown_keys(desc, ("kind",) + keys, f"the {kind} flag")
        try:
            flags.append(parse(desc))
        except KeyError as exc:
            raise SchemaError(f"{kind} flag needs {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed {kind} flag {echo(desc)}: {exc}") from None
    return tuple(flags)


def _explicit_handle(doc: dict) -> DiagramHandle:
    reject_unknown_keys(doc, ("indexing", "flags", "levels", "extension"),
                        "an explicit spec")
    raw_levels = doc["levels"]
    if not isinstance(raw_levels, list) or not raw_levels:
        raise SchemaError("explicit spec needs a nonempty 'levels' list")
    extension = doc.get("extension", "error_beyond")
    if extension not in ("error_beyond", "repeat_last"):
        raise SchemaError(f"unknown extension policy {echo(extension)}")
    indexing = ix._parse_indexing(doc.get("indexing", {"mode": "two_sided"}))
    matrices = []
    for n, mat in enumerate(raw_levels):
        if not isinstance(mat, dict) or not mat:
            raise SchemaError(f"level {n} matrix must be a nonempty mapping")
        try:
            mat = int_keyed(mat, f"level {n}")
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed vertex at level {n}: {exc}") from None
        rows = {}
        for v, row in mat.items():
            try:
                entries = sorted((w, int(m)) for w, m in int_keyed(
                    dict(row), f"row {v} at level {n}").items())
            except (TypeError, ValueError) as exc:
                raise SchemaError(
                    f"malformed row {echo(v)} at level {n}: {exc}") from None
            if not entries:
                raise SchemaError(
                    f"declared row {v} at level {n} is empty: every row "
                    f"must have at least one edge")
            rows[v] = tuple(entries)
        matrices.append(rows)

    # the handle repeats or refuses the levels past the declared ones
    def row_rule(n, v):
        mat = matrices[n]
        if v not in mat:
            raise UndeclaredRowError(
                f"vertex {v} has no declared row at level {n}")
        return list(mat[v])

    flags = (_parse_flags(doc.get("flags"))
             + (ExplicitLevelsFlag(extension, len(matrices)),))
    last = len(matrices) - 1 if extension == "repeat_last" else None
    return DiagramHandle(indexing, row_rule, stationary_from=last, flags=flags,
                         name="explicit", params={"levels": len(matrices),
                                                  "extension": extension})


def load_spec(src) -> DiagramHandle:
    """Handle from a spec document (text or already-parsed mapping)."""
    doc = parse_document(src)
    fam = doc.get("family")
    if fam is not None:
        # a family spec holds the family and that family's parameters only
        params = {str(k): v for k, v in doc.items() if k != "family"}
        return make_diagram(fam, **params)
    if "levels" in doc:
        return _explicit_handle(doc)
    raise SchemaError("spec needs either a 'family' or explicit 'levels'")


def load_spec_file(path) -> DiagramHandle:
    return load_spec(read_input(path))


def parse_bijection(src) -> VertexBijectionSeq:
    doc = parse_document(src)
    kind = doc.get("kind")
    params = {k: v for k, v in doc.items() if k != "kind"}
    try:
        return builtin_bijection(kind, params)
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"malformed {kind} bijection parameters {echo(params)}: {exc}") from None


def to_text(obj) -> str:
    """Deterministic structured-text rendering of a plain payload."""
    return yaml.dump(obj, Dumper=_DUMPER, sort_keys=True,
                     default_flow_style=False)


def witness_text(tables: dict) -> str:
    """Bijection witness as level -> list of (vertex, image) pairs."""
    payload = {int(n): [[int(v), int(img)] for v, img in sorted(t.items())]
               for n, t in tables.items()}
    return to_text(payload)


def explicit_spec_of_window(d: DiagramHandle, levels: int, window) -> dict:
    """Windowed explicit-spec document for a handle (export helper);
    EmptyWindowError when the window holds no vertex."""
    lo, hi = clamped_interval(d.indexing, window)
    mats = []
    for n in range(levels + 1):
        mat = {}
        for v, row in d.window_rows(n, lo, hi).items():
            row = {w: m for w, m in row if lo <= w <= hi}
            if row:
                mat[v] = row
        mats.append(mat)
    desc = {"mode": d.indexing.mode}
    if d.indexing.mode == ix.ONE_SIDED:
        desc["base"] = d.indexing.base
    return {"indexing": desc, "levels": mats, "extension": "error_beyond"}
