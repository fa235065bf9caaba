"""Serialized diagram specs and structured-text exports.

The on-disk format is line-oriented key/value text with nested maps
(YAML-compatible, so inline JSON-style documents also parse).  Integers
only: any float anywhere is rejected, keeping every artifact bit-exact.
"""

from __future__ import annotations

import yaml

from . import indexing as ix
from .bijections import VertexBijectionSeq, builtin_bijection
from .catalog import CATALOG, make_diagram
from .diagram import (
    BandedFlag,
    BoundedSizeFlag,
    ColumnSupport,
    DiagramHandle,
    ExplicitLevelsFlag,
    FullOutColumnFlag,
    InfiniteOutDegreesFlag,
    LevelRule,
    TriangularFlag,
)
from .errors import ParseError, SchemaError, UndeclaredRowError


def parse_document(text: str) -> dict:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"unparseable spec: {exc}") from exc
    if doc is None:
        raise ParseError("empty spec document")
    if not isinstance(doc, dict):
        raise SchemaError("spec must be a mapping")
    _reject_floats(doc, "top level")
    return doc


def _reject_floats(obj, where):
    if isinstance(obj, float):
        raise SchemaError(f"float {obj!r} at {where}: the format is integer-only")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _reject_floats(k, where)
            _reject_floats(v, f"{where}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _reject_floats(v, f"{where}[{i}]")


_FLAG_PARSERS = {
    "banded": lambda p: BandedFlag.from_dict(p["offsets"]),
    "triangular": lambda p: TriangularFlag(p["direction"], int(p.get("slack", 0))),
    "full_out_column": lambda p: FullOutColumnFlag(int(p["vertex"])),
    "infinite_out_degrees": lambda p: InfiniteOutDegreesFlag(),
    "bounded_size": lambda p: BoundedSizeFlag(
        LevelRule.const(int(p["t"])),
        LevelRule.const(int(p["L"])) if "L" in p else None),
}


def _parse_flags(descs) -> tuple:
    flags = []
    for desc in descs or []:
        if isinstance(desc, str):
            desc = {"kind": desc}
        kind = desc.get("kind")
        if kind not in _FLAG_PARSERS:
            raise SchemaError(f"unknown flag kind {kind!r}")
        flags.append(_FLAG_PARSERS[kind](desc))
    return tuple(flags)


def _explicit_handle(doc: dict) -> DiagramHandle:
    body = doc.get("explicit", doc)
    raw_levels = body.get("levels")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise SchemaError("explicit spec needs a nonempty 'levels' list")
    extension = body.get("extension", "error_beyond")
    if extension not in ("error_beyond", "repeat_last"):
        raise SchemaError(f"unknown extension policy {extension!r}")
    indexing = ix._parse_indexing(doc.get("indexing", {"mode": "two_sided"}))
    matrices = []
    for n, mat in enumerate(raw_levels):
        if not isinstance(mat, dict) or not mat:
            raise SchemaError(f"level {n} matrix must be a nonempty mapping")
        rows = {}
        for v, row in mat.items():
            entries = sorted((int(w), int(m)) for w, m in dict(row).items())
            if not entries:
                raise SchemaError(
                    f"declared row {v} at level {n} is empty: every row "
                    f"must have at least one edge")
            rows[int(v)] = tuple(entries)
        matrices.append(rows)

    # levels past the declared ones never reach these rules: the handle
    # maps them through ExplicitLevelsFlag.level_of
    def row_rule(n, v):
        mat = matrices[n]
        if v not in mat:
            raise UndeclaredRowError(
                f"vertex {v} has no declared row at level {n}")
        return list(mat[v])

    def col_rule(n, w):
        mat = matrices[n]
        entries = [(v, dict(row)[w]) for v, row in mat.items() if w in dict(row)]
        return ColumnSupport.finite(entries)

    flags = (_parse_flags(doc.get("flags"))
             + (ExplicitLevelsFlag(extension, len(matrices)),))
    stationary = len(matrices) == 1 and extension == "repeat_last"
    return DiagramHandle(indexing, row_rule, stationary=stationary,
                         flags=flags, col_rule=col_rule,
                         name="explicit", params={"levels": len(matrices),
                                                  "extension": extension})


def load_spec(src) -> DiagramHandle:
    """Handle from a spec document (text or already-parsed mapping)."""
    doc = parse_document(src) if isinstance(src, str) else dict(src)
    _reject_floats(doc, "top level")
    fam = doc.get("family")
    if fam is not None:
        if isinstance(fam, dict):
            name = fam.get("name")
            params = dict(fam.get("params", {}))
        else:
            name = fam
            params = {k: v for k, v in doc.items()
                      if k not in ("family", "flags", "indexing")}
        if name not in CATALOG:
            raise SchemaError(f"unknown catalog family {name!r}")
        return make_diagram(name, **params)
    if "levels" in doc or "explicit" in doc:
        return _explicit_handle(doc)
    raise SchemaError("spec needs either a 'family' or explicit 'levels'")


def load_spec_file(path) -> DiagramHandle:
    with open(path, "r", encoding="utf-8") as fh:
        return load_spec(fh.read())


def parse_bijection(src) -> VertexBijectionSeq:
    doc = parse_document(src) if isinstance(src, str) else dict(src)
    kind = doc.get("kind")
    params = {k: v for k, v in doc.items() if k != "kind"}
    try:
        return builtin_bijection(kind, params)
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"malformed {kind} bijection parameters {params}: {exc}") from None


def to_text(obj) -> str:
    """Deterministic structured-text rendering of a plain payload."""
    return yaml.safe_dump(obj, sort_keys=True, default_flow_style=False)


def witness_text(tables: dict) -> str:
    """Bijection witness as level -> list of (vertex, image) pairs."""
    payload = {int(n): [[int(v), int(img)] for v, img in sorted(t.items())]
               for n, t in tables.items()}
    return to_text(payload)


def explicit_spec_of_window(d: DiagramHandle, levels: int, window) -> dict:
    """Windowed explicit-spec document for a handle (export helper)."""
    lo, hi = d.indexing.clamp(*window)
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
