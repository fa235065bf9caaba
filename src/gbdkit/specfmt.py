"""Serialized diagram specs and structured-text exports.

The on-disk format is line-oriented key/value text with nested maps
(YAML-compatible, so inline JSON-style documents also parse).  Integers
only: any float anywhere is rejected, keeping every artifact bit-exact.
"""

from __future__ import annotations

import functools

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

# Reports are written by `to_text` itself, in the bytes libyaml's emitter
# (`yaml.CSafeDumper`) writes for them; tests/test_report_emitters.py
# checks it against both of PyYAML's emitters.  Specs still load through
# the pure-Python SafeLoader, which turns deep nesting into a ParseError.
# A plain-looking string is written plain when PyYAML's resolver reads it
# back as a string; the answer is kept per string, since a report repeats
# its keys and verdict words.
_resolve = yaml.resolver.Resolver().resolve
_STR_TAG = "tag:yaml.org,2002:str"
# first characters that make a string an indicator in block context
_INDICATORS = frozenset("#,[]{}&*!|>'\"%@`")
# the containers a report holds, each as written when empty
_EMPTY = {dict: "{}", list: "[]", tuple: "[]"}


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


@functools.lru_cache(maxsize=1024)
def _str_text(s: str) -> str:
    """s as a report writes it before folding: plain where libyaml's
    block-context analysis allows it and PyYAML's resolver reads s back as
    a string, else single-quoted with each quote doubled.  ValueError
    outside printable ASCII, a line break included."""
    if not (s.isascii() and s.isprintable()):
        raise ValueError(f"a report string is printable ASCII on one line, "
                         f"got {echo(s)}")
    if (s and s[0] != " " and s[-1] != " " and s[0] not in _INDICATORS
            and not (s[0] in "?:-" and s[1:2] in ("", " "))
            and not s.startswith(("---", "..."))
            and ": " not in s and " #" not in s and s[-1] != ":"
            and _resolve(yaml.ScalarNode, s, (True, False)) == _STR_TAG):
        return s
    return "'" + s.replace("'", "''") + "'"


def _scalar(x) -> str:
    t = type(x)
    if t is str:
        return _str_text(x)
    if t is int:
        return str(x)
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    raise TypeError(f"a report holds no {t.__name__}: {echo(x)}")


def _fold(text: str, col: int, indent: int) -> str:
    """text written from column col: each single space reached past
    column 80, except a quoted string's first or last character, breaks
    the line, and the next line starts at indent."""
    if col + len(text) <= 81:
        return text
    lo, hi = (2, len(text) - 3) if text[0] == "'" else (1, len(text) - 2)
    pieces, start = [], 0
    i = text.find(" ", lo)
    while 0 <= i <= hi:
        if (col + i - start > 80 and text[i - 1] != " "
                and text[i + 1] != " "):
            pieces.append(text[start:i])
            start, col = i + 1, indent
        i = text.find(" ", i + 1)
    pieces.append(text[start:])
    return ("\n" + " " * indent).join(pieces)


def _item(lines: list, x, indent: int, line: str) -> None:
    """x after an indicator (`-`, or the `:` of a long key) that ends line
    at column indent."""
    if type(x) in _EMPTY:
        if x:
            _block(lines, x, indent + 2, line + " ")
        else:
            lines.append(line + " " + _EMPTY[type(x)])
    else:
        lines.append(line + " " + _fold(_scalar(x), indent + 2, indent + 2))


def _block(lines: list, x, indent: int, head: str) -> None:
    """The nonempty mapping or sequence x with its keys or dashes at
    indent, its first line continuing head (indent characters)."""
    pad = " " * indent
    if type(x) is not dict:
        for v in x:
            if type(v) is int:  # the cells of a matrix
                lines.append(f"{head}- {v}")
            else:
                _item(lines, v, indent, head + "-")
            head = pad
        return
    try:
        items = sorted(x.items())
    except TypeError:
        items = x.items()
    for k, v in items:
        if type(k) in _EMPTY:
            raise TypeError(f"a report key is a scalar, got {echo(k)}")
        key = _scalar(k)
        if len(k if type(k) is str else key) > 128:
            # libyaml writes a key this long as `? key`, then `: value`
            lines.append(head + "? " + _fold(key, indent + 2, indent + 2))
            _item(lines, v, indent, pad + ":")
        elif type(v) not in _EMPTY:
            line = head + key + ":"
            lines.append(line + " " + _fold(_scalar(v), len(line) + 1,
                                            indent + 2))
        elif not v:
            lines.append(head + key + ": " + _EMPTY[type(v)])
        else:
            lines.append(head + key + ":")
            # a sequence under a key keeps the key's column
            if type(v) is dict:
                _block(lines, v, indent + 2, pad + "  ")
            else:
                _block(lines, v, indent, pad)
        head = pad


def to_text(obj) -> str:
    """Deterministic structured-text rendering of a plain payload: a tree
    of dict, list, tuple, str, int, bool and None, in one pass.  The
    bytes are those PyYAML dumps through libyaml (`yaml.CSafeDumper`, keys
    sorted, block style), which writes each scalar as `_scalar` and
    `_fold` do and nests as `_block` and `_item` do.

    Keys are sorted where they compare, else kept in insertion order.  A
    float, a set, any other object, a container as a key, or a string
    outside printable ASCII or holding a line break raises TypeError or
    ValueError.  A container reached twice is written in full at each
    place, where PyYAML writes an anchor and an alias; no report holds
    one, since `verdicts._plain` copies each result and the catalog
    builders rebuild their params."""
    if type(obj) not in _EMPTY:
        return _fold(_scalar(obj), 0, 2) + "\n"
    if not obj:
        return _EMPTY[type(obj)] + "\n"
    lines: list = []
    _block(lines, obj, 0, "")
    return "\n".join(lines) + "\n"


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
