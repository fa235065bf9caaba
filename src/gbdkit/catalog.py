"""Built-in diagram families.

Each entry constructs a handle stationary from level 0 whose matrix is
a named infinite pattern, together with the structural flags the
pattern pins down.  A width-bounded family's columns follow from its
rows; only the families without a row-width bound (`renewal_shift`,
`b_infinity`, `star_odometer`) state a column-support rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import indexing as ix
from .diagram import (
    BandedFlag,
    BoundedSizeFlag,
    ColumnSupport,
    DiagramHandle,
    FullOutColumnFlag,
    InfiniteOutDegreesFlag,
    TriangularFlag,
)
from .errors import InvariantError, SchemaError, int_keyed, reject_unknown_keys


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    param_names: tuple
    builder: Callable[..., DiagramHandle]


def _diag_rule(params) -> tuple:
    """Diagonal multiplicity a_v for odometer families, constant or affine
    in v, and the `a` parameter as parsed."""
    a = params.get("a", 2)
    if isinstance(a, bool):
        raise SchemaError("a-rule must be an integer or {slope, offset}")
    if isinstance(a, int):
        if a < 2:
            raise SchemaError("odometer diagonal multiplicity must be >= 2")
        return (lambda v: a), a
    if isinstance(a, dict):
        reject_unknown_keys(a, ("slope", "offset"), "the a-rule")
        try:
            slope = int(a.get("slope", 0))
            offset = int(a.get("offset", 2))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed a-rule {a!r}: {exc}") from None
        def rule(v, s=slope, c=offset):
            val = s * v + c
            if val < 2:
                raise SchemaError(f"a-rule gives {val} < 2 at vertex {v}")
            return val
        return rule, {"slope": slope, "offset": offset}
    raise SchemaError(f"bad a-rule {a!r}")


def _banded_handle(offsets: dict, side: str, base: int, name: str, params: dict):
    items = tuple(sorted((int(o), int(m)) for o, m in offsets.items()))
    if not items:
        raise InvariantError("empty offset map: every incidence row would be empty")
    if any(m < 1 for _, m in items):
        raise InvariantError("banded multiplicities must be positive")
    idx = ix.two_sided() if side == "two" else ix.one_sided(base)

    def rows(n, v):
        return [(v + o, m) for o, m in items if idx.contains(v + o)]

    flags = [BandedFlag(items),
             BoundedSizeFlag(max(abs(o) for o, _ in items),
                             sum(m for _, m in items))]
    if all(o <= 0 for o, _ in items):
        flags.append(TriangularFlag("lower", 0))
    if all(o >= 0 for o, _ in items):
        flags.append(TriangularFlag("upper", 0))
    # one-sided truncation near the base can empty a row; the flag check
    # reads the base row first and rejects it at build time
    return DiagramHandle(idx, rows, stationary_from=0, flags=tuple(flags),
                         name=name, params=params)


def build_banded(offsets=None, side: str = "two", base: int = 1):
    if offsets is None:
        raise SchemaError("banded family requires offsets")
    if side not in ("one", "two"):
        raise SchemaError(f"banded side must be 'one' or 'two', got {side!r}")
    try:
        offsets = {o: int(m) for o, m in
                   int_keyed(dict(offsets), "banded offsets").items()}
        base = int(base)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed banded parameters: {exc}") from None
    return _banded_handle(offsets, side, base, "banded",
                          {"offsets": offsets, "side": side, "base": base})


def build_tridiag_B():
    """Two-sided band: 2 on the diagonal, 1 on both adjacent diagonals."""
    return _banded_handle({-1: 1, 0: 2, 1: 1}, "two", 0, "tridiag_B", {})


def build_interleaved_Bprime():
    """One-sided folding of tridiag_B onto the nonnegative integers."""
    idx = ix.one_sided(0)
    special_rows = {0: ((0, 2), (1, 1), (2, 1)),
                    1: ((0, 1), (1, 2), (3, 1))}

    def rows(n, v):
        if v in special_rows:
            return list(special_rows[v])
        return [(v - 2, 1), (v, 2), (v + 2, 1)]

    flags = (BoundedSizeFlag(2, 4),)
    return DiagramHandle(idx, rows, stationary_from=0, flags=flags,
                         name="interleaved_Bprime", params={})


def build_shifted_Bsecond():
    """Two-sided band: 1 on the diagonal, 2 and 1 on the first two subdiagonals."""
    return _banded_handle({0: 1, -1: 2, -2: 1}, "two", 0, "shifted_Bsecond", {})


def build_renewal_shift():
    """Vertex 1 feeds every vertex below; vertex n > 1 feeds only n - 1."""
    idx = ix.one_sided(1)

    def rows(n, v):
        if v == 1:
            return [(1, 1), (2, 1)]
        return [(1, 1), (v + 1, 1)]

    def cols(n, w):
        if w == 1:
            return ColumnSupport.all_targets()
        return ColumnSupport.finite(((w - 1, 1),))

    return DiagramHandle(idx, rows, stationary_from=0,
                         flags=(FullOutColumnFlag(1),),
                         col_rule=cols, name="renewal_shift", params={})


def build_b_infinity():
    """Lower-triangular all-ones: vertex w feeds every vertex >= w."""
    idx = ix.one_sided(1)

    def rows(n, v):
        return [(w, 1) for w in range(1, v + 1)]

    def cols(n, w):
        if w == 1:
            return ColumnSupport.all_targets()
        return ColumnSupport.infinite()

    return DiagramHandle(idx, rows, stationary_from=0,
                         flags=(TriangularFlag("lower", 0), FullOutColumnFlag(1),
                                InfiniteOutDegreesFlag()),
                         col_rule=cols, name="b_infinity", params={})


def build_star_odometer():
    """Vertex 1 feeds every vertex; each vertex v > 1 also loops on itself
    with multiplicity 3; vertex 1 loops with multiplicity 2."""
    idx = ix.one_sided(1)

    def rows(n, v):
        if v == 1:
            return [(1, 2)]
        return [(1, 1), (v, 3)]

    def cols(n, w):
        if w == 1:
            return ColumnSupport.all_targets()
        return ColumnSupport.finite(((w, 3),))

    return DiagramHandle(idx, rows, stationary_from=0,
                         flags=(TriangularFlag("lower", 0), FullOutColumnFlag(1)),
                         col_rule=cols, name="star_odometer", params={})


def _odometer_handle(side: str, params: dict, name: str):
    a, a_param = _diag_rule(params)
    idx = ix.two_sided() if side == "two" else ix.one_sided(1)

    def rows(n, v):
        row = [(v, a(v)), (v + 1, 1)]
        return [(w, m) for w, m in row if idx.contains(w)]

    flags = [TriangularFlag("upper", 0)]
    if isinstance(a_param, int):
        flags.append(BoundedSizeFlag(1, a_param + 1))
        flags.append(BandedFlag(((0, a_param), (1, 1))))
    else:
        flags.append(BoundedSizeFlag(1))
    # the parameters as parsed, so a report echoes no raw spec text
    return DiagramHandle(idx, rows, stationary_from=0, flags=tuple(flags),
                         name=name, params={"a": a_param} if "a" in params else {})


def build_odometer_one_sided(**params):
    return _odometer_handle("one", params, "odometer_one_sided")


def build_odometer_two_sided(**params):
    return _odometer_handle("two", params, "odometer_two_sided")


def build_growth_odometer():
    """One-sided odometer whose diagonal multiplicity grows as v + 1."""
    return _odometer_handle("one", {"a": {"slope": 1, "offset": 1}}, "growth_odometer")


def build_parity_1():
    """Two-sided 0-1 band on offsets -1 and +1 only."""
    return _banded_handle({-1: 1, 1: 1}, "two", 0, "parity_1", {})


def build_parity_2():
    """Two-sided 0-1 band on offsets -2 and +2 only."""
    return _banded_handle({-2: 1, 2: 1}, "two", 0, "parity_2", {})


CATALOG = {
    e.name: e for e in [
        CatalogEntry("tridiag_B", (), build_tridiag_B),
        CatalogEntry("interleaved_Bprime", (), build_interleaved_Bprime),
        CatalogEntry("shifted_Bsecond", (), build_shifted_Bsecond),
        CatalogEntry("renewal_shift", (), build_renewal_shift),
        CatalogEntry("banded", ("offsets", "side", "base"), build_banded),
        CatalogEntry("parity_1", (), build_parity_1),
        CatalogEntry("parity_2", (), build_parity_2),
        CatalogEntry("odometer_one_sided", ("a",), build_odometer_one_sided),
        CatalogEntry("odometer_two_sided", ("a",), build_odometer_two_sided),
        CatalogEntry("b_infinity", (), build_b_infinity),
        CatalogEntry("star_odometer", (), build_star_odometer),
        CatalogEntry("growth_odometer", (), build_growth_odometer),
    ]
}


def make_diagram(name: str, **params) -> DiagramHandle:
    entry = CATALOG.get(name) if isinstance(name, str) else None
    if entry is None:
        raise SchemaError(f"unknown catalog family {name!r}")
    unknown = sorted(set(params) - set(entry.param_names))
    if unknown:
        raise SchemaError(f"unknown {name} params {unknown}")
    return entry.builder(**params)


def catalog_names():
    return sorted(CATALOG)
