"""Built-in diagram families.

Each entry constructs a stationary handle whose incidence matrix is a
named infinite matrix pattern, together with the structural flags and
exact column-support rules the pattern pins down.
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
    LevelRule,
    TriangularFlag,
)
from .errors import InvariantError, SchemaError


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    param_schema: dict
    builder: Callable[..., DiagramHandle]
    summary: str


def _diag_rule(params) -> Callable[[int], int]:
    """Diagonal multiplicity a_v for odometer families: constant or affine in v."""
    a = params.get("a", 2)
    if isinstance(a, bool):
        raise SchemaError("a-rule must be an integer or {slope, offset}")
    if isinstance(a, int):
        if a < 2:
            raise SchemaError("odometer diagonal multiplicity must be >= 2")
        return lambda v: a
    if isinstance(a, dict):
        slope = int(a.get("slope", 0))
        offset = int(a.get("offset", 2))
        def rule(v, s=slope, c=offset):
            val = s * v + c
            if val < 2:
                raise SchemaError(f"a-rule gives {val} < 2 at vertex {v}")
            return val
        return rule
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

    def cols(n, w):
        return ColumnSupport.finite(
            (w - o, m) for o, m in items if idx.contains(w - o))

    flags = [BandedFlag(items),
             BoundedSizeFlag(LevelRule.const(max(abs(o) for o, _ in items)),
                             LevelRule.const(sum(m for _, m in items)))]
    if all(o <= 0 for o, _ in items):
        flags.append(TriangularFlag("lower", 0))
    if all(o >= 0 for o, _ in items):
        flags.append(TriangularFlag("upper", 0))
    # one-sided truncation near the base can empty a row; the flag check
    # reads the base row first and rejects it at build time
    return DiagramHandle(idx, rows, stationary=True, flags=tuple(flags),
                         col_rule=cols, name=name, params=params)


def build_banded(offsets=None, side: str = "two", base: int = 1, **extra):
    if extra:
        raise SchemaError(f"unknown banded params {sorted(extra)}")
    if offsets is None:
        raise SchemaError("banded family requires offsets")
    return _banded_handle(dict(offsets), side, int(base), "banded",
                          {"offsets": {int(k): int(v) for k, v in dict(offsets).items()},
                           "side": side, "base": int(base)})


def build_tridiag_B(**_):
    """Two-sided band: 2 on the diagonal, 1 on both adjacent diagonals."""
    return _banded_handle({-1: 1, 0: 2, 1: 1}, "two", 0, "tridiag_B", {})


def build_interleaved_Bprime(**_):
    """One-sided folding of tridiag_B onto the nonnegative integers."""
    idx = ix.one_sided(0)
    special_rows = {0: ((0, 2), (1, 1), (2, 1)),
                    1: ((0, 1), (1, 2), (3, 1))}
    special_cols = {0: ((0, 2), (1, 1), (2, 1)),
                    1: ((0, 1), (1, 2), (3, 1)),
                    2: ((0, 1), (2, 2), (4, 1)),
                    3: ((1, 1), (3, 2), (5, 1))}

    def rows(n, v):
        if v in special_rows:
            return list(special_rows[v])
        return [(v - 2, 1), (v, 2), (v + 2, 1)]

    def cols(n, w):
        if w in special_cols:
            return ColumnSupport.finite(special_cols[w])
        return ColumnSupport.finite(((w - 2, 1), (w, 2), (w + 2, 1)))

    flags = (BoundedSizeFlag(LevelRule.const(2), LevelRule.const(4)),)
    return DiagramHandle(idx, rows, stationary=True, flags=flags,
                         col_rule=cols, name="interleaved_Bprime", params={})


def build_shifted_Bsecond(**_):
    """Two-sided band: 1 on the diagonal, 2 and 1 on the first two subdiagonals."""
    return _banded_handle({0: 1, -1: 2, -2: 1}, "two", 0, "shifted_Bsecond", {})


def build_renewal_shift(**_):
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

    return DiagramHandle(idx, rows, stationary=True,
                         flags=(FullOutColumnFlag(1),),
                         col_rule=cols, name="renewal_shift", params={})


def build_b_infinity(**_):
    """Lower-triangular all-ones: vertex w feeds every vertex >= w."""
    idx = ix.one_sided(1)

    def rows(n, v):
        return [(w, 1) for w in range(1, v + 1)]

    def cols(n, w):
        if w == 1:
            return ColumnSupport.all_targets()
        return ColumnSupport.infinite()

    return DiagramHandle(idx, rows, stationary=True,
                         flags=(TriangularFlag("lower", 0), FullOutColumnFlag(1),
                                InfiniteOutDegreesFlag()),
                         col_rule=cols, name="b_infinity", params={})


def build_star_odometer(**_):
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

    return DiagramHandle(idx, rows, stationary=True,
                         flags=(TriangularFlag("lower", 0), FullOutColumnFlag(1)),
                         col_rule=cols, name="star_odometer", params={})


def _odometer_handle(side: str, params: dict, name: str):
    a = _diag_rule(params)
    idx = ix.two_sided() if side == "two" else ix.one_sided(1)

    def rows(n, v):
        row = [(v, a(v)), (v + 1, 1)]
        return [(w, m) for w, m in row if idx.contains(w)]

    def cols(n, w):
        entries = [(w, a(w))]
        if idx.contains(w - 1):
            entries.append((w - 1, 1))
        return ColumnSupport.finite(entries)

    a_param = params.get("a", 2)
    flags = [TriangularFlag("upper", 0)]
    if isinstance(a_param, int):
        flags.append(BoundedSizeFlag(LevelRule.const(1),
                                     LevelRule.const(a_param + 1)))
        flags.append(BandedFlag(((0, a_param), (1, 1))))
    else:
        flags.append(BoundedSizeFlag(LevelRule.const(1), None))
    return DiagramHandle(idx, rows, stationary=True, flags=tuple(flags),
                         col_rule=cols, name=name, params=dict(params))


def build_odometer_one_sided(**params):
    return _odometer_handle("one", params, "odometer_one_sided")


def build_odometer_two_sided(**params):
    return _odometer_handle("two", params, "odometer_two_sided")


def build_growth_odometer(**_):
    """One-sided odometer whose diagonal multiplicity grows as v + 1."""
    return _odometer_handle("one", {"a": {"slope": 1, "offset": 1}}, "growth_odometer")


def build_parity_1(**_):
    """Two-sided 0-1 band on offsets -1 and +1 only."""
    return _banded_handle({-1: 1, 1: 1}, "two", 0, "parity_1", {})


def build_parity_2(**_):
    """Two-sided 0-1 band on offsets -2 and +2 only."""
    return _banded_handle({-2: 1, 2: 1}, "two", 0, "parity_2", {})


CATALOG = {
    e.name: e for e in [
        CatalogEntry("tridiag_B", {}, build_tridiag_B,
                     "two-sided band 1,2,1 around the diagonal"),
        CatalogEntry("interleaved_Bprime", {}, build_interleaved_Bprime,
                     "fold of tridiag_B onto nonnegative vertex ids"),
        CatalogEntry("shifted_Bsecond", {}, build_shifted_Bsecond,
                     "level-shift image of tridiag_B: lower-triangular 1,2,1"),
        CatalogEntry("renewal_shift", {}, build_renewal_shift,
                     "vertex 1 feeds all, vertex n feeds n-1"),
        CatalogEntry("banded", {"offsets": "map offset->mult",
                                "side": "one|two", "base": "int"},
                     build_banded, "custom band matrix"),
        CatalogEntry("parity_1", {}, build_parity_1, "0-1 band on offsets +-1"),
        CatalogEntry("parity_2", {}, build_parity_2, "0-1 band on offsets +-2"),
        CatalogEntry("odometer_one_sided", {"a": "int>=2 or {slope,offset}"},
                     build_odometer_one_sided,
                     "diagonal multiplicities a_v with a single superdiagonal 1"),
        CatalogEntry("odometer_two_sided", {"a": "int>=2 or {slope,offset}"},
                     build_odometer_two_sided,
                     "two-sided odometer band"),
        CatalogEntry("b_infinity", {}, build_b_infinity,
                     "lower-triangular all-ones"),
        CatalogEntry("star_odometer", {}, build_star_odometer,
                     "self-loops of multiplicity 3 plus a full column at vertex 1"),
        CatalogEntry("growth_odometer", {}, build_growth_odometer,
                     "one-sided odometer with a_v = v + 1"),
    ]
}


def make_diagram(name: str, **params) -> DiagramHandle:
    entry = CATALOG.get(name)
    if entry is None:
        raise SchemaError(f"unknown catalog family {name!r}")
    return entry.builder(**params)


def catalog_names():
    return sorted(CATALOG)
