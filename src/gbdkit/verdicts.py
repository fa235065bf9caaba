"""Three-valued probe results and non-reachability invariants.

Finite search can never prove a global negative on an infinite diagram,
so a No verdict always carries an invariant: a pattern verified
exhaustively on a window and backed beyond it by a structural flag of
the handle.  Certificates record both the verified window and the flags
assumed, and every exclusion they license is a one-line arithmetic
consequence of the pattern: of how far reach can drift per level
(`NonReachInvariant.drift`) or of the residue class every edge keeps
(`NonReachInvariant.residue_class`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .diagram import (
    BandedFlag,
    BoundedSizeFlag,
    DiagramHandle,
    TriangularFlag,
)
from .generators import EventualTrace
from .windows import LevelWindow

TRIANGULAR = "triangular_support"
RESIDUE = "residue_class"
CLOPEN = "clopen_partition"
CONE = "cone_bound"

ALL_KINDS = (TRIANGULAR, RESIDUE, CLOPEN, CONE)

# fixed search space: covers every band pattern in the catalog and keeps
# the scan instantaneous
MAX_MODULUS = 6
MAX_LEVEL_COEFF = 2
MAX_SLACK = 2


@dataclass(frozen=True)
class NonReachInvariant:
    kind: str
    params: tuple
    window: tuple = ()          # ((level, lo, hi), ...) where verified
    verified: bool = False
    global_via: tuple = ()      # flag descriptions backing it beyond the window

    @property
    def is_global(self) -> bool:
        return bool(self.global_via)

    def describe(self) -> dict:
        names = {TRIANGULAR: ("direction", "slack"),
                 RESIDUE: ("modulus", "level_coeff"),
                 CLOPEN: ("modulus", "level_coeff"),
                 CONE: ("t",)}
        return {"kind": self.kind,
                "params": dict(zip(names[self.kind], self.params)),
                "window": [list(w) for w in self.window],
                "verified": self.verified,
                "structural_assumptions": list(self.global_via)}

    # -- reach rule ---------------------------------------------------

    @property
    def drift(self) -> tuple:
        """(floor, ceiling) slopes of reach: k >= 1 steps after vertex j,
        every reachable id lies in [j + floor*k, j + ceiling*k]; None
        leaves that side unbounded."""
        if self.kind == TRIANGULAR:
            direction, c = self.params
            return (-c, None) if direction == "lower" else (None, -c)
        if self.kind == CONE:
            (t,) = self.params
            return -t, t
        return None, None

    def residue_class(self, v: int, n: int) -> int:
        """(v + a n) mod p, the class every edge keeps from v@n on (residue
        and clopen kinds)."""
        p, a = self.params
        return (v + a * n) % p

    @property
    def never_ascends(self) -> bool:
        """Ids never increase along an edge."""
        ceiling = self.drift[1]
        return ceiling is not None and ceiling <= 0

    @property
    def never_descends(self) -> bool:
        """Ids never decrease along an edge."""
        floor = self.drift[0]
        return floor is not None and floor >= 0

    def excludes_pair(self, i: int, j: int) -> bool:
        """No path from i (any level) to j at any strictly later level."""
        if not self.is_global:
            return False
        if self.kind in (RESIDUE, CLOPEN):
            # j - i = -a k (mod p) has a solution k >= 1 exactly when
            # gcd(a, p) divides j - i
            p, a = self.params
            return (j - i) % gcd(a, p) != 0
        floor, ceiling = self.drift
        return (self.never_descends and j < i + floor) or \
            (self.never_ascends and j > i + ceiling)

    @property
    def excludes_some_pair(self) -> bool:
        """Whether `excludes_pair` holds for some pair of ids."""
        # exclusion depends on j - i alone, and any exclusion at all
        # already excludes j = i - 1 or j = i + 1
        return self.excludes_pair(1, 0) or self.excludes_pair(0, 1)

    def separation_level(self, j: int, ell: int,
                         ev: EventualTrace) -> Optional[int]:
        """Least level M from which no path out of j@ell reaches the trace
        vertex ev.value(m)@m, m >= M; None when this invariant cannot show
        it from the certified trace ev (a clopen one never does).

        On each class of m modulo the trace period, the trace starts
        strictly below the reach floor and climbs no faster, or strictly
        above the ceiling and falls no faster.  A residue invariant needs
        the trace never to enter the class of j@ell; the trace's own
        class repeats after p periods.
        """
        if self.kind == CLOPEN or not (self.is_global and ev.certified):
            return None
        q = ev.period
        M = max(ev.start, ell + 1)
        if self.kind == RESIDUE:
            p, _ = self.params
            target = self.residue_class(j, ell)
            entered = any(self.residue_class(ev.value(m), m) == target
                          for m in range(M, M + p * q))
            return None if entered else M
        floor, ceiling = self.drift
        for m in range(M, M + q):  # the first level of each class of m mod q
            x, k = ev.value(m), m - ell
            below = floor is not None and x < j + floor * k \
                and ev.step <= floor * q
            above = ceiling is not None and x > j + ceiling * k \
                and ev.step >= ceiling * q
            if not (below or above):
                return None
        return M


@dataclass(frozen=True)
class Verdict:
    value: str                       # "yes" | "no" | "unknown"
    witness: object = None
    certificate: object = None
    depth: Optional[int] = None
    windows: object = None
    detail: dict = field(default_factory=dict)

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"

    @property
    def is_no(self) -> bool:
        return self.value == "no"

    @property
    def is_unknown(self) -> bool:
        return self.value == "unknown"

    @classmethod
    def yes(cls, witness=None, **detail):
        return cls("yes", witness=witness, detail=detail)

    @classmethod
    def no(cls, certificate=None, **detail):
        return cls("no", certificate=certificate, detail=detail)

    @classmethod
    def unknown(cls, depth=None, windows=None, **detail):
        return cls("unknown", depth=depth, windows=windows, detail=detail)

    def describe(self) -> dict:
        out = {"verdict": self.value}
        if self.is_yes and self.witness is not None:
            w = self.witness
            out["witness"] = w.describe() if hasattr(w, "describe") else w
        if self.is_no and self.certificate is not None:
            c = self.certificate
            out["certificate"] = c.describe() if hasattr(c, "describe") else c
        if self.is_unknown:
            out["searched_depth"] = self.depth
            if self.windows is not None:
                out["searched_windows"] = (
                    self.windows.describe() if hasattr(self.windows, "describe")
                    else self.windows)
        if self.detail:
            out["detail"] = _plain(self.detail)
        return out


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "describe"):
        return obj.describe()
    return obj


# --- search and verification --------------------------------------------------


def _window_edges(d: DiagramHandle, window: LevelWindow) -> set:
    """The distinct (v, w) of the edges w@n -> v@n+1 in the window's
    declared rows: every candidate invariant is a test on these pairs."""
    levels = window.levels
    return {(v, w)
            for n in levels if n + 1 in levels and d.level_known(n)
            for v, row in d.window_rows(n, *window.interval(n + 1)).items()
            for w, _ in row}


def _triangular_global_via(d: DiagramHandle, direction, c):
    via = []
    for f in d.get_flags(TriangularFlag):
        if f.direction == direction and (
                f.slack <= c if direction == "lower" else f.slack >= c):
            via.append(f"TriangularFlag({f.direction},{f.slack})")
    banded = d.get_flag(BandedFlag)
    if banded is not None:
        offs = [o for o, _ in banded.offsets]
        if direction == "lower" and max(offs) <= c:
            via.append("BandedFlag")
        if direction == "upper" and min(offs) >= c:
            via.append("BandedFlag")
    return tuple(via)


def _residue_global_via(d: DiagramHandle, p, a):
    banded = d.get_flag(BandedFlag)
    if banded is not None and all((a - o) % p == 0 for o, _ in banded.offsets):
        return ("BandedFlag",)
    return ()


def window_desc(window: LevelWindow) -> tuple:
    return tuple((n,) + tuple(window.interval(n)) for n in window.levels)


_SEARCHES = weakref.WeakKeyDictionary()  # handle -> {window_desc: invariants}


def find_invariants(d: DiagramHandle, window: LevelWindow) -> list:
    """Every invariant that verifies exhaustively on the window, in this
    order: triangular lower, triangular upper, residue and clopen by
    (p, a), then cone.

    Each triangular direction gives its strongest slack in -2..2 that
    holds: lower slack <= 0 or upper slack >= 0 excludes a vertex pair
    outright, the other sign only bounds the per-step drift, which
    trace-separation arguments exploit.  The other kinds are returned
    whether or not they exclude a pair (ask `excludes_some_pair`).
    Window vertices without a declared row are skipped, as in the flag
    checks.  The search runs once per handle and window; each call gets
    a fresh list, for the caller to filter.
    """
    memo = _SEARCHES.setdefault(d, {})
    key = window_desc(window)
    if key not in memo:
        memo[key] = tuple(_search(d, window))
    return list(memo[key])


def _search(d: DiagramHandle, window: LevelWindow) -> list:
    """The search behind `find_invariants`, run afresh from the rows."""
    found = []
    wdesc = window_desc(window)
    edges = _window_edges(d, window)
    # strongest slack first: most negative for lower, largest for upper
    for direction, slacks in (("lower", range(-MAX_SLACK, MAX_SLACK + 1)),
                              ("upper", range(MAX_SLACK, -MAX_SLACK - 1, -1))):
        for c in slacks:
            admits = TriangularFlag(direction, c).admits
            if all(admits(v, w) for v, w in edges):
                found.append(NonReachInvariant(
                    TRIANGULAR, (direction, c), wdesc, True,
                    _triangular_global_via(d, direction, c)))
                break
    seen = set()
    for p in range(2, MAX_MODULUS + 1):
        for a in range(-MAX_LEVEL_COEFF, MAX_LEVEL_COEFF + 1):
            a_canon = a % p
            if (p, a_canon) in seen:
                continue
            # every edge w@n -> v@n+1 keeps v + a(n+1) = w + a n (mod p)
            if all((v - w + a_canon) % p == 0 for v, w in edges):
                seen.add((p, a_canon))
                via = _residue_global_via(d, p, a_canon)
                found.append(NonReachInvariant(
                    RESIDUE, (p, a_canon), wdesc, True, via))
                if p == 2:
                    found.append(NonReachInvariant(
                        CLOPEN, (p, a_canon), wdesc, True, via))
    t = d.width
    if t is not None and all(abs(w - v) <= t for v, w in edges):
        # the flag that d.width reads its width from
        via = "BoundedSizeFlag" if d.get_flag(BoundedSizeFlag) is not None \
            else "BandedFlag"
        found.append(NonReachInvariant(CONE, (t,), wdesc, True, (via,)))
    return found


def reverify(d: DiagramHandle, inv: NonReachInvariant) -> bool:
    """Whether a fresh search from the rows on inv's own recorded window,
    not the memoized one, finds inv again with the same flag backing."""
    window = LevelWindow({n: (lo, hi) for n, lo, hi in inv.window})
    return inv in _search(d, window)

