"""Infinite-path rules and finite prefixes.

A generator is a deterministic rule producing the vertex trace s(x_m)
and the edge choice at every level on demand.  Edges are validated
lazily against the diagram's rows.  For certificate purposes a
generator can report an *eventual trace*: a start level, period and
step such that the trace is provably periodic-with-shift from there on.
The proof obligations are checked, never assumed: either the rule never
consults the diagram (vertical, alternating), or the rule's state
recurs on a stationary diagram, or the diagram is stationary banded so
the stepping rule commutes with translation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from .diagram import DEFAULT_HORIZON, BandedFlag, DiagramHandle
from .errors import (
    InvalidEdgeError,
    InvariantError,
    SchemaError,
    UnknownKindError,
    reject_unknown_keys,
)
from .paths import Edge, FinitePath

PathPrefix = FinitePath  # a prefix anchored at level 0 names a cylinder set


def cylinder_at(d: DiagramHandle, vertex: int) -> FinitePath:
    """Zero-length cylinder: all paths starting at this level-0 vertex."""
    d.indexing.check(vertex)
    return FinitePath(0, vertex)


def prefix_from_trace(d: DiagramHandle, trace) -> FinitePath:
    """Cylinder prefix along the given vertex trace (first copies), validated."""
    trace = list(trace)
    edges = tuple(Edge(i, trace[i], trace[i + 1], 0) for i in range(len(trace) - 1))
    p = FinitePath(0, trace[0], edges)
    p.validate(d)
    return p


@dataclass(frozen=True)
class EventualTrace:
    """trace(m + period) = trace(m) + step for all m >= start (certified),
    or at least for all scanned m (not certified)."""

    start: int
    period: int
    step: int
    certified: bool
    base_vertices: tuple  # trace values on [start, start + period)

    def value(self, m: int) -> int:
        if m < self.start:
            raise ValueError(f"level {m} below eventual start {self.start}")
        k, r = divmod(m - self.start, self.period)
        return self.base_vertices[r] + k * self.step


class TraceGenerator:
    """Probe surface shared by generators: edges, prefixes and validation
    read off `vertex_at` (given by each subclass) and the rows of `d`."""

    d: DiagramHandle
    kind: str
    params: dict
    _validated = 0  # edges x_0 .. x_{_validated - 1} are known to exist

    def edge_at(self, m: int) -> Edge:
        """x_m, validated against the diagram's rows."""
        src, tgt = self.vertex_at(m), self.vertex_at(m + 1)
        if self.d.entry(m, tgt, src) < 1:
            raise InvalidEdgeError(
                f"generator {self.kind} emits missing edge {src}->{tgt} "
                f"at level {m}")
        return Edge(m, src, tgt, 0)

    def validate_to(self, horizon: int):
        """Check the edges x_0 .. x_{horizon-1}, each once per generator."""
        for m in range(self._validated, horizon):
            self.edge_at(m)
        self._validated = max(self._validated, horizon)
        return True

    def describe(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


_RULES = ("vertical", "leftmost_slant", "rightmost_slant", "alternating",
          "climbing")
# the parameters each generator kind reads
_GENERATOR_KEYS = {**{rule: ("vertex",) for rule in _RULES},
                   "eventually_vertical": ("prefix", "vertex"),
                   "table_then_rule": ("table", "tail")}


class PathGenerator(TraceGenerator):
    """Evaluable infinite path: kind + parameters + backing diagram.

    Every kind is a vertex table plus one step rule from `_RULES`: the
    trace is the table, then the rule applied level by level.  A rule
    kind's table is its start vertex; `eventually_vertical` is its
    prefix plus `vertical`; `table_then_rule` is its table plus the
    tail's rule.
    """

    def __init__(self, d: DiagramHandle, kind: str, params: dict):
        self.d = d
        self.kind = kind
        self.params = dict(params)
        table, self._rule = self._table_and_rule()
        # the rule's phase (the parity of `alternating`) counts from the
        # table's last level
        self._phase = len(table) - 1
        self._trace: list = table
        self._extending = threading.Lock()  # one thread extends _trace at a time

    def _vertex(self, v) -> int:
        v = int(v)
        self.d.indexing.check(v)
        return v

    def _table_and_rule(self) -> tuple:
        p = self.params
        if not isinstance(self.kind, str) or self.kind not in _GENERATOR_KEYS:
            raise UnknownKindError(f"unknown generator kind {self.kind!r}")
        reject_unknown_keys(p, _GENERATOR_KEYS[self.kind], f"the {self.kind} generator")
        if self.kind in _RULES:
            return [self._vertex(p["vertex"])], self.kind
        if self.kind == "eventually_vertical":
            prefix = [int(v) for v in p.get("prefix", [])]
            v = self._vertex(p["vertex"])
            return (prefix if prefix[-1:] == [v] else prefix + [v]), "vertical"
        table = [int(v) for v in p["table"]]  # table_then_rule
        if not table:
            raise InvariantError("table_then_rule needs a nonempty table")
        tail = dict(p["tail"])
        reject_unknown_keys(tail, ("kind", "vertex"), "the table_then_rule tail")
        rule = tail["kind"]
        if rule not in _RULES:
            raise UnknownKindError(f"unsupported tail rule {rule!r}")
        # the tail starts where the table ends; it may restate that vertex
        start = self._vertex(tail.get("vertex", table[-1]))
        if start != table[-1]:
            raise InvariantError(
                f"table_then_rule tail vertex {start} differs from the "
                f"table's last vertex {table[-1]}")
        return table, rule

    # -- trace ----------------------------------------------------------

    def _next_vertex(self, m: int, v: int) -> int:
        """The rule's step from v@m; the diagram is read at level m."""
        rule = self._rule
        if rule == "vertical":
            return v
        if rule == "alternating":
            return v if (m - self._phase) % 2 == 0 else v - 1
        if rule == "climbing" and self.d.indexing.contains(v + 1) \
                and self.d.entry(m, v + 1, v) > 0:
            return v + 1
        sup = self.d.column_support(m, v)
        if sup is None or not sup.is_finite:
            if rule == "climbing":
                raise InvariantError(
                    f"climbing fallback needs exact column support at {v}")
            if sup is not None and sup.kind == "all" and \
                    rule == "leftmost_slant" and \
                    self.d.indexing.mode == "one_sided":
                return self.d.indexing.base  # full column: base is leftmost
            raise InvariantError(
                f"{rule} needs exact column support at vertex {v}")
        out = sup.entries
        if not out:
            raise InvariantError(f"{rule} finds no out-edge at vertex {v}, level {m}")
        return out[-1][0] if rule == "rightmost_slant" else out[0][0]

    def vertex_at(self, m: int) -> int:
        """s(x_m): the vertex the path passes through on level m."""
        if m < 0:
            raise ValueError("negative level")
        trace = self._trace
        if m >= len(trace):
            # acquire and release: `with` costs about three times as much
            self._extending.acquire()
            try:
                while len(trace) <= m:
                    trace.append(self._next_vertex(len(trace) - 1, trace[-1]))
            finally:
                self._extending.release()
        return trace[m]

    # -- eventual behavior -----------------------------------------------

    def eventual(self, horizon: int = DEFAULT_HORIZON) -> Optional[EventualTrace]:
        """Detect and, where provable, certify eventual linearity of the
        trace: for period q = 1, else 2, the least start below horizon // 2
        from which trace(m + q) - trace(m) stays the same through level
        horizon + 1."""
        self.vertex_at(max(horizon + 1, 0))
        if horizon < 2:
            return None
        trace = self._trace[:horizon + 2]
        for q in (1, 2):
            # scan back from the last difference while the differences agree
            start = horizon + 1 - q
            step = trace[start + q] - trace[start]
            while start > 0 and trace[start - 1 + q] - trace[start - 1] == step:
                start -= 1
            if start < horizon // 2:
                certified = self._certify_eventual(step)
                return EventualTrace(start, q, step, certified,
                                     tuple(trace[start:start + q]))
        return None

    def _certify_eventual(self, step) -> bool:
        if self._rule in ("vertical", "alternating"):
            # the rule never consults the diagram; the pattern is forced
            return True
        if not self.d.stationary:
            return False
        if step == 0:
            # the stepping rule is a function of the vertex alone on a
            # stationary diagram, and its state recurs
            return True
        if self.d.get_flag(BandedFlag) is not None \
                and self.d.indexing.mode == "two_sided":
            # stationary banded on two-sided levels: the stepping rule
            # commutes with translation, so one observed period persists
            return True
        return False


class PushedGenerator(TraceGenerator):
    """Image of a generator under a bijection sequence, living in the
    relabeled diagram."""

    def __init__(self, x, g, d2: DiagramHandle):
        self.base = x
        self.g = g
        self.d = d2
        self.kind = f"pushed({x.kind},{g.kind})"
        self.params = {"base": x.describe(), "bijection": g.kind}

    def vertex_at(self, m: int) -> int:
        return self.g.forward(m, self.base.vertex_at(m))

    def eventual(self, horizon: int = DEFAULT_HORIZON):
        ev = self.base.eventual(horizon)
        if ev is None:
            return None
        if self.g.step is not None:
            return EventualTrace(
                ev.start, ev.period, ev.step + ev.period * self.g.step, ev.certified,
                tuple(self.vertex_at(m)
                      for m in range(ev.start, ev.start + ev.period)))
        return None


def pushed_generator(x, g, d2: DiagramHandle) -> PushedGenerator:
    return PushedGenerator(x, g, d2)


def make_generator(d: DiagramHandle, kind: str, **params) -> PathGenerator:
    return PathGenerator(d, kind, params)


def parse_generator(d: DiagramHandle, spec) -> PathGenerator:
    """Generator from a spec mapping {kind, ...params}."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind is None:
        raise UnknownKindError("generator spec needs a 'kind'")
    try:
        return PathGenerator(d, kind, spec)
    except KeyError as exc:
        raise SchemaError(f"{kind} generator spec needs {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {kind} generator spec {spec}: {exc}") from None


def vertical_from(d, i):
    return make_generator(d, "vertical", vertex=i)


def leftmost_slant_from(d, i):
    return make_generator(d, "leftmost_slant", vertex=i)


def rightmost_slant_from(d, i):
    return make_generator(d, "rightmost_slant", vertex=i)


def alternating_from(d, i):
    return make_generator(d, "alternating", vertex=i)


def climbing(d, i):
    return make_generator(d, "climbing", vertex=i)


def eventually_vertical(d, prefix, i):
    return make_generator(d, "eventually_vertical", prefix=list(prefix), vertex=i)
