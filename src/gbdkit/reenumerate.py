"""Constructive relabelings that force irreducibility or break it.

The block re-enumeration interleaves labeled blocks of growing length
with unlabeled gaps along the first generator, then hands the surviving
gaps to later generators, each keeping every second surviving block.
Levels are partitioned among generators, so forced label assignments
can never collide.  The closed form: gap block r (levels r^2 ..
r^2+r-1) belongs to stage v2(r)+1 where v2 is the 2-adic valuation, and
a stage fills the first ceil(r/2) levels of each of its blocks with
labels 0, 1, 2, ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import indexing as ix
from .bijections import (
    VertexBijectionSeq,
    affine_levels,
    cone_shift,
    fill_sequence,
    relabel,
)
from .diagram import DiagramHandle
from .errors import ConflictError, IndexingMismatchError, NoBoundedSizeFlagError
from .generators import PathGenerator
from .paths import forward_layers
from .verdicts import TRIANGULAR, find_invariants


@dataclass(frozen=True)
class ForcedAssignment:
    generator: int
    level: int
    vertex: int
    label: int


@dataclass
class AssignmentLog:
    records: list = field(default_factory=list)

    def __post_init__(self):
        self._levels = {r.level for r in self.records}

    def add(self, rec: ForcedAssignment):
        if rec.level in self._levels:
            raise ConflictError(
                f"level {rec.level} already carries a forced assignment")
        self._levels.add(rec.level)
        self.records.append(rec)

    def by_generator(self, i: int) -> list:
        return [r for r in self.records if r.generator == i]

    def labels_at_levels(self, i: int) -> dict:
        return {r.level: r.label for r in self.by_generator(i)}

    def export_text(self) -> str:
        lines = ["# forced assignments: generator level vertex label"]
        for r in sorted(self.records, key=lambda r: r.level):
            lines.append(f"{r.generator} {r.level} {r.vertex} {r.label}")
        return "\n".join(lines) + "\n"


def _block_at(level: int):
    """(kind, block_index, offset) for the stage-0 block schedule.

    Labeled block n covers levels [n(n-1), n(n-1)+n-1]; gap block n
    covers [n^2, n^2+n-1].
    """
    r = math.isqrt(level)
    if level < r * r + r:
        return "gap", r, level - r * r
    return "labeled", r + 1, level - r * (r + 1)


def pin_for_level(level: int, n_generators: int) -> Optional[tuple]:
    """(generator_index, label) forced at this level, or None."""
    kind, block, offset = _block_at(level)
    if kind == "labeled":
        return 0, offset
    stage = (block & -block).bit_length()  # v2(block) + 1
    if stage >= n_generators:
        return None
    if offset < (block + 1) // 2:
        return stage, offset
    return None


def toeplitz_reenumeration(d: DiagramHandle, generators: list,
                           horizon: int = 2000):
    """Re-enumerate vertices so every supplied generator passes through
    every label infinitely often; returns (bijections, relabeled, log)."""
    k = len(generators)
    if k < 1:
        raise ValueError("need at least one generator")
    target = ix.one_sided(0)

    def pins_at(level: int) -> dict:
        pin = pin_for_level(level, k)
        if pin is None:
            return {}
        gen_i, label = pin
        return {generators[gen_i].vertex_at(level): label}

    g = fill_sequence(d.indexing, target, pins_at,
                      params={"construction": "toeplitz", "generators": k})
    log = AssignmentLog()
    for level in range(horizon + 1):
        pin = pin_for_level(level, k)
        if pin is not None:
            gen_i, label = pin
            log.add(ForcedAssignment(gen_i, level,
                                     generators[gen_i].vertex_at(level), label))
    d2 = relabel(d, g)
    return g, d2, log


def recheck_toeplitz(generators: list, g: VertexBijectionSeq, log: AssignmentLog) -> str:
    """Whether every record of `log` is a forced assignment of g: its vertex
    is its generator's trace vertex at its level, and g maps that vertex
    to its label there."""
    ok = all(r.vertex == generators[r.generator].vertex_at(r.level)
             and g.forward(r.level, r.vertex) == r.label for r in log.records)
    return f"forced labels re-read from the generator traces: {ok}"


def triangular_sequence(n: int) -> int:
    """n-th term of 0, 0,1, 0,1,2, 0,1,2,3, ..."""
    t = (math.isqrt(8 * n + 1) - 1) // 2
    return n - t * (t + 1) // 2


def dense_orbit_reenumeration(d: DiagramHandle, x: PathGenerator) -> VertexBijectionSeq:
    """Pin the generator's trace to the block-counting label sequence
    0,0,1,0,1,2,... so every label recurs infinitely often along it."""
    return fill_sequence(
        d.indexing, ix.one_sided(0),
        lambda n: {x.vertex_at(n): triangular_sequence(n)},
        params={"construction": "dense_orbit"})


def recheck_dense(x: PathGenerator, g: VertexBijectionSeq, labels) -> str:
    """Whether `labels` are x's trace pinned by `dense_orbit_reenumeration`:
    label n is `triangular_sequence(n)`, and g_n^{-1} maps it back to s(x_n)."""
    ok = all(label == triangular_sequence(n)
             and g.inverse(n, label) == x.vertex_at(n)
             for n, label in enumerate(labels))
    return f"labels follow the block-counting sequence: {ok}"


def cone_flatten(d: DiagramHandle, anchor: Optional[tuple] = None,
                 horizon: int = 64):
    """Straighten width-bounded forward cones into vertical ones.

    With a row-width bound: shift level n down by the accumulated bound,
    after which sources never lie below their targets and reachability
    only descends; the certificate is the resulting triangular-support
    invariant.  Without one, a finite forward cone from the anchor is
    flattened by per-level shifts pinned to the cone minima, verified to
    the horizon only.
    """
    if d.width is not None:
        if d.indexing.mode != ix.TWO_SIDED:
            raise IndexingMismatchError(
                "cumulative shifts need two-sided levels")
        g = cone_shift(d.width)
        d2 = relabel(d, g)
        window = d2.default_window(5, 12)
        cert = next((inv for inv in find_invariants(d2, window)
                     if inv.kind == TRIANGULAR and inv.never_ascends), None)
        if cert is None:
            raise NoBoundedSizeFlagError(
                "flattening did not produce a verified triangular support")
        return g, d2, cert

    if anchor is None:
        raise NoBoundedSizeFlagError(
            f"{d.name} carries no row-width bound and no anchor was given")
    if d.indexing.mode != ix.TWO_SIDED:
        raise IndexingMismatchError("per-level shifts need two-sided levels")
    v0, n0 = anchor
    layers = list(forward_layers(d, v0, n0, horizon))
    if len(layers) <= horizon:
        raise NoBoundedSizeFlagError(
            f"a column at level {n0 + len(layers) - 1} is not exactly known; "
            f"cannot trace the cone")
    empty = next((m for m, cone in enumerate(layers, n0) if not cone), None)
    if empty is not None:
        raise NoBoundedSizeFlagError(
            f"the forward cone of {v0}@{n0} is empty at level {empty}; "
            f"no minimum to pin")
    minima = {m: min(cone) for m, cone in enumerate(layers, n0)}

    def offset(n: int) -> int:
        if n in minima:
            return v0 - minima[n]
        return 0

    g = affine_levels(offset, d.indexing, d.indexing,
                      params={"construction": "cone_flatten_anchor",
                              "anchor": [v0, n0], "horizon": horizon})
    d2 = relabel(d, g)
    cert = {"kind": "anchored_floor",
            "anchor": {"vertex": v0, "level": n0},
            "statement": f"relabeled reach from {v0}@{n0} stays >= {v0}",
            "verified_levels": [n0 + 1, n0 + horizon],
            "structural_assumptions": ["cone behavior beyond the horizon"]}
    return g, d2, cert
