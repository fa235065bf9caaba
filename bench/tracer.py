"""Span tracing over gbdkit's public callables, for the traced run.

install() replaces each traced function at every place a gbdkit module
imported it, and each traced method on its class, with a timing wrapper.
A span records its name, start, end, parent span and query id.  Spans
stay in memory until write(); self time (a span's duration minus the
time its child spans cover) and the work counts are kept as spans close.
"""

from __future__ import annotations

import gzip
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) for module-level functions
FUNCTIONS = {
    "paths.count_paths": ("gbdkit.paths", "count_paths"),
    "paths.enumerate_paths": ("gbdkit.paths", "enumerate_paths"),
    "probes.irreducible_probe": ("gbdkit.probes", "irreducible_probe"),
    "verdicts.find_invariants": ("gbdkit.verdicts", "find_invariants"),
    "dynamics.orbit_visits_cylinder": ("gbdkit.dynamics", "orbit_visits_cylinder"),
    "dynamics.transitivity_probe": ("gbdkit.dynamics", "transitivity_probe"),
    "bijections.relabel": ("gbdkit.bijections", "relabel"),
    "iso.iso_search": ("gbdkit.iso", "iso_search"),
    "iso.verify_permutation_identity": ("gbdkit.iso", "verify_permutation_identity"),
    "reenumerate.toeplitz": ("gbdkit.reenumerate", "toeplitz_reenumeration"),
    "specfmt.load_spec_file": ("gbdkit.specfmt", "load_spec_file"),
    "report.probe_report": ("gbdkit.report", "probe_report"),
}

# span name -> (module, class, method)
METHODS = {
    "diagram.in_edges": ("gbdkit.diagram", "DiagramHandle", "in_edges"),
    "diagram.handle_init": ("gbdkit.diagram", "DiagramHandle", "__init__"),
    "bijections.forward": ("gbdkit.bijections", "VertexBijectionSeq", "forward"),
    "bijections.inverse": ("gbdkit.bijections", "VertexBijectionSeq", "inverse"),
    "generators.vertex_at": ("gbdkit.generators", "PathGenerator", "vertex_at"),
    "generators.eventual": ("gbdkit.generators", "PathGenerator", "eventual"),
}

# (child span, ancestor span): children opened while an ancestor is open
NESTED = (
    ("diagram.in_edges", "paths.count_paths"),
    ("paths.count_paths", "probes.irreducible_probe"),
    ("paths.count_paths", "dynamics.orbit_visits_cylinder"),
)


class Tracer:
    def __init__(self):
        self.names = list(FUNCTIONS) + list(METHODS)
        self._id = {name: i for i, name in enumerate(self.names)}
        self.on = False
        self.qid = -1
        self.tier = ""
        # spans, one entry per array
        self.s_name = array("i")
        self.s_parent = array("q")
        self.s_qid = array("q")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list = []          # [span index, seconds covered by children]
        self._active = [0] * len(self.names)
        self.calls: Counter = Counter()  # (tier, span name) -> calls
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.nested: Counter = Counter()
        self._nested_by_child = {}
        for child, ancestor in NESTED:
            self._nested_by_child.setdefault(self._id[child], []).append(
                (child, self._id[ancestor], ancestor))
        # row-cache model: the first sight of (handle, level key, v) is a miss
        self._serial = weakref.WeakKeyDictionary()   # handle -> serial number
        self._handles = 0
        self._seen: set = set()
        self.row_misses = 0
        self.iso_nodes = 0
        self._patches: list = []

    # -- spans ------------------------------------------------------------

    def _enter(self, nid: int):
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1][0] if self._stack else -1)
        self.s_qid.append(self.qid)
        self.s_end.append(0.0)
        self.calls[self.tier, self.names[nid]] += 1
        for child, aid, ancestor in self._nested_by_child.get(nid, ()):
            if self._active[aid]:
                self.nested[child, ancestor] += 1
        self._active[nid] += 1
        self._stack.append([idx, 0.0])
        self.s_start.append(perf_counter())

    def _exit(self):
        end = perf_counter()
        idx, covered = self._stack.pop()
        self.s_end[idx] = end
        dur = end - self.s_start[idx]
        nid = self.s_name[idx]
        self.self_s[nid] += dur - covered
        self.total_s[nid] += dur
        self._active[nid] -= 1
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name, fn, before=None, after=None):
        nid = self._id[name]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _row_sight(self, args):
        d, n, v = args[0], args[1], args[2]
        serial = self._serial.get(d)
        if serial is None:
            serial = self._serial[d] = self._handles
            self._handles += 1
        key = (serial, 0 if d.stationary else n, v)
        if key not in self._seen:
            self._seen.add(key)
            self.row_misses += 1

    def _iso_result(self, result):
        self.iso_nodes += result.nodes_explored

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced callable; tracing starts switched off."""
        hooks = {"diagram.in_edges": (self._row_sight, None),
                 "iso.iso_search": (None, self._iso_result)}
        modules = [m for name, m in sys.modules.items()
                   if name == "gbdkit" or name.startswith("gbdkit.")]
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, (modname, clsname, attr) in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr,
                    self._wrap(name, original, *hooks.get(name, (None, None))))

    def uninstall(self):
        self.on = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def work_counts(self) -> dict:
        """{tier: {span name: calls}}: must repeat exactly at a fixed seed."""
        out: dict = {}
        for (tier, name), n in sorted(self.calls.items()):
            out.setdefault(tier, {})[name] = n
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics over everything traced: name -> (value, unit)."""
        def calls(name):
            return sum(n for (_, span), n in self.calls.items() if span == name)

        def self_ms(name):
            return self.self_s[self._id[name]] * 1000

        def ratio(num, den):
            return num / den if den else 0.0

        in_edges = calls("diagram.in_edges")
        counts = calls("paths.count_paths")
        iso_us = self.total_s[self._id["iso.iso_search"]] * 1e6
        return {
            "diagram.in_edges.calls": (in_edges, "count"),
            "diagram.in_edges.self_ms": (self_ms("diagram.in_edges"), "ms"),
            "diagram.row_cache.hit_ratio":
                (ratio(in_edges - self.row_misses, in_edges), "ratio"),
            "diagram.handle_init.calls": (calls("diagram.handle_init"), "count"),
            "diagram.handle_init.self_ms": (self_ms("diagram.handle_init"), "ms"),
            "paths.count_paths.calls": (counts, "count"),
            "paths.count_paths.self_ms": (self_ms("paths.count_paths"), "ms"),
            "paths.rows_per_count": (ratio(
                self.nested["diagram.in_edges", "paths.count_paths"], counts),
                "rows/call"),
            "paths.enumerate_paths.calls": (calls("paths.enumerate_paths"), "count"),
            "paths.enumerate_paths.self_ms": (self_ms("paths.enumerate_paths"), "ms"),
            "probes.irreducible_probe.self_ms":
                (self_ms("probes.irreducible_probe"), "ms"),
            "probes.counts_per_verdict": (ratio(
                self.nested["paths.count_paths", "probes.irreducible_probe"],
                calls("probes.irreducible_probe")), "calls/call"),
            "verdicts.find_invariants.calls":
                (calls("verdicts.find_invariants"), "count"),
            "verdicts.find_invariants.self_ms":
                (self_ms("verdicts.find_invariants"), "ms"),
            "dynamics.orbit_visits_cylinder.calls":
                (calls("dynamics.orbit_visits_cylinder"), "count"),
            "dynamics.orbit_visits_cylinder.self_ms":
                (self_ms("dynamics.orbit_visits_cylinder"), "ms"),
            "dynamics.counts_per_visit": (ratio(
                self.nested["paths.count_paths", "dynamics.orbit_visits_cylinder"],
                calls("dynamics.orbit_visits_cylinder")), "calls/call"),
            "dynamics.transitivity_probe.self_ms":
                (self_ms("dynamics.transitivity_probe"), "ms"),
            "generators.vertex_at.calls": (calls("generators.vertex_at"), "count"),
            "generators.eventual.self_ms": (self_ms("generators.eventual"), "ms"),
            "bijections.relabel.self_ms": (self_ms("bijections.relabel"), "ms"),
            "bijections.map_calls": (calls("bijections.forward")
                                     + calls("bijections.inverse"), "count"),
            "bijections.map_self_ms": (self_ms("bijections.forward")
                                       + self_ms("bijections.inverse"), "ms"),
            "iso.iso_search.self_ms": (self_ms("iso.iso_search"), "ms"),
            "iso.nodes_explored": (self.iso_nodes, "count"),
            "iso.us_per_node": (ratio(iso_us, self.iso_nodes), "us"),
            "iso.verify_permutation_identity.self_ms":
                (self_ms("iso.verify_permutation_identity"), "ms"),
            "reenumerate.toeplitz.self_ms": (self_ms("reenumerate.toeplitz"), "ms"),
            "specfmt.load_spec_file.self_ms": (self_ms("specfmt.load_spec_file"), "ms"),
            "report.probe_report.self_ms": (self_ms("report.probe_report"), "ms"),
        }

    def write(self, path):
        """All spans, one CSV line each, gzip-compressed."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,parent,query,name,start_s,end_s\n")
            for i in range(len(self.s_name)):
                fh.write(f"{i},{self.s_parent[i]},{self.s_qid[i]},"
                         f"{names[self.s_name[i]]},{self.s_start[i]:.7f},"
                         f"{self.s_end[i]:.7f}\n")
