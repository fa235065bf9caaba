"""Deterministic DOT rendering of windowed diagram truncations."""

from __future__ import annotations

from .diagram import DiagramHandle
from .windows import LevelWindow, clamped_interval


def _node_id(n: int, v: int) -> str:
    tag = f"m{-v}" if v < 0 else str(v)
    return f"L{n}_{tag}"


def render_dot(d: DiagramHandle, levels: int, window: LevelWindow) -> str:
    """One node per (level, vertex) of the window on levels <= levels, one
    edge per multiplicity unit; byte-identical across runs.
    EmptyWindowError when a level's interval holds no vertex."""
    lines = ["digraph diagram {", "  rankdir=TB;", "  node [shape=circle];"]
    lvls = [n for n in window.levels if n <= levels]
    for n in lvls:
        lo, hi = clamped_interval(d.indexing, window.interval(n))
        names = [f'"{_node_id(n, v)}" [label="{v}"];' for v in range(lo, hi + 1)]
        lines.append("  { rank=same; " + " ".join(names) + " }")
    for n in lvls:
        if n + 1 not in lvls:
            continue
        clo, chi = clamped_interval(d.indexing, window.interval(n))
        for v, row in d.window_rows(n, *window.interval(n + 1)).items():
            for w, mult in row:
                if not clo <= w <= chi:
                    continue
                for _ in range(mult):
                    lines.append(
                        f'  "{_node_id(n, w)}" -> "{_node_id(n + 1, v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
