"""Build the catalog diagrams and look at windowed slices of them.

A generalized Bratteli diagram has countably infinite vertex levels, so
a handle never materializes a matrix: it evaluates incidence rows on
demand.  Windows truncate levels for display and probing.
"""

from gbdkit import catalog_names, make_diagram, render_dot
from gbdkit.windows import LevelWindow


def show(title, lines):
    print(f"\n=== {title} ===")
    for line in lines:
        print(" ", line)


print("catalog families:", ", ".join(catalog_names()))

rs = make_diagram("renewal_shift")
show("renewal shift: rows are exact and finite", [
    f"in_edges(level 0, vertex 1) = {list(rs.in_edges(0, 1))}",
    f"in_edges(level 0, vertex 5) = {list(rs.in_edges(0, 5))}",
    "columns may be infinite, so out-edges are windowed:",
    f"out of vertex 1 within [1,6]: {rs.out_edges_in_window(0, 1, (1, 6))}",
])

td = make_diagram("tridiag_B")
mat = td.incidence_window(0, (-2, 2), (-2, 2))
show("two-sided 1/2/1 band, window [-2,2]^2",
     [str(row) for row in mat])

bi = make_diagram("b_infinity")
show("lower-triangular all-ones", [
    f"row of vertex 4: {list(bi.in_edges(0, 4))}",
    f"flags: {[type(f).__name__ for f in bi.flags]}",
])

show("structural flags are spot-verified at construction", [
    f"tridiag_B flags: {[type(f).__name__ for f in td.flags]}",
    f"renewal flags:   {[type(f).__name__ for f in rs.flags]}",
])

print("\n=== DOT truncation of the renewal shift (levels 0..2, vertices 1..5) ===")
print(render_dot(rs, 2, LevelWindow({n: (1, 5) for n in range(3)})))
