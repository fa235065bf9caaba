"""Constructive relabelings: forcing irreducibility and breaking it.

The block re-enumeration interleaves labeled blocks of growing length
with gaps along the first generator (0*01**012***...), then hands the
surviving gaps to the later generators, each keeping every second
block.  Every supplied path then passes through every label infinitely
often, which makes the relabeled diagram irreducible along those paths.
Cone flattening is the inverse move: shifting levels by the accumulated
width bound makes reachability one-directional.
"""

from gbdkit import (
    alternating_from,
    cone_flatten,
    dense_orbit_reenumeration,
    irreducible_probe,
    make_diagram,
    toeplitz_reenumeration,
    vertical_from,
)

td = make_diagram("tridiag_B")
gens = [vertical_from(td, 0), vertical_from(td, 1), alternating_from(td, 0)]
g, d2, log = toeplitz_reenumeration(td, gens, horizon=120)

print("forced assignments up to level 20 (generator, level, vertex, label):")
for r in sorted(log.records, key=lambda r: r.level):
    if r.level <= 20:
        print(f"  x^{r.generator} at level {r.level:>2}: "
              f"vertex {r.vertex:>3} -> label {r.label}")

print("\nrelabeled trace of x^0 (hits every label again and again):")
print(" ", [g.forward(l, gens[0].vertex_at(l)) for l in range(20)])

print("\ndense-orbit pinning uses the block-counting sequence:")
gd = dense_orbit_reenumeration(td, gens[0])
print(" ", [gd.forward(n, gens[0].vertex_at(n)) for n in range(15)])

print("\ncone flattening of the 1/2/1 band:")
gf, flat, cert = cone_flatten(td)
print("  row of vertex 0 after flattening:", list(flat.in_edges(0, 0)))
print("  certificate:", cert.kind, cert.params,
      "| globally backed:", cert.is_global)
print("  0 -> 1 in the flattened diagram:",
      irreducible_probe(flat, 0, 1, 0, 10).value)
print("  1 -> 0 in the flattened diagram:",
      irreducible_probe(flat, 1, 0, 0, 10).value)
print("  (the original band is irreducible; its flattening is not:"
      " relabeling does not preserve irreducibility)")
