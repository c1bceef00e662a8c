"""Plumbing graphs, intersection forms, and the weighted cube complex.

A weighted graph determines a symmetric bilinear form; characteristic
vectors for that form carry a quadratic weight, and cubes in the lattice
carry the max weight of their corners.  Everything downstream (the
differential, the cohomology, the surgery triangle) is built from these
integers, so this walk-through prints them for the smallest examples.
"""

from latcoh import (Chain, Region, absolute_q, class_cells, cube_weights,
                    delta, determinant, intersection_matrix,
                    is_negative_definite, make_graph, parse_graph,
                    relative_weight, spinc_representatives)
from latcoh.lattice import cofaces, lattice_point, pack, split_key, unpack

print("=== a single -2 vertex (boundary: RP^3) ===")
g = parse_graph("plumbing v1\nvertex a -2\n")
print("intersection matrix:", intersection_matrix(g))
print("determinant:", determinant(g))
print("negative definite:", is_negative_definite(g))

print("\nspin-c classes are characteristic vectors modulo twice the lattice:")
for cls in spinc_representatives(g):
    print("  class %d: representative %s" % (cls.index, cls.base))

print("\nrelative weights w(x) = q(base + 2Mx) - q(base) along each class:")
for base in ((0,), (2,)):
    row = [relative_weight(g, base, (x,)) for x in range(-3, 4)]
    print("  base %s: %s  (x = -3..3)" % (base, row))
print("absolute weight of K = (2,):", absolute_q(g, (2,)))

print("\ncubes: a pair (x, S) spans the offsets x + 1_T, T inside S, and each")
print("offset x stands for the characteristic vector K = base + 2Mx.  Inside")
print("the kernel the cube is one int, its cube key: x packed in 16-bit")
print("fields, shifted left by n, or S:")
weight = cube_weights(g, (0,))
corners = [(0,), (1,)]
print("  corners of ((0,), {a}) in class (0,):", corners, "-> K =",
      [lattice_point(g, (0,), x) for x in corners])
edge = pack((0,)) << g.n | 1
print("  key: %#x" % edge)
print("  weight:", weight(edge), " (max of corner weights 0, 1)")
print("  cofaces of the point ((0,), {}), with their weight gaps:")
for key, gap in cofaces(weight, pack((0,)) << g.n, g.n):
    print("    (%s, %d) gap %d" % (split_key(key, g.n) + (gap,)))

print("\nthe coboundary on dual generators, in the window spanned by the cubes")
print("of weight at most 3:")
bank = class_cells(g, (0,), 3)
corners = [unpack(x, g.n) for x in bank.points]
lo = tuple(map(min, zip(*corners)))
hi = tuple(map(max, zip(*corners)))
region = Region(g, (0,), lo, hi, 3)
print("  region:", region.to_json())
for m in (0, 1):
    img = delta(Chain.dual((0,), 0, m), region)
    print("  delta(U^-%d ((0,), {})^v) has %d terms: %s"
          % (m, len(img.terms), sorted(img.terms)))
print("  (at U-power 0 both cofaces cost one U, so the image vanishes)")

print("\n=== a two-vertex chain ===")
g2 = make_graph(([("a", -2), ("b", -2)], [("a", "b")]))
print("matrix:", intersection_matrix(g2), " determinant:", determinant(g2))
print("classes:", [c.base for c in spinc_representatives(g2)])
print("the point ((0,0), {}) of class (0, 0) has cofaces:")
for key, gap in cofaces(cube_weights(g2, (0, 0)), pack((0, 0)) << g2.n,
                        g2.n):
    print("    (%s, %d) gap %d" % (split_key(key, g2.n) + (gap,)))
