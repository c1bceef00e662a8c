"""Computing lattice cohomology as a graded GF(2)[U]-module.

The cochain complex of one spin-c class splits into finite pieces by cube
degree and by the grading 2m + 2(w - wmin); each piece is exact linear
algebra over GF(2).  Towers (truncated free summands) and U-torsion pieces
are the bars of one reduction of the coboundary in sublevel-filtration
order, and an answer is only marked stable when its cells provably hold
the whole sublevel set up to the U cap.
"""

import time

from latcoh import (ComplexHomology, GradedGF2Complex, class_cells,
                    module_presentation, parse_graph, spinc_representatives,
                    stabilize)

for name, path, mcap in [("S^3 (vertex -1)", "demos/data/s3.graph", 3),
                         ("RP^3 (vertex -2)", "demos/data/rp3.graph", 3),
                         ("lens space chain(-2,-2)", "demos/data/chain22.graph", 3)]:
    g = parse_graph(open(path).read())
    print("=== %s ===" % name)
    for cls in spinc_representatives(g):
        pres = stabilize(g, cls, mcap)
        mods = {deg: (mod.towers, mod.torsions)
                for deg, mod in pres.degrees.items()}
        print("  class %d: %s  stabilized=%s"
              % (cls.index, mods, pres.stabilized))
    print()

print("=== the E8 tree (Poincare sphere) ===")
g = parse_graph(open("demos/data/e8.graph").read())
cls = spinc_representatives(g)[0]
t0 = time.time()
pres = stabilize(g, cls, 2)
print("  one class; degrees:", {d: (m.towers, m.torsions)
                                for d, m in pres.degrees.items()})
print("  stabilized=%s in %.1fs" % (pres.stabilized, time.time() - t0))
print("  (one tower, nothing in higher degrees: an L-space)")

print("\n=== under the hood: graded pieces of the RP^3 complex ===")
g = parse_graph(open("demos/data/rp3.graph").read())
bank = class_cells(g, (0,), 3)
cx = GradedGF2Complex(bank, 3)
hom = ComplexHomology(cx)
print("  chain dims per (degree, grading):",
      {pg: cx.dim(*pg) for pg in cx.pieces()})
print("  homology dims:", dict(sorted(hom.dims.items())))
print("  presentation:", module_presentation(bank))
