"""The exact triangle on cohomology, rank by rank.

With the chain maps verified (``les_check`` consumes the ``verify_ses``
report), the three truncated cohomologies fit into a long exact sequence.  The connecting map is never constructed: its rank is
forced by exactness at one node and must match the kernel of A one degree
up, which is exactly what the checker confirms.
"""

from latcoh import (default_region, les_check, parse_graph, triangle_context,
                    verify_ses)

for path, v in [("demos/data/rp3.graph", "a"),
                ("demos/data/chain22.graph", "a"),
                ("demos/data/chain22.graph", "b"),
                ("demos/data/star232.graph", "b")]:
    g = parse_graph(open(path).read())
    ctx = triangle_context(g, v)
    rep = les_check(ctx, 3, verify_ses(ctx, default_region(ctx, 3)))
    print("=== %s, vertex %s ===" % (path.split("/")[-1], v))
    print("  raised graph: %s  deleted graph: %s"
          % (ctx.plus.weights, ctx.minus.weights))
    for row in rep.rows:
        print("  degree %d: dims (plus, G, minus) = (%d, %d, %d), "
              "rank A* = %d, rank B* = %d, inferred connecting rank = %d"
              % (row["degree"], row["dim_plus"], row["dim_g"],
                 row["dim_minus"], row["rank_A"], row["rank_B"],
                 row["rank_connecting"]))
    print("  exact:", rep.exact)
    print()
