"""Seeded randomized verification suites.

Shared between the command-line ``verify`` command and the test suite: each
suite draws a deterministic corpus of graphs from a seed, exercises one
family of identities with exact arithmetic, and reports a counterexample
certificate for any failure.  Identical seeds give identical reports.
"""

import itertools
import random
from dataclasses import dataclass, field

from . import lattice, triangle
from .graph import (DegenerateFormError, PlumbingGraph, characteristic_base,
                    determinant, make_graph, spinc_representatives)
from .lattice import Chain, Region


def graph_spec(graph: PlumbingGraph):
    return {"vertices": [[v, w] for v, w in zip(graph.vertices, graph.weights)],
            "edges": [[graph.vertices[i], graph.vertices[j], s]
                      for i, j, s in graph.edges]}


def random_graph(rng: random.Random, max_vertices=5, weights=(-5, 1),
                 extra_edge=0.25) -> PlumbingGraph:
    """A random weighted tree, sometimes with one extra (multi)edge."""
    n = rng.randint(1, max_vertices)
    ids = ["v%d" % i for i in range(n)]
    vspec = [(vid, rng.randint(*weights)) for vid in ids]
    edges = []
    for i in range(1, n):
        edges.append((ids[i], ids[rng.randrange(i)], rng.choice((1, -1))))
    if n >= 2 and rng.random() < extra_edge:
        i = rng.randrange(1, n)
        edges.append((ids[i], ids[rng.randrange(i)], rng.choice((1, -1))))
    return make_graph((vspec, edges))


def random_graph_with_classes(rng, max_vertices=5, det_cap=16,
                              weights=(-5, 1)) -> PlumbingGraph:
    """Redraw until the determinant is nonzero and small enough that
    enumerating every spin-c class stays cheap."""
    while True:
        g = random_graph(rng, max_vertices, weights)
        if 1 <= abs(determinant(g)) <= det_cap:
            return g


@dataclass
class SuiteResult:
    name: str
    graphs: int
    checked: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "graphs": self.graphs,
                "checked": self.checked, "passed": self.passed,
                "failures": self.failures[:10]}


def suite_delta_squared(seed: int, graphs: int = 20,
                        mcap: int = 5) -> SuiteResult:
    """delta applied twice must vanish on every interior dual, over every
    spin-c class; weight monotonicity is asserted on the same windows."""
    rng = random.Random(seed)
    res = SuiteResult("delta-squared", graphs, 0)
    for gi in range(graphs):
        g = random_graph(rng, 5)
        try:
            bases = [c.base for c in spinc_representatives(g)]
            if len(bases) > 16:
                bases = bases[:16]
        except DegenerateFormError:
            bases = [characteristic_base(g)]
        n = g.n
        for base in bases:
            # The spot {0,1}^n is checked through the window's memo.
            region = Region(g, base, (-1,) * n, (1,) * n, mcap)
            spot = map(lattice.pack, itertools.product((0, 1), repeat=n))
            if not lattice.weight_monotonicity_check(region, spot):
                res.failures.append({"check": "monotonicity",
                                     "graph": graph_spec(g), "base": list(base)})
                continue
            res.checked += (1 << n) * (mcap + 1)
            for k, s, m, check in lattice.delta_squared_failures(
                    region, [region.point(lattice.pack((1,) * n))],
                    range(mcap + 1)):
                res.failures.append({"check": check, "graph": graph_spec(g),
                                     "base": list(base),
                                     "element": [list(k), s, m]})
    return res


def _context_corpus(rng, graphs, max_vertices=3):
    out = []
    for _ in range(graphs):
        g = random_graph_with_classes(rng, max_vertices, det_cap=24,
                                      weights=(-4, -1))
        v = g.vertices[rng.randrange(g.n)]
        out.append(triangle.triangle_context(g, v))
    return out


def suite_chain_maps(seed: int, graphs: int = 8, mcap: int = 3,
                     target: int = 2000) -> SuiteResult:
    """A and B commute with the coboundaries on interior duals."""
    rng = random.Random(seed)
    res = SuiteResult("chain-maps", graphs, 0)
    for ctx in _context_corpus(rng, graphs):
        region = triangle.default_region(ctx, mcap)
        slo, shi = region.t_middle
        ys = triangle._interior_y(region)
        rng.shuffle(ys)
        for which, k, smask, m, ok in triangle.chain_map_trials(
                ctx, region, ys[:3], range(slo, shi + 1, 2)):
            res.checked += 1
            if not ok:
                res.failures.append({"check": "chain-map-" + which,
                                     "graph": graph_spec(ctx.graph),
                                     "vertex": ctx.v,
                                     "element": [list(k), smask, m]})
            if res.checked >= target:
                return res
    return res


def suite_c_formula(seed: int, graphs: int = 20, i_range: int = 8) -> SuiteResult:
    """The closed case analysis of the exponent must agree with its
    definition for every i, every S, and a sample of vectors spanning at
    least three distinct corner gaps."""
    rng = random.Random(seed)
    res = SuiteResult("c-formula", graphs, 0)
    for _ in range(graphs):
        g = random_graph_with_classes(rng, 4, det_cap=40)
        v = g.vertices[rng.randrange(g.n)]
        ctx = triangle.triangle_context(g, v)
        vi = ctx.v_index
        base = characteristic_base(g)
        full = (1 << g.n) - 1
        seen_r = set()
        draws = []
        for _ in range(4):
            k = list(base)
            for j in range(g.n):
                k[j] += 2 * rng.randint(-2, 2)
            draws.append(tuple(k))
        # Shifting t walks the corner gap by one, guaranteeing the sample
        # spans at least three distinct r-values.
        draws += [tuple(x + (2 * j if i == vi else 0)
                        for i, x in enumerate(draws[0])) for j in (1, 2)]
        i_values = range(-i_range, i_range + 1)
        for k in draws:
            seen_r.add(triangle.r_value(ctx, k, 1 << vi))
            # One r per S and one table of definitions per i, each read
            # for every (S, i) below.
            rs = [triangle.r_value(ctx, k, smask) if smask >> vi & 1
                  else None for smask in range(full + 1)]
            defs = [triangle.c_exponent_defs(ctx, i, k) for i in i_values]
            for smask in range(full + 1):
                for i, table in zip(i_values, defs):
                    res.checked += 1
                    a = table[smask]
                    b = triangle.c_cases(i, rs[smask])
                    if a != b or a < 0:
                        res.failures.append(
                            {"check": "c-def-vs-closed",
                             "graph": graph_spec(g), "vertex": v,
                             "k": list(k), "S": smask, "i": i,
                             "def": a, "closed": b})
        if len(seen_r) < 3:
            res.failures.append({"check": "r-spread", "graph": graph_spec(g),
                                 "vertex": v, "r_values": sorted(seen_r)})
    return res


def suite_kernel(seed: int, graphs: int = 8, mcap: int = 3,
                 chains: int = 40) -> SuiteResult:
    """The kernel description of B: random chains lie in D exactly when B
    kills them, B A = 0, and A never kills a nonzero chain."""
    rng = random.Random(seed)
    res = SuiteResult("kernel-membership", graphs, 0)
    for ctx in _context_corpus(rng, graphs):
        region = triangle.default_region(ctx, mcap)
        slo, shi = region.t_middle
        ys = triangle._interior_y(region)
        full = (1 << ctx.graph.n) - 1
        pool = []
        for y in ys[: min(4, len(ys))]:
            for smask in range(full + 1):
                for s_off in range(slo, shi + 1):
                    pool.append((y, smask, s_off))
        for _ in range(chains):
            terms = set()
            for _ in range(rng.randint(1, 5)):
                y, smask, s_off = pool[rng.randrange(len(pool))]
                kg = triangle._g_vector(ctx, y, s_off)
                terms.add((kg, smask, rng.randint(0, mcap)))
            e = Chain(frozenset(terms))
            res.checked += 1
            in_d = triangle.is_in_D(ctx, e)
            killed = not triangle.map_B(ctx, e, None)
            if in_d != killed:
                res.failures.append({"check": "d-vs-kerB",
                                     "graph": graph_spec(ctx.graph),
                                     "vertex": ctx.v,
                                     "terms": [[list(k), s, m] for k, s, m in sorted(terms)]})
            # A injectivity and B A = 0 on a random G+ dual.
            y, smask, s_off = pool[rng.randrange(len(pool))]
            kp = ctx.to_plus(triangle._g_vector(ctx, y, s_off))
            ep = Chain.dual(kp, smask, rng.randint(0, mcap))
            img = triangle.map_A(ctx, ep, region)
            res.checked += 1
            if img.escaped:
                continue
            if not img:
                res.failures.append({"check": "a-injective",
                                     "graph": graph_spec(ctx.graph),
                                     "vertex": ctx.v,
                                     "terms": [[list(k), s, m] for k, s, m in sorted(ep.terms)]})
            if triangle.map_B(ctx, img, None):
                res.failures.append({"check": "ba-zero",
                                     "graph": graph_spec(ctx.graph),
                                     "vertex": ctx.v,
                                     "terms": [[list(k), s, m] for k, s, m in sorted(ep.terms)]})
    return res


def run_all(seed: int, graphs: int = 12) -> dict:
    suites = [
        suite_delta_squared(seed, max(4, graphs // 2), mcap=4),
        suite_chain_maps(seed + 1, max(3, graphs // 3)),
        suite_c_formula(seed + 2, graphs),
        suite_kernel(seed + 3, max(3, graphs // 3)),
    ]
    return {"seed": seed, "graphs": graphs,
            "suites": [s.to_json() for s in suites],
            "passed": all(s.passed for s in suites)}
