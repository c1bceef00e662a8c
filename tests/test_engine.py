import contextlib
import gc
import random
import weakref
from pathlib import Path

import pytest

from latcoh import (ComplexHomology, InvariantError, NonStabilizingError,
                    Region, class_cells, default_region, faults, gf2,
                    is_negative_definite, les_check, make_graph,
                    module_presentation, parse_graph, spinc_representatives,
                    stabilize, triangle_context, truncation_region, verify_ses)
from latcoh.engine import DegreeModule, GradedGF2Complex, _presentation_data
from latcoh.lattice import lattice_point, pack, unpack

from conftest import chain, e8, grown, reference_cube_weight, vertex

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


# --- complexes --------------------------------------------------------------

def test_delta_column_sparsity():
    g = chain(-2, -2, -3)
    cx = GradedGF2Complex(class_cells(g, tuple(g.weights), 2), 2)
    for deg, grade in cx.pieces():
        for col in cx.delta_matrix(deg, grade):
            # At most two cofaces per direction not already spanned.
            assert bin(col).count("1") <= 2 * (3 - deg)


def test_delta_squared_as_matrix_product_on_e8():
    region = truncation_region(e8(), tuple([-2] * 8), 1)
    cx = GradedGF2Complex(class_cells(e8(), tuple([-2] * 8), 1, box=region), 1)
    for deg, grade in cx.pieces():
        first = cx.delta_matrix(deg, grade)
        second = cx.delta_matrix(deg + 1, grade)
        assert all(v == 0 for v in gf2.matmul(second, first))


def test_zero_differential_toy():
    # Steep weights drive every coboundary gap above the U cap, so the
    # differential vanishes and homology equals the chain space.
    g = vertex(-4)
    bank = class_cells(g, (0,), 0)
    cx = GradedGF2Complex(bank, 0)
    hom = ComplexHomology(cx)
    for pg in cx.pieces():
        assert all(v == 0 for v in cx.delta_matrix(*pg))
        assert hom.dims.get(pg, 0) == cx.dim(*pg)


def test_homology_single_vertex_minus_one(s3):
    # Hand-checked: one U-chain of length 4 in degree 0, nothing above.
    bank = class_cells(s3, (-1,), 3, box=truncation_region(s3, (-1,), 3))
    hom = ComplexHomology(GradedGF2Complex(bank, 3))
    assert hom.dims == {(0, 0): 1, (0, 2): 1, (0, 4): 1, (0, 6): 1}
    pres = module_presentation(bank)
    assert pres == {0: DegreeModule(towers=(0,), torsions=())}


def test_homology_rp3_second_class(rp3):
    bank = class_cells(rp3, (2,), 3, box=truncation_region(rp3, (2,), 3))
    pres = module_presentation(bank)
    assert pres == {0: DegreeModule(towers=(0,), torsions=())}


def _expanded(degrees, mcap):
    """Graded dims of a presentation, towers cut at grading 2 mcap."""
    out = {}
    for deg, mod in degrees.items():
        for bottom in mod.towers:
            for k in range(bottom, 2 * mcap + 1, 2):
                out[(deg, k)] = out.get((deg, k), 0) + 1
        for bottom, length in mod.torsions:
            for k in range(bottom, bottom + 2 * length, 2):
                out[(deg, k)] = out.get((deg, k), 0) + 1
    return out


def test_module_presentation_round_trip(s3, rp3):
    # Expanding the interval presentation reproduces the graded dims.
    for g, base in ((s3, (-1,)), (rp3, (0,)), (rp3, (2,))):
        bank = class_cells(g, base, 3, box=truncation_region(g, base, 3))
        hom = ComplexHomology(GradedGF2Complex(bank, 3))
        pres = module_presentation(bank)
        assert _expanded(pres, 3) == hom.dims


def test_class_cells_sublevel_is_exact(rp3):
    bank = class_cells(rp3, (0,), 3)
    # Points are precisely the sublevel set of the weight cap.
    assert [unpack(x, 1) for x in sorted(bank.points)] == [(-1,), (0,), (1,)]
    # A point maps to its weight; its vector is read through lattice_point.
    assert bank.points[pack((1,))] == 1
    assert lattice_point(rp3, bank.base, (1,)) == (-4,)
    assert bank.complete_to == 3
    assert bank.wmin == 0


def test_stabilize_known_cases(s3):
    pres = stabilize(s3, spinc_representatives(s3)[0], 3)
    assert pres.stabilized
    assert pres.degrees == {0: DegreeModule(towers=(0,), torsions=())}

    g = chain(-2, -2)
    for cls in spinc_representatives(g):
        pres = stabilize(g, cls, 3)
        assert pres.stabilized
        assert pres.degrees == {0: DegreeModule(towers=(0,), torsions=())}


def test_stabilize_degenerate_is_flagged():
    # No stabilization theorem covers degenerate forms: the answer is
    # computed on the given bounds but never claimed stable.
    g = vertex(0)
    bounds = Region(g, (0,), (-3,), (3,), 2)
    pres = stabilize(g, (0,), 2, bounds=bounds)
    assert not pres.stabilized


def test_stabilize_relabel_invariance():
    a = chain(-2, -3)
    b = chain(-3, -2)

    def signature(graph):
        out = []
        for cls in spinc_representatives(graph):
            pres = stabilize(graph, cls, 3)
            out.append(tuple(sorted(pres.degrees.items())))
        return sorted(out)

    assert signature(a) == signature(b)


def test_presentation_json_schema(s3):
    pres = stabilize(s3, spinc_representatives(s3)[0], 3)
    records = pres.to_json()
    assert len(records) == 1
    rec = records[0]
    assert set(rec) == {"graph_hash", "class_index", "degree", "towers",
                        "torsions", "stabilized", "region"}
    assert rec["towers"] == [{"bottom": 0}]
    assert rec["region"]["mcap"] == 3


# --- the long exact sequence ------------------------------------------------

def test_les_single_vertex(rp3):
    ctx = triangle_context(rp3, "a")
    rep = les_check(ctx, 3, verify_ses(ctx, default_region(ctx, 3)))
    assert rep.exact
    row = rep.rows[0]
    assert row["dim_plus"] == 4 and row["dim_g"] == 8 and row["dim_minus"] == 4
    assert row["rank_A"] == 4 and row["rank_B"] == 4


def test_les_chain_both_vertices():
    g = chain(-2, -2)
    for v in g.vertices:
        ctx = triangle_context(g, v)
        rep = les_check(ctx, 3, verify_ses(ctx, default_region(ctx, 3)))
        assert rep.exact, rep.to_json()


def test_les_rejects_indefinite():
    g = vertex(1)
    ctx = triangle_context(g, "a")
    ses = verify_ses(ctx, default_region(ctx, 2))
    with pytest.raises(NonStabilizingError):
        les_check(ctx, 2, ses)


def test_les_mutation_fails():
    ctx = triangle_context(chain(-2, -2), "v0")
    with faults.injected("c-always-first-case"):
        try:
            rep = les_check(ctx, 3, verify_ses(ctx, default_region(ctx, 3)))
            failed = not rep.exact
        except Exception:
            failed = True
    assert failed


@pytest.mark.parametrize("fault", ("c-always-first-case", "c-drop-quadratic",
                                   "b-parity-skip"))
def test_les_carries_the_chain_map_verdict(fault):
    # Under the two exponent faults the ranks on homology still look exact;
    # only the chain-map sample inside verify_ses sees them, so les_check
    # must carry that verdict.  b-parity-skip is seen by both.
    ctx = triangle_context(chain(-2, -2), "v0")
    with faults.injected(fault):
        ses = verify_ses(ctx, default_region(ctx, 3))
        rep = les_check(ctx, 3, ses)
    assert not ses.chain_maps_ok
    assert not rep.exact


@pytest.mark.parametrize("graph, v", [
    (chain(-2, -2), "v0"),
    (make_graph(([("a", -2), ("b", -3), ("c", -2)], [("a", "b"), ("b", "c")])),
     "b"),
    (vertex(-2), "a")], ids=["chain22-v0", "abc-b", "rp3-a"])
def test_les_pushes_the_same_b_as_the_chain_level(graph, v):
    # les_check pushes B to homology through the same per-term rule as
    # map_B, so a B fault shows in the ranks even when the SES report it
    # is given came from a clean run.
    ctx = triangle_context(graph, v)
    ses = verify_ses(ctx, default_region(ctx, 2))
    assert ses.passed
    with faults.injected("b-parity-skip"):
        rep = les_check(ctx, 2, ses)
    assert not rep.exact


def _chain22_b_cap1():
    ctx = triangle_context(parse_graph((DATA / "chain22.graph").read_text()),
                           "b")
    return ctx, verify_ses(ctx, default_region(ctx, 1))


def _star_2_4_4_10():
    """The star with centre -2 and legs -4, -4, -10, whose triangle at the
    centre has a nonzero connecting rank."""
    return make_graph(([("c", -2), ("a", -4), ("b", -4), ("d", -10)],
                       [("c", "a"), ("c", "b"), ("c", "d")]))


def _random_triples():
    """Definite triples (G, G+ and G-v definite, G-v not empty) of the
    ``random_graph`` trees of seeds 0 to 39 with at most three vertices."""
    from latcoh.suites import random_graph
    for seed in range(40):
        g = random_graph(random.Random(seed), max_vertices=4,
                         weights=(-5, -1))
        for v in g.vertices if g.n <= 3 else ():
            ctx = triangle_context(g, v)
            sides = ctx.plus, ctx.graph, ctx.minus
            if ctx.minus.n and all(map(is_negative_definite, sides)):
                yield "seed%d-%s" % (seed, v), ctx


def _window_cases():
    def demo(name, v):
        return triangle_context(parse_graph((DATA / name).read_text()), v)

    cases = [pytest.param(demo(name, v), mcap, 0,
                          id="%s-%s-%d" % (name, v, mcap))
             for name, v in (("chain22.graph", "b"), ("star232.graph", "b"),
                             ("rp3.graph", "a"))
             for mcap in (1, 2, 3)]
    cases += [pytest.param(demo("star1337.graph", "a"), mcap, 1,
                           id="star1337.graph-a-%d" % mcap) for mcap in (1, 2)]
    cases += [pytest.param(ctx, mcap, None, id="%s-%d" % (label, mcap))
              for label, ctx in _random_triples() for mcap in (1, 2)]
    return cases + [pytest.param(triangle_context(_star_2_4_4_10(), "c"), 1,
                                 1, id="star-2-4-4-10-c-1")]


@pytest.mark.parametrize("ctx, mcap, pad", _window_cases())
def test_les_window_matches_a_wide_window(ctx, mcap, pad):
    # The window les_check computes gives the dims and rank table of one 8
    # levels higher, and its pad is E, the largest finite bar endpoint (a
    # tower's bottom, a torsion's top) of the three sides: at that higher
    # level every class has one tower and its other bars all end.  The
    # random triples are the seeded trees of ``_random_triples``.
    from latcoh.engine import _les_attempt
    rep = les_check(ctx, mcap, verify_ses(ctx, default_region(ctx, mcap)))
    level = mcap + rep.grading_pad + 8
    banks = [[class_cells(side, cls.base, level)
              for cls in spinc_representatives(side)]
             for side in (ctx.plus, ctx.graph, ctx.minus)]
    wide = _les_attempt(ctx, mcap, banks)
    assert (rep.dims, rep.rows, rep.exact) == (wide.dims, wide.rows, True)
    assert wide.grading_pad == rep.grading_pad + 8
    ends = [0]
    for side_banks in banks:
        for bank in side_banks:
            bars = module_presentation(bank)
            assert [(deg, mod.towers) for deg, mod in bars.items()
                    if mod.towers] == [(0, (0,))]
            ends += [b // 2 + k for mod in bars.values()
                     for b, k in mod.torsions]
    assert rep.grading_pad == max(ends)
    assert pad is None or rep.grading_pad == pad


@pytest.mark.parametrize("fault, law", [
    ("cube-weight-parity-offset",
     "degree 2 has summands, but a tree with 0 bad vertices has none in "
     "degree >= 1"),
    ("delta-coface-shift-sign",
     "degree 0 has tower bottoms [2] but no tower at bottom 0")])
def test_les_names_the_side_class_and_law_a_lattice_fault_breaks(fault, law):
    # Each side's certificate runs stabilize's laws on every class, so a
    # lattice fault is a wrong answer (exit 4), not a window too small.
    ctx, ses = _chain22_b_cap1()
    with faults.injected(fault):
        with pytest.raises(InvariantError) as err:
            les_check(ctx, 1, ses)
    assert str(err.value).startswith("G+ class 0 (base [0, 1]): " + law)


def test_les_bars_that_are_not_one_tower_are_a_wrong_answer(monkeypatch):
    # Every class's bars are read whole, and its sublevel sets end
    # contractible: bars that do not hold the one degree-0 tower are a
    # wrong answer, named by side and class.
    import latcoh.engine as eng
    ctx, ses = _chain22_b_cap1()
    monkeypatch.setattr(eng, "_one_tower", lambda degrees: False)
    with pytest.raises(InvariantError,
                       match=r"^G\+ class 0 \(base \[0, 1\]\): its bars end "
                             r"in towers \{0: \[0\]\}, but its sublevel "
                             r"sets end contractible"):
        les_check(ctx, 1, ses)


def test_les_reads_bars_above_the_cap_off_the_retraction_box(monkeypatch):
    # star1337 at a, cap 1: classes whose retraction box reaches above the
    # cap have their bars read off the box's bank, and those bars set the
    # pad.
    import latcoh.engine as eng
    ctx = triangle_context(
        parse_graph((DATA / "star1337.graph").read_text()), "a")
    read = []
    box_bars = eng._box_bars
    monkeypatch.setattr(eng, "_box_bars", lambda graph, base, box: read.append(
        box) or box_bars(graph, base, box))
    rep = les_check(ctx, 1, verify_ses(ctx, default_region(ctx, 1)))
    assert read and rep.grading_pad == 1


@pytest.mark.parametrize("name, vertex, mcap, pad", [
    ("star232", "b", 3, 0), ("star1337", "a", 1, 1)])
def test_les_enumerates_each_side_once_and_certifies_each_class_once(
        monkeypatch, name, vertex, mcap, pad):
    # One _certify per class of G+, G and G-v, and one class enumeration
    # per side, also when the window is padded and the banks are rebuilt.
    from collections import Counter
    import latcoh.engine as eng
    ctx = triangle_context(
        parse_graph((DATA / (name + ".graph")).read_text()), vertex)
    ses = verify_ses(ctx, default_region(ctx, mcap))
    classes = sum(len(spinc_representatives(side))
                  for side in (ctx.plus, ctx.graph, ctx.minus))
    calls = Counter()

    def counted(label, fn):
        def wrapped(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(eng, "spinc_representatives",
                        counted("classes", eng.spinc_representatives))
    monkeypatch.setattr(eng, "_check_laws", counted("laws", eng._check_laws))
    assert les_check(ctx, mcap, ses).grading_pad == pad
    assert calls == {"classes": 3, "laws": classes}


def test_an_image_no_piece_holds_is_a_broken_column():
    # An image term outside every piece of the target is no reason to
    # widen the window: in the certified window only a corrupted map gives
    # one, so it is a zero column and the map is flagged broken.  A vector
    # outside the bank and a U-power above every piece both count.
    import latcoh.engine as eng
    from latcoh.triangle import _a_targets
    ctx, _ = _chain22_b_cap1()
    plus, mid = (eng._Side(graph, 1, [class_cells(graph, cls.base, 1)
                                      for cls in spinc_representatives(graph)])
                 for graph in (ctx.plus, ctx.graph))
    for far, up in ((1000, 0), (0, 99)):
        def moved(k, smask, m):
            return [(tuple(x + far for x in t), s, mt + up)
                    for t, s, mt in _a_targets(ctx, k, smask, m)[m]]

        cols, broken = eng._map_columns(plus, moved, mid)
        assert broken and not any(any(col) for col in cols.values())


def test_a_bookkeeping_error_in_a_map_push_is_not_a_broken_column():
    # Only a term no piece holds, or an image that is not a cycle, makes a
    # broken column; any other KeyError is a fault of the code and rises.
    import latcoh.engine as eng
    from latcoh.triangle import _a_targets
    ctx, _ = _chain22_b_cap1()
    plus, mid = (eng._Side(graph, 1, [class_cells(graph, cls.base, 1)
                                      for cls in spinc_representatives(graph)])
                 for graph in (ctx.plus, ctx.graph))
    mid.offsets.clear()
    with pytest.raises(KeyError):
        eng._map_columns(plus, lambda k, s, m: _a_targets(ctx, k, s, m)[m],
                         mid)


def _box_cases():
    from latcoh.suites import random_graph
    cases = [pytest.param(parse_graph((DATA / name).read_text()), id=name)
             for name in ("chain22.graph", "star232.graph", "rp3.graph",
                          "s3.graph", "star1337.graph")]
    for seed in range(20):
        g = random_graph(random.Random(seed), max_vertices=4,
                         weights=(-5, -1), extra_edge=0)
        if is_negative_definite(g):
            cases.append(pytest.param(g, id="tree%d" % seed))
    return cases


@pytest.mark.parametrize("g", _box_cases())
def test_the_retraction_box_holds_every_bar(g):
    # The bars of the cubes of the retraction box, cut at a level, are the
    # bars of the exact sublevel set there; at the box's heaviest corner
    # they are all that is left: one degree-0 tower and bars that ended.
    from itertools import product
    from latcoh.engine import _box_bars
    from latcoh.lattice import relative_weight, retraction_box
    for cls in spinc_representatives(g):
        box = retraction_box(g, cls.base)
        bars = _box_bars(g, cls.base, box)
        wmin = class_cells(g, cls.base, 0).wmin
        top = max(relative_weight(g, cls.base, c)
                  for c in product(*zip(*box))) - wmin
        for level in sorted({0, 1, 3, min(top, 6)}):
            cut = {}
            for deg, mod in bars.items():
                towers = [b for b in mod.towers if b // 2 <= level]
                towers += [b for b, k in mod.torsions
                           if b // 2 <= level < b // 2 + k]
                torsions = tuple((b, k) for b, k in mod.torsions
                                 if b // 2 + k <= level)
                if towers or torsions:
                    cut[deg] = DegreeModule(tuple(sorted(towers)), torsions)
            assert cut == module_presentation(class_cells(g, cls.base, level))
        assert [(deg, mod.towers) for deg, mod in bars.items()
                if mod.towers] == [(0, (0,))]
        assert all(b // 2 + k <= top for mod in bars.values()
                   for b, k in mod.torsions)


def test_no_box_is_claimed_for_signs_no_flip_makes_positive():
    # A triangle of edges with one negative sign: flipping coordinates
    # keeps the sign of every cycle, so the box's argument does not apply.
    from latcoh.graph import LatcohError
    from latcoh.lattice import retraction_box
    g = make_graph(([("a", -3), ("b", -3), ("c", -3)],
                    [("a", "b"), ("b", "c"), ("a", "c", -1)]))
    assert is_negative_definite(g)
    with pytest.raises(LatcohError, match="no flip of coordinates leaves"):
        retraction_box(g, tuple(g.weights))


def test_a_triple_with_a_nonzero_connecting_rank():
    # The star with centre -2 and legs -4, -4, -10, at its centre: the
    # truncated pieces of G+ hold one degree-1 class and A* kills it, so
    # exactness at G+ needs a connecting map of rank 1 out of degree 0,
    # inferred here as dim H^0(G-v) - rank B*.
    ctx = triangle_context(_star_2_4_4_10(), "c")
    rep = les_check(ctx, 1, verify_ses(ctx, default_region(ctx, 1)))
    assert (rep.exact, rep.grading_pad) == (True, 1)
    keys = ("dim_plus", "dim_g", "dim_minus", "rank_A", "rank_B",
            "rank_connecting", "exact_middle", "exact_ends")
    assert [tuple(row[k] for k in keys) for row in rep.rows] == [
        (129, 448, 320, 129, 319, 1, True, True),
        (1, 0, 0, 0, 0, 0, True, True),
        (0, 0, 0, 0, 0, 0, True, True)]


def test_graphs_are_collectable_after_a_triangle_run():
    # No cache keyed by a graph outlives the graph: once the caller drops
    # a triangle's graphs, they can be collected.
    def run():
        g = parse_graph((DATA / "chain22.graph").read_text())
        for cls in spinc_representatives(g):
            stabilize(g, cls, 2)
        ctx = triangle_context(g, "b")
        les_check(ctx, 2, verify_ses(ctx, default_region(ctx, 2)))
        return [weakref.ref(h) for h in (ctx.graph, ctx.plus, ctx.minus)]

    refs = run()
    gc.collect()
    assert [r() for r in refs] == [None] * 3


def test_les_rejects_the_ses_report_of_another_triangle():
    g = chain(-2, -2)
    other = triangle_context(g, "v1")
    ses = verify_ses(other, default_region(other, 3))
    with pytest.raises(ValueError, match="another triangle"):
        les_check(triangle_context(g, "v0"), 3, ses)


def test_graded_complex_rejects_an_incomplete_bank():
    # In a box that clips the sublevel set a missing coface may be a cube
    # the box cut off, so the graded pieces would be silently wrong.
    g = vertex(-2)
    box = Region(g, (0,), (0,), (1,), 3)
    bank = class_cells(g, (0,), 3, box=box)
    assert bank.complete_to is None
    with pytest.raises(ValueError, match="not complete"):
        GradedGF2Complex(bank, 3)


def _definite_trees(seed, count, max_vertices=5):
    """Seeded connected definite trees with small determinants."""
    from latcoh import determinant
    from latcoh.suites import random_graph
    rng = random.Random(seed)
    trees = []
    while len(trees) < count:
        g = random_graph(rng, max_vertices=max_vertices, weights=(-5, 0),
                         extra_edge=0)
        if is_negative_definite(g) and abs(determinant(g)) <= 16:
            trees.append(g)
    return trees


def test_fault_free_trees_pass_the_vanishing_check():
    # On a connected definite tree with nu bad vertices H^q = 0 for
    # q >= max(nu, 1), so without a fault stabilize never raises for it.
    for g in _definite_trees(23, 40, max_vertices=6):
        for cls in spinc_representatives(g):
            for mcap in (1, 2, 3):
                stabilize(g, cls, mcap)


def test_graphs_with_a_cycle_skip_the_vanishing_check():
    # A cycle adds cohomology the reduction theorem does not bound: this
    # graph (nu = 1) has a degree-1 summand and must not raise.
    from latcoh import bad_vertices
    g = make_graph(([("v0", -1), ("v1", -2), ("v2", -3), ("v3", -4),
                     ("v4", -1)],
                    [("v1", "v0", -1), ("v2", "v1", -1), ("v3", "v2", -1),
                     ("v4", "v2", -1), ("v3", "v1", -1)]))
    assert len(bad_vertices(g)) == 1
    pres = stabilize(g, spinc_representatives(g)[1], 1)
    assert pres.degrees[1] == DegreeModule(towers=(), torsions=((0, 1),))


def test_a_tree_with_no_bad_vertex_has_one_tower_and_nothing_else(rp3):
    # nu = 0: the whole answer is the tower at 0, so the two (2, 1)
    # torsions the weight fault leaves in rp3's class 0 at cap 3 raise,
    # where the degree checks alone let them through.
    from latcoh.engine import InvariantError
    (cls, _) = spinc_representatives(rp3)
    assert stabilize(rp3, cls, 3).degrees == {0: DegreeModule((0,), ())}
    with faults.injected("cube-weight-parity-offset"):
        with pytest.raises(InvariantError, match=(
                r"class 0 \(base \[0\]\): degree 0 has towers \[0\] and "
                r"torsions \[\(2, 1\), \(2, 1\)\]")):
            stabilize(rp3, cls, 3)


def test_one_bad_vertex_gives_one_tower_per_class():
    import random
    from latcoh import bad_vertices, determinant, is_negative_definite
    from latcoh.suites import random_graph
    rng = random.Random(77)
    done = 0
    while done < 8:
        g = random_graph(rng, max_vertices=4, weights=(-4, -1), extra_edge=0)
        if not is_negative_definite(g) or len(bad_vertices(g)) > 1:
            continue
        if abs(determinant(g)) > 12:
            continue
        done += 1
        for cls in spinc_representatives(g):
            pres = stabilize(g, cls, 3)
            assert pres.stabilized
            assert len(pres.degrees.get(0, DegreeModule((), ())).towers) == 1
            assert all(deg == 0 for deg in pres.degrees)


def test_brieskorn_sphere_torsion():
    # Star with center -1 and legs -2, -3, -7: unimodular, one bad vertex;
    # degree zero carries one tower and a single U-killed summand.
    from latcoh import make_graph
    g = make_graph(([("c", -1), ("p", -2), ("q", -3), ("r", -7)],
                    [("c", "p"), ("c", "q"), ("c", "r")]))
    (cls,) = spinc_representatives(g)
    pres = stabilize(g, cls, 4)
    assert pres.stabilized
    assert pres.degrees == {0: DegreeModule(towers=(0,), torsions=((0, 1),))}


# --- the completeness certificate -------------------------------------------

DEMOS = ("s3.graph", "rp3.graph", "chain22.graph", "star232.graph",
         "twonode.graph", "e8.graph")


def _relative_complex_cases():
    """Every demo graph at caps 1 to 3, and seeded definite trees."""
    cases = [pytest.param(parse_graph((DATA / name).read_text()), mcap,
                          id="%s-%d" % (name, mcap))
             for name in DEMOS for mcap in (1, 2, 3)]
    return cases + [pytest.param(g, 1 + i % 3, id="tree%d" % i)
                    for i, g in enumerate(_definite_trees(19, 9))]


@pytest.mark.parametrize("g, mcap", _relative_complex_cases())
def test_pieces_are_relative_cochain_complexes_of_sublevel_pairs(g, mcap):
    # With U cap u, piece (q, 2L) holds exactly the degree-q cells of
    # relative weight in [L - u, L], in bank order, and its coboundary is
    # that of the pair (S_L, S_{L-u-1}), built here from coface_keys and
    # membership alone.  u = mcap - 1 under a bank of cap mcap, so the top
    # level is a proper pair.
    from latcoh.lattice import bits, coface_keys
    u, n, full = mcap - 1, g.n, (1 << g.n) - 1
    for cls in spinc_representatives(g):
        bank = class_cells(g, cls.base, mcap)
        cx = GradedGF2Complex(bank, u)
        level = {key: w - bank.wmin for key, w in bank.cells.items()}
        top = bank.complete_to - bank.wmin

        def in_pair(key, big):
            # In S_big but not in S_{big-u-1}.
            return key in level and big - u <= level[key] <= big

        pieces = {}
        for big in range(top + 1):
            for key in bank.cells:
                if in_pair(key, big):
                    pieces.setdefault(((key & full).bit_count(), 2 * big),
                                      []).append(key)
        assert {pg: list(basis) for pg, basis in cx.bases.items()} == pieces
        for basis in cx.bases.values():
            assert list(basis.values()) == list(range(len(basis)))
        for (q, grade), basis in cx.bases.items():
            rows = list(cx.bases.get((q + 1, grade), ()))
            for key, col in zip(basis, cx.delta_matrix(q, grade)):
                pair = {up for up in coface_keys(key, n)
                        if in_pair(up, grade // 2)}
                assert col >> len(rows) == 0
                assert {rows[i] for i in bits(col)} == pair


def _certificate_cases():
    """Demo graphs, and seeded random definite trees with small
    determinants, each with a U cap that keeps the test quick."""
    from latcoh import determinant, parse_graph
    from latcoh.suites import random_graph
    cases = [pytest.param(parse_graph((DATA / name).read_text()), mcap,
                          id=name)
             for name, mcap in (("s3.graph", 3), ("rp3.graph", 3),
                                ("chain22.graph", 3), ("star232.graph", 2),
                                ("e8.graph", 1))]
    rng = random.Random(5)
    trees = []
    while len(trees) < 8:
        g = random_graph(rng, max_vertices=4, weights=(-4, -1), extra_edge=0)
        if (is_negative_definite(g)
                and abs(determinant(g)) <= 12):
            trees.append(pytest.param(g, 2, id="tree%d" % len(trees)))
    return cases + trees


@pytest.mark.parametrize("g, mcap", _certificate_cases())
def test_certified_answer_matches_enlarged_window(g, mcap):
    # The reference is the rule the certificate replaced: recompute on the
    # truncation box grown by two.  A certified answer must agree with it.
    for cls in spinc_representatives(g):
        pres = stabilize(g, cls, mcap)
        assert pres.stabilized
        box = grown(truncation_region(g, cls.base, mcap), 2)
        bank = class_cells(g, cls.base, mcap, box=box)
        hom = ComplexHomology(GradedGF2Complex(bank, mcap))
        assert _expanded(pres.degrees, mcap) == hom.dims
        assert pres.degrees == module_presentation(bank)


@pytest.mark.parametrize("g, mcap", _certificate_cases()[:4])
def test_reported_region_reproduces_the_answer(g, mcap):
    # Both for a certified answer and for one on a box that clips the
    # sublevel set (a corner box at its least offset).
    for cls in spinc_representatives(g):
        x0 = unpack(min(class_cells(g, cls.base, mcap).points), g.n)
        clipped = Region(g, cls.base, x0, tuple(c + 1 for c in x0), mcap)
        for bounds in (None, clipped):
            pres = stabilize(g, cls, mcap, bounds=bounds)
            r = pres.region
            again = stabilize(g, cls, r["mcap"], bounds=Region(
                g, tuple(r["base"]), tuple(r["xmin"]), tuple(r["xmax"]),
                r["mcap"]))
            assert again.to_json() == pres.to_json()


def test_stabilize_enumerates_each_class_once(monkeypatch):
    from latcoh import engine
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return class_cells(*args, **kwargs)

    monkeypatch.setattr(engine, "class_cells", counted)
    g = chain(-2, -2)
    classes = spinc_representatives(g)
    for cls in classes:
        stabilize(g, cls, 3)
    assert calls == [cls.base for cls in classes]


# --- cells from the faces up ------------------------------------------------

def _reference_class_cells(graph, spinc_or_base, mcap, box=None,
                           wcap_extra=0):
    """The mask scan the face-up build replaced: every one of the 2^n masks
    at every point, read by the two-face rule with a memo of its own.  It
    shares ``sublevel_points`` with ``class_cells``; the point enumeration
    has its own brute-force test in test_exact.py.  Its points map to their
    weights, as the bank's do."""
    from latcoh import engine
    from latcoh.lattice import relative_weight, sublevel_points
    n = graph.n
    base = tuple(getattr(spinc_or_base, "base", spinc_or_base))
    complete = None
    if is_negative_definite(graph):
        unfiltered = sublevel_points(graph, base, mcap + wcap_extra)
        wcap = min(unfiltered.values()) + mcap + wcap_extra
        pts = {x: w for x, w in unfiltered.items()
               if box is None or box.contains_offset(x)}
        if len(pts) == len(unfiltered):
            complete = wcap
    else:
        pts = {x: relative_weight(graph, base, unpack(x, n))
               for x in box.iter_offsets()}
        wcap = min(pts.values()) + mcap + wcap_extra
        pts = {x: w for x, w in pts.items() if w <= wcap}
    points = dict(sorted(pts.items()))
    at = {unpack(x, n): w for x, w in pts.items()}
    memo = {}
    cells = {}
    for x in points:
        y = unpack(x, n)
        for s in range(1 << n):
            w = reference_cube_weight(at.get, memo, (y, s))
            if w is not None and w <= wcap:
                cells[x << n | s] = w
    return engine.CellBank(graph, base, points, cells, min(pts.values()),
                           complete)


def _lower_half(bank, mcap):
    """A box that clips the bank's points: their bounding box with every
    coordinate range cut to its lower half."""
    corners = [unpack(x, bank.graph.n) for x in bank.points]
    lo = tuple(map(min, zip(*corners)))
    hi = tuple(map(max, zip(*corners)))
    return Region(bank.graph, bank.base, lo,
                  tuple((a + b) // 2 for a, b in zip(lo, hi)), mcap)


def _cell_cases():
    from latcoh import determinant, parse_graph
    from latcoh.suites import random_graph
    cases = []
    for name, caps in (("s3.graph", (1, 2, 3)), ("rp3.graph", (1, 2, 3)),
                       ("chain22.graph", (1, 2, 3)),
                       ("star232.graph", (1, 2, 3)),
                       ("twonode.graph", (1, 2)), ("e8.graph", (1, 2))):
        g = parse_graph((DATA / name).read_text())
        for mcap in caps:
            cases.append(pytest.param(g, mcap, id="%s-%d" % (name, mcap)))
    rng = random.Random(11)
    demos = len(cases)
    while len(cases) < demos + 8:
        g = random_graph(rng, max_vertices=4, weights=(-4, -1), extra_edge=0)
        if (is_negative_definite(g)
                and abs(determinant(g)) <= 12):
            cases.append(pytest.param(g, 2, id="tree%d" % (len(cases) - demos)))
    return cases


FAULT_STATES = (None, "cube-weight-parity-offset", "delta-coface-shift-sign")


def _fault_state(fault):
    return contextlib.nullcontext() if fault is None else faults.injected(fault)


def _same_bank(got, want):
    assert got.points == want.points
    assert got.cells == want.cells
    assert got.wmin == want.wmin
    assert got.complete_to == want.complete_to


@pytest.mark.parametrize("fault", FAULT_STATES)
@pytest.mark.parametrize("g, mcap", _cell_cases())
def test_face_up_cells_match_the_mask_scan(g, mcap, fault):
    for cls in spinc_representatives(g):
        with _fault_state(fault):
            want = _reference_class_cells(g, cls, mcap)
            _same_bank(class_cells(g, cls, mcap), want)
            box = _lower_half(want, mcap)
            clipped = _reference_class_cells(g, cls, mcap, box=box)
            assert clipped.complete_to is None
            _same_bank(class_cells(g, cls, mcap, box=box), clipped)


@pytest.mark.parametrize("fault", FAULT_STATES)
def test_face_up_cells_match_the_mask_scan_on_a_bounds_box(fault):
    g = chain(-2, -1, -2)  # degenerate: det 0
    assert not is_negative_definite(g)
    base = tuple(g.weights)
    box = Region(g, base, (-2, -2, -2), (2, 2, 2), 3)
    cubes = _reference_class_cells(g, base, 3, box=box).cells
    assert any(key & 0b111 == 0b111 for key in cubes)
    with _fault_state(fault):
        want = _reference_class_cells(g, base, 3, box=box)
        _same_bank(class_cells(g, base, 3, box=box), want)


def test_cells_read_each_cube_once(monkeypatch):
    # The face-up build keeps no memo of misses: one weight read per cell,
    # where the mask scan read all 2401 * 2^8 = 614,656 masks.
    from latcoh import engine
    calls = []
    real = engine.offset_cube_weight

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(engine, "offset_cube_weight", counted)
    g = e8()
    bank = class_cells(g, spinc_representatives(g)[0].base, 2)
    assert len(bank.points) == 2401
    assert len(bank.cells) == 22009
    assert sorted(calls) == sorted(bank.cells)


def test_only_a_fault_drops_a_cube_and_the_bank_law_names_it():
    # Every corner of an admissible cube weighs at most the cap, so with no
    # fault no cube is dropped.  The parity fault lifts odd cubes past it,
    # and a kept cell whose face was dropped is no subcomplex: exit 4 where
    # the compute path used to ask for a larger --max-depth.
    from latcoh import engine
    g = e8()
    base = spinc_representatives(g)[0].base
    for mcap in (1, 2):
        assert class_cells(g, base, mcap).dropped == ()
    with faults.injected("cube-weight-parity-offset"):
        bank = class_cells(g, base, 1)
        degrees = module_presentation(bank)
    assert len(bank.dropped) == 506
    with pytest.raises(InvariantError, match=(
            r"^e8: cell \(x=\[(-?\d+, ){7}-?\d+\], S=\['f', 'h'\]\) is in "
            r"the bank but its face \(x=\[.*\], S=\['f'\]\) is not, and a "
            r"bank holds every face of its cells$")):
        engine._check_laws(bank, degrees, "e8")


def test_class_cells_solves_the_continuous_minimum_once(monkeypatch):
    # The probe loop and the final enumeration share one Fraction solve.
    from latcoh import lattice
    calls = []
    real = lattice.continuous_minimum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattice, "continuous_minimum", counted)
    for name in DEMOS:
        g = parse_graph((DATA / name).read_text())
        for cls in spinc_representatives(g):
            del calls[:]
            class_cells(g, cls.base, 1)
            assert len(calls) == 1


def test_cell_bank_cap_is_a_basis_cap_error(monkeypatch):
    from latcoh import BasisCapError, engine
    g = e8()
    base = spinc_representatives(g)[0].base
    size = len(class_cells(g, base, 1).cells)
    monkeypatch.setattr(engine, "BASIS_CAP", size)
    assert len(class_cells(g, base, 1).cells) == size
    monkeypatch.setattr(engine, "BASIS_CAP", size - 1)
    with pytest.raises(BasisCapError, match="cell bank exceeded %d cubes"
                       % (size - 1)):
        class_cells(g, base, 1)


# --- the one reduction against the piece path ------------------------------

def _reference_module_presentation(hom, mcap):
    """The piece path the one reduction replaced: U on the homology of every
    (degree, grading) piece, and the multiplicity of each summand by
    inclusion-exclusion of composite U-ranks over its (top, bottom) pair."""
    from latcoh.lattice import bits
    cx = hom.cx

    def u_on_homology(deg, g):
        # U sends the dual (key, m) to (key, m - 1), and m = 0 to zero: on
        # the level bases, a cube of piece (deg, g) to the same cube of
        # piece (deg, g - 2), which holds it exactly when m >= 1.
        reps = hom.pieces[(deg, g)][1]
        below, below_reps = hom.pieces.get((deg, g - 2), (None, ()))
        if not below_reps:
            return [0] * len(reps)
        keys = list(cx.bases[(deg, g)])
        rows = cx.bases[(deg, g - 2)]
        cols = []
        for rep in reps:
            img = 0
            for pos in bits(rep):
                row = rows.get(keys[pos])
                if row is not None:
                    img ^= 1 << row
            cols.append(below.coords(img))
        return cols

    out = {}
    for deg in sorted({d for d, _ in hom.dims}):
        dim = {g: d for (dd, g), d in hom.dims.items() if dd == deg}
        ucols = {g: u_on_homology(deg, g) for g in dim}

        def composite_rank(top, bot):
            if top < bot or not dim.get(top):
                return 0
            cols = [1 << i for i in range(dim[top])]
            for g in range(top, bot, -2):
                if not dim.get(g - 2):
                    return 0
                cols = gf2.matmul(ucols[g], cols)
            return gf2.rank(cols)

        towers, torsions = [], []
        for bot in sorted(dim):
            for top in (g for g in sorted(dim) if g >= bot):
                mult = (composite_rank(top, bot)
                        - composite_rank(top + 2, bot)
                        - composite_rank(top, bot - 2)
                        + composite_rank(top + 2, bot - 2))
                for _ in range(mult):
                    if top >= 2 * mcap:
                        towers.append(bot)
                    else:
                        torsions.append((bot, (top - bot) // 2 + 1))
        out[deg] = DegreeModule(tuple(sorted(towers)), tuple(sorted(torsions)))
    return out


def _reference_presentation(bank):
    """``module_presentation`` with its columns probed through ``cofaces``,
    two weight reads and a gap per coface, as it stood before the columns
    were read off ``coface_keys`` and the row index."""
    from latcoh.lattice import cofaces
    cells, n, wmin = bank.cells, bank.graph.n, bank.wmin
    full = (1 << n) - 1
    layers = {}
    for key, w in cells.items():
        layers.setdefault((key & full).bit_count(), []).append((w, key))
    out = {}
    cleared = set()
    order = sorted(layers.get(0, ()))
    for deg in range(len(layers)):
        upper = sorted(layers.get(deg + 1, ()))
        rows = {key: i for i, (_, key) in enumerate(upper)}
        pivots = {}
        towers, torsions = [], []
        for pos in range(len(order) - 1, -1, -1):
            if pos in cleared:
                continue
            w, key = order[pos]
            col = 0
            for up, gap in cofaces(cells.get, key, n):
                if gap is not None:
                    col ^= 1 << rows[up]
            while col:
                low = (col & -col).bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    break
                col ^= other
            if not col:
                towers.append(2 * (w - wmin))
            elif upper[low][0] > w:
                torsions.append((2 * (w - wmin), upper[low][0] - w))
        if towers or torsions:
            out[deg] = DegreeModule(tuple(sorted(towers)),
                                    tuple(sorted(torsions)))
        cleared = set(pivots)
        order = upper
    return out


def _coface_loop_cases():
    """Every demo graph at caps 1 to 3, and six seeded graphs, definite or
    not, at cap 2."""
    from latcoh.suites import random_graph
    cases = [pytest.param(parse_graph((DATA / name).read_text()), mcap,
                          id="%s-%d" % (name, mcap))
             for name in DEMOS for mcap in (1, 2, 3)]
    rng = random.Random(31)
    for i in range(6):
        cases.append(pytest.param(random_graph(rng, max_vertices=4,
                                               weights=(-4, 1)),
                                  2, id="seeded%d" % i))
    return cases


@pytest.mark.parametrize("fault", (None,) + faults.FAULTS)
@pytest.mark.parametrize("g, mcap", _coface_loop_cases())
def test_bars_match_the_coface_loop(g, mcap, fault):
    if is_negative_definite(g):
        banks = [(cls.base, None) for cls in spinc_representatives(g)]
    else:
        base = tuple(g.weights)
        banks = [(base, Region(g, base, (-1,) * g.n, (1,) * g.n, mcap))]
    with _fault_state(fault):
        for base, box in banks:
            bank = class_cells(g, base, mcap, box=box)
            assert module_presentation(bank) == _reference_presentation(bank)


def _reference_bitset_presentation(bank):
    """``module_presentation`` as it stood before its pivots were implicit:
    every column, pivot or not, an int bitset anchored at row 0, and each
    degree's cells a sorted list of (weight, cube key) tuples."""
    from latcoh.lattice import coface_keys
    cells, n, wmin = bank.cells, bank.graph.n, bank.wmin
    full = (1 << n) - 1
    layers = {}
    for key, w in cells.items():
        layers.setdefault((key & full).bit_count(), []).append((w, key))
    out = {}
    cleared = set()
    order = sorted(layers.get(0, ()))
    for deg in range(len(layers)):
        upper = sorted(layers.get(deg + 1, ()))
        rows = {key: i for i, (_, key) in enumerate(upper)}
        pivots = {}
        towers, torsions = [], []
        for pos in range(len(order) - 1, -1, -1):
            if pos in cleared:
                continue
            w, key = order[pos]
            col = 0
            for up in coface_keys(key, n):
                row = rows.get(up)
                if row is not None:
                    col ^= 1 << row
            low = (col & -col).bit_length() - 1
            while col:
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    break
                col ^= other
                low = (col & -col).bit_length() - 1
            if not col:
                towers.append(2 * (w - wmin))
            elif upper[low][0] > w:
                torsions.append((2 * (w - wmin), upper[low][0] - w))
        if towers or torsions:
            out[deg] = DegreeModule(tuple(sorted(towers)),
                                    tuple(sorted(torsions)))
        cleared = set(pivots)
        order = upper
    return out


def _implicit_pivot_cases():
    """E8 and twonode at caps 2 to 4, chain22, star232 and rp3 at caps 1 to
    4, and A_8 at cap 1, each with no fault and under every fault; except
    E8 at cap 4 under the two exponent-formula faults.  Those, like
    ``b-parity-skip``, act only in the triangle's chain maps and never
    reach the reduction, so on E8 at cap 4, the costliest case,
    ``b-parity-skip`` stands for all three."""
    graphs = [(name, parse_graph((DATA / name).read_text()), caps)
              for name, caps in (("e8.graph", (2, 3, 4)),
                                 ("twonode.graph", (2, 3, 4)),
                                 ("chain22.graph", (1, 2, 3, 4)),
                                 ("star232.graph", (1, 2, 3, 4)),
                                 ("rp3.graph", (1, 2, 3, 4)))]
    graphs.append(("A8", chain(*[-2] * 8), (1,)))
    return [pytest.param(g, mcap, fault, id="%s-%d-%s" % (name, mcap, fault))
            for name, g, caps in graphs for mcap in caps
            for fault in (None,) + faults.FAULTS
            if not ((name, mcap) == ("e8.graph", 4) and fault in (
                "c-drop-quadratic", "c-always-first-case"))]


@pytest.mark.parametrize("g, mcap, fault", _implicit_pivot_cases())
def test_implicit_pivots_match_the_bitset_reduction(g, mcap, fault):
    with _fault_state(fault):
        for cls in spinc_representatives(g):
            bank = class_cells(g, cls.base, mcap)
            assert module_presentation(bank) == \
                _reference_bitset_presentation(bank)


def _presentation_reads(monkeypatch, bank):
    """``module_presentation(bank)`` and the count, per cell, of its calls
    to ``coface_keys``."""
    from collections import Counter
    from latcoh import engine
    calls = Counter()
    real = engine.coface_keys

    def counted(key, n):
        calls[key] += 1
        return real(key, n)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "coface_keys", counted)
        return module_presentation(bank), calls


def test_implicit_pivots_are_rebuilt_on_a_collision(monkeypatch):
    # A pivot that took no addition keeps only its cell's position, so a
    # later column that collides with it reads itself and rebuilds the
    # pivot through ``coface_keys``, the only calls the reduction makes to
    # it.  On twonode at cap 3 that happens.
    g = parse_graph((DATA / "twonode.graph").read_text())
    banks = [class_cells(g, cls.base, 3) for cls in spinc_representatives(g)]
    rebuilt = 0
    for bank in banks:
        got, calls = _presentation_reads(monkeypatch, bank)
        assert got == _reference_bitset_presentation(bank)
        # Only cells of the bank are read, each as often as it must be.
        assert calls == _expected_coface_reads(bank)[0]
        rebuilt += len(calls)
    assert rebuilt


def _expected_coface_reads(bank):
    """(reads, uncleared) of the bitset reduction of ``bank``: ``reads``
    counts, per cell, the columns a reduction that knows each column's
    earliest row must still read whole, that is each column whose earliest
    row is already a pivot and each pivot that took no addition when such
    a column adds it; ``uncleared`` is the number of columns reduced, one
    read each for a reduction that reads every column."""
    from collections import Counter
    from latcoh.lattice import coface_keys
    cells, n = bank.cells, bank.graph.n
    full = (1 << n) - 1
    layers = {}
    for key, w in cells.items():
        layers.setdefault((key & full).bit_count(), []).append((w, key))
    reads, uncleared = Counter(), 0
    cleared = set()
    order = sorted(layers.get(0, ()))
    for deg in range(len(layers)):
        upper = sorted(layers.get(deg + 1, ()))
        rows = {key: i for i, (_, key) in enumerate(upper)}
        pivots = {}     # low row -> (column, cell, whether it took additions)
        for pos in range(len(order) - 1, -1, -1):
            if pos in cleared:
                continue
            uncleared += 1
            key = order[pos][1]
            col = 0
            for up in coface_keys(key, n):
                if up in rows:
                    col ^= 1 << rows[up]
            low = (col & -col).bit_length() - 1
            added = bool(col) and low in pivots
            if added:
                reads[key] += 1
            while col:
                if low not in pivots:
                    pivots[low] = (col, key, added)
                    break
                other, cell, took = pivots[low]
                if not took:
                    reads[cell] += 1
                col ^= other
                low = (col & -col).bit_length() - 1
        cleared = set(pivots)
        order = upper
    return reads, uncleared


def test_only_a_collision_reads_a_column_whole(monkeypatch):
    # Each cell's earliest row comes from one pass over the faces of the
    # rows, so ``coface_keys`` is read only for a column whose earliest row
    # is already a pivot and for the implicit pivots it adds: on E8 at cap
    # 2, 2,729 reads where reading every uncleared column took 11,005.
    g = parse_graph((DATA / "e8.graph").read_text())
    bank = class_cells(g, spinc_representatives(g)[0].base, 2)
    got, calls = _presentation_reads(monkeypatch, bank)
    assert got == _reference_bitset_presentation(bank)
    reads, uncleared = _expected_coface_reads(bank)
    assert calls == reads
    assert (sum(calls.values()), uncleared) == (2729, 11005)


@pytest.mark.parametrize("fault", [None, "cube-weight-parity-offset"])
@pytest.mark.parametrize("mcap", [1, 2])
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.graph")))
def test_bank_layers_count_the_cells_by_degree_in_order(name, mcap, fault):
    # The bank's cells are keyed in degree order, and ``layers`` counts
    # each degree, after the cubes a fault drops are taken out.  With no
    # fault no cube is dropped; under the weight fault every demo but s3 at
    # cap 2 drops some.
    g = parse_graph((DATA / name).read_text())
    full = (1 << g.n) - 1
    dropped = 0
    with _fault_state(fault):
        for cls in spinc_representatives(g):
            bank = class_cells(g, cls.base, mcap)
            degrees = [(key & full).bit_count() for key in bank.cells]
            assert degrees == [deg for deg, count in enumerate(bank.layers)
                               for _ in range(count)]
            dropped += len(bank.dropped)
    assert bool(dropped) == (fault is not None
                             and (name, mcap) != ("s3.graph", 2))


@pytest.mark.parametrize("fault", [None, "delta-coface-shift-sign"])
@pytest.mark.parametrize("n", range(1, 7))
def test_a_cubes_cofaces_are_distinct_keys(n, fault):
    # The reduction takes a column's earliest row to be its least hit, so
    # no coface key may repeat: two directions differ in their mask bit,
    # and the two cofaces of one direction by a field unit of at least 2^n.
    from latcoh.lattice import coface_keys, origin
    with _fault_state(fault):
        for mask in range(1 << n):
            keys = coface_keys(origin(n) << n | mask, n)
            assert len(set(keys)) == len(keys) == 2 * (n - mask.bit_count())


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.graph")))
def test_euler_characteristic_of_the_bars_matches_the_bank(name):
    # At every level L up to the cap, the bars alive at L (a tower of
    # bottom b once b/2 <= L, a torsion (b, k) while b/2 <= L < b/2 + k)
    # and the cells of relative weight at most L have the same alternating
    # sum over the degrees, so the reduction loses no summand and invents
    # none.  Fault-free only: a fault that drops cubes leaves no complex
    # for the identity to hold on.
    g = parse_graph((DATA / (name + ".graph")).read_text())
    full = (1 << g.n) - 1
    for cls in spinc_representatives(g)[:20]:
        for cap in (1, 2) if name in ("e8", "twonode") else (1, 2, 3):
            bank = class_cells(g, cls.base, cap)
            bars = module_presentation(bank)
            for level in range(cap + 1):
                cells = sum((-1) ** (key & full).bit_count()
                            for key, w in bank.cells.items()
                            if w - bank.wmin <= level)
                alive = sum(
                    (-1) ** deg * (sum(b // 2 <= level for b in mod.towers)
                                   + sum(b // 2 <= level < b // 2 + k
                                         for b, k in mod.torsions))
                    for deg, mod in bars.items())
                assert alive == cells, (cls.index, cap, level)


def test_presentation_heap_stays_near_the_bank():
    # E8 at cap 3: the bitset reduction's traced heap peak above the bank
    # was about 8.8 times the bank's own traced size.
    import tracemalloc
    g = e8()
    base = spinc_representatives(g)[0].base
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bank = class_cells(g, base, 3)
        size = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        module_presentation(bank)
        peak = tracemalloc.get_traced_memory()[1] - before - size
    finally:
        tracemalloc.stop()
    assert peak < 2 * size


def _presentation_cases():
    """The demo graphs of the cell tests, and the certificate test's seeded
    trees."""
    demos = [c for c in _cell_cases() if not c.id.startswith("tree")]
    return demos + [c for c in _certificate_cases() if c.id.startswith("tree")]


@pytest.mark.parametrize("g, mcap", _presentation_cases())
def test_bars_match_the_composite_rank_presentation(g, mcap):
    for cls in spinc_representatives(g):
        bank = class_cells(g, cls.base, mcap)
        hom = _presentation_data(bank, mcap)
        assert module_presentation(bank) == \
            _reference_module_presentation(hom, mcap)


def _euler_cases():
    from latcoh import parse_graph
    return [pytest.param(parse_graph((DATA / name).read_text()), mcap,
                         id="%s-%d" % (name, mcap))
            for name in DEMOS for mcap in (1, 2)]


@pytest.mark.parametrize("g, mcap", _euler_cases())
def test_piece_homology_has_the_euler_characteristic_of_its_chains(g, mcap):
    for cls in spinc_representatives(g):
        hom = _presentation_data(class_cells(g, cls.base, mcap), mcap)
        cx = hom.cx
        for grade in sorted({g2 for _, g2 in cx.pieces()}):
            degs = [d for d, g2 in cx.pieces() if g2 == grade]
            assert (sum((-1) ** d * hom.dims.get((d, grade), 0) for d in degs)
                    == sum((-1) ** d * cx.dim(d, grade) for d in degs))


def test_stabilize_builds_no_graded_pieces(monkeypatch):
    # The piece path is the long-exact-sequence check's engine only; a
    # stabilize that reached it again would fail here.
    from latcoh import parse_graph

    def refuse(*args, **kwargs):
        raise AssertionError("stabilize built a graded piece complex")

    monkeypatch.setattr(GradedGF2Complex, "__init__", refuse)
    monkeypatch.setattr(ComplexHomology, "__init__", refuse)
    for name in DEMOS:
        g = parse_graph((DATA / name).read_text())
        for cls in spinc_representatives(g):
            x0 = unpack(min(class_cells(g, cls.base, 2).points), g.n)
            clipped = Region(g, cls.base, x0, tuple(c + 1 for c in x0), 2)
            for bounds in (None, clipped):
                assert stabilize(g, cls, 2, bounds=bounds).degrees


# --- one elimination per coboundary against the per-piece build ------------

def _reference_complex_homology(bank, mcap):
    """The long-exact-sequence build as it stood before each coboundary was
    eliminated once: bases by one ``setdefault`` per (cube, level), fans
    through ``cofaces``, and per piece ``Basis`` of δ_{q-1}, the kernel of
    δ_q and a ``Quotient``.  Returns (bases, deltas, pieces)."""
    from latcoh.lattice import cofaces
    cells, n, wmin = bank.cells, bank.graph.n, bank.wmin
    full = (1 << n) - 1
    top = bank.complete_to - wmin
    bases = {}
    for key, w in cells.items():
        for level in range(w - wmin, min(w - wmin + mcap, top) + 1):
            piece = bases.setdefault(((key & full).bit_count(), 2 * level), {})
            piece[key] = len(piece)
    fans = {}
    deltas = {}
    for deg, g in sorted(bases):
        rows = bases.get((deg + 1, g), {})
        cols = []
        for key in bases[(deg, g)]:
            if key not in fans:
                fans[key] = [up for up, gap in cofaces(cells.get, key, n)
                             if gap is not None]
            cols.append(sum(1 << rows[up] for up in fans[key] if up in rows))
        deltas[(deg, g)] = cols
    pieces = {}
    for deg, g in sorted(bases):
        quotient = gf2.Quotient(gf2.Basis(deltas.get((deg - 1, g), ())))
        reps = [v for v in gf2.kernel_basis(deltas[(deg, g)])[0]
                if quotient.add(v)]
        pieces[(deg, g)] = (quotient, reps)
    return bases, deltas, pieces


def _les_side_cases():
    # Eight gradings above the cap, so U-truncated pieces are covered too.
    cases = []
    for name, v in (("chain22.graph", "b"), ("star232.graph", "b"),
                    ("rp3.graph", "a")):
        for mcap in (1, 2, 3):
            for fault in (None,) + faults.FAULTS:
                cases.append(pytest.param(
                    name, v, mcap, 2 * mcap + 8, fault,
                    id="%s-%s-%d-%s" % (name, v, mcap, fault or "no fault")))
    return cases


@pytest.mark.parametrize("name, v, mcap, capg, fault", _les_side_cases())
def test_one_elimination_per_coboundary_matches_the_per_piece_build(
        name, v, mcap, capg, fault):
    # Every class of G, G+ and G-v at a grading window above the one the
    # long-exact-sequence check needs: the same bases, columns, cycles, boundary
    # staircases and homology coordinates as eliminating each δ twice.
    from latcoh.lattice import bits
    ctx = triangle_context(parse_graph((DATA / name).read_text()), v)
    with _fault_state(fault):
        for side in (ctx.graph, ctx.plus, ctx.minus):
            for cls in spinc_representatives(side):
                bank = class_cells(side, cls.base, capg // 2)
                hom = _presentation_data(bank, mcap)
                bases, deltas, pieces = _reference_complex_homology(bank, mcap)
                cx = hom.cx
                assert ({pg: list(b.items()) for pg, b in cx.bases.items()}
                        == {pg: list(b.items()) for pg, b in bases.items()})
                assert {pg: cx.delta_matrix(*pg) for pg in cx.pieces()} == deltas
                assert hom.dims == {pg: len(reps)
                                    for pg, (_, reps) in pieces.items() if reps}
                for pg, (quotient, reps) in pieces.items():
                    got_quotient, got_reps = hom.pieces[pg]
                    assert got_reps == reps
                    assert got_quotient.sub.pivots == quotient.sub.pivots
                    keys = list(bases[pg])
                    for rep in reps:
                        terms = [(keys[pos],
                                  pg[1] // 2 - (bank.cells[keys[pos]]
                                                - bank.wmin))
                                 for pos in bits(rep)]
                        assert (hom.reduce_chain(terms)
                                == {pg: quotient.coords(rep)})


# --- the weight law the coboundary relies on ---------------------------------

def _law_graphs():
    """Every demo graph, and the definite graphs among ``random_graph`` of
    seeds 0 to 19."""
    from latcoh.suites import random_graph
    graphs = [pytest.param(parse_graph((DATA / name).read_text()), id=name)
              for name in DEMOS]
    for seed in range(20):
        g = random_graph(random.Random(seed))
        if is_negative_definite(g):
            graphs.append(pytest.param(g, id="seed%d" % seed))
    return graphs


@pytest.mark.parametrize("g", _law_graphs())
def test_no_coface_in_a_bank_is_lighter_than_its_face(g):
    # A cube weighs the largest of its corners, so no coface the bank holds
    # is lighter than its face: the U-exponents of the coboundary are never
    # negative, and no code checks it at run time.
    from latcoh.lattice import coface_keys
    checked = 0
    for cls in spinc_representatives(g):
        for mcap in (1, 2, 3):
            cells = class_cells(g, cls.base, mcap).cells
            for key, w in cells.items():
                for up in coface_keys(key, g.n):
                    if up in cells:
                        assert cells[up] >= w
                        checked += 1
    assert checked
