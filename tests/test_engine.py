import random
from pathlib import Path

import pytest

from latcoh import (ComplexHomology, NonStabilizingError, Region, class_cells,
                    default_region, faults, gf2, is_negative_definite,
                    les_check, module_presentation, spinc_representatives,
                    stabilize, triangle_context, truncation_region,
                    verify_ses)
from latcoh.engine import DegreeModule, GradedGF2Complex, _presentation_data

from conftest import chain, e8, grown, vertex


# --- complexes --------------------------------------------------------------

def test_delta_column_sparsity():
    g = chain(-2, -2, -3)
    region = Region(g, tuple(g.weights), (-1,) * 3, (1,) * 3, 2)
    cx = GradedGF2Complex(class_cells(g, tuple(g.weights), 2, box=region), 2)
    for deg, grade in cx.pieces():
        for col in cx.delta_matrix(deg, grade):
            # At most two cofaces per direction not already spanned.
            assert bin(col).count("1") <= 2 * (3 - deg)


def test_delta_squared_as_matrix_product_on_e8():
    region = truncation_region(e8(), tuple([-2] * 8), 1)
    cx = _presentation_data(e8(), tuple([-2] * 8), 1, box=region)[1].cx
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
    region = truncation_region(s3, (-1,), 3)
    _, hom = _presentation_data(s3, (-1,), 3, box=region)
    assert hom.dims == {(0, 0): 1, (0, 2): 1, (0, 4): 1, (0, 6): 1}
    pres = module_presentation(hom, 3)
    assert pres == {0: DegreeModule(towers=(0,), torsions=())}


def test_homology_rp3_second_class(rp3):
    region = truncation_region(rp3, (2,), 3)
    _, hom = _presentation_data(rp3, (2,), 3, box=region)
    pres = module_presentation(hom, 3)
    assert pres == {0: DegreeModule(towers=(0,), torsions=())}


def test_module_presentation_torsion_from_synthetic_homology():
    # A U-chain of length 2 whose top sits below the cap is pure torsion.
    class FakeCx:
        mcap = 3

    class FakeHom:
        cx = FakeCx()
        dims = {(0, 0): 1, (0, 2): 1}

        def u_on_homology(self, deg, g):
            return [1] if (deg, g) == (0, 2) else [0]

    pres = module_presentation(FakeHom(), 3)
    assert pres == {0: DegreeModule(towers=(), torsions=((0, 2),))}


def test_module_presentation_round_trip(s3, rp3):
    # Expanding the interval presentation reproduces the graded dims.
    for g, base in ((s3, (-1,)), (rp3, (0,)), (rp3, (2,))):
        region = truncation_region(g, base, 3)
        _, hom = _presentation_data(g, base, 3, box=region)
        pres = module_presentation(hom, 3)
        expanded = {}
        for deg, mod in pres.items():
            for bottom in mod.towers:
                for k in range(bottom, 2 * 3 + 1, 2):
                    expanded[(deg, k)] = expanded.get((deg, k), 0) + 1
            for bottom, length in mod.torsions:
                for k in range(bottom, bottom + 2 * length, 2):
                    expanded[(deg, k)] = expanded.get((deg, k), 0) + 1
        assert expanded == hom.dims


def test_class_cells_sublevel_is_exact(rp3):
    bank = class_cells(rp3, (0,), 3)
    # Points are precisely the sublevel set of the weight cap.
    assert sorted(bank.points) == [(-1,), (0,), (1,)]
    assert bank.points[(1,)] == ((-4,), 1)
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
    # Under these map faults the ranks on homology still look exact; only
    # the chain-map sample inside verify_ses sees them, so les_check must
    # carry that verdict.
    ctx = triangle_context(chain(-2, -2), "v0")
    with faults.injected(fault):
        ses = verify_ses(ctx, default_region(ctx, 3))
        rep = les_check(ctx, 3, ses)
    assert not ses.chain_maps_ok
    assert not rep.exact


def test_les_rejects_the_ses_report_of_another_triangle():
    g = chain(-2, -2)
    other = triangle_context(g, "v1")
    ses = verify_ses(other, default_region(other, 3))
    with pytest.raises(ValueError, match="another triangle"):
        les_check(triangle_context(g, "v0"), 3, ses)


def test_graded_complex_escape_tracking():
    # A box that clips the sublevel set leaves escape marks instead of
    # silently wrong matrices.
    g = vertex(-2)
    box = Region(g, (0,), (0,), (1,), 3)
    bank = class_cells(g, (0,), 3, box=box)
    assert bank.complete_to is None
    cx = GradedGF2Complex(bank, 3)
    for pg in cx.pieces():
        cx.delta_matrix(*pg)
    assert cx.escaped


def test_u_delta_commute_as_matrices():
    g = chain(-2, -3)
    region = truncation_region(g, tuple(g.weights), 3)
    cx = _presentation_data(g, tuple(g.weights), 3, box=region)[1].cx
    for deg, grade in cx.pieces():
        du = gf2.matmul(cx.delta_matrix(deg, grade - 2), cx.u_matrix(deg, grade))
        ud = gf2.matmul(cx.u_matrix(deg + 1, grade), cx.delta_matrix(deg, grade))
        assert du == ud


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

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


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
        if (is_negative_definite(g).form_negative_definite
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
        _, hom = _presentation_data(g, cls.base, mcap, box=box)
        assert pres.dims == hom.dims
        assert pres.degrees == module_presentation(hom, mcap)


@pytest.mark.parametrize("g, mcap", _certificate_cases()[:4])
def test_reported_region_reproduces_the_answer(g, mcap):
    # Both for a certified answer and for one on a box that clips the
    # sublevel set (a corner box at its least offset).
    for cls in spinc_representatives(g):
        x0 = min(class_cells(g, cls.base, mcap).points)
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
