"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line; tolerances are exact (GF(2) and
integer arithmetic throughout).  Runtime-bounded criteria assert their
budgets too.
"""

import time

from latcoh import (Chain, default_region, faults, les_check, make_graph,
                    map_A, spinc_representatives, stabilize,
                    triangle_context, verify_ses)
from latcoh.engine import DegreeModule
from latcoh.lattice import Region, delta_squared_check, weight_monotonicity_check
from latcoh import suites

from conftest import chain, e8, vertex


def report(num, name, ok, detail=""):
    print("ACCEPTANCE %d [%s]: %s %s" % (num, name, "PASS" if ok else "FAIL",
                                         detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


def test_criterion_1_delta_squared_corpus():
    t0 = time.time()
    res = suites.suite_delta_squared(seed=20240, graphs=50, mcap=5)
    took = time.time() - t0
    ok = res.passed and res.checked > 0 and took < 60
    report(1, "delta-squared corpus", ok,
           "graphs=50 checked=%d %.1fs (budget 60s) failures=%s"
           % (res.checked, took, res.failures[:1]))


def test_criterion_2_exponent_formula_oracle():
    res = suites.suite_c_formula(seed=20241, graphs=20, i_range=8)
    report(2, "exponent closed form == definition", res.passed,
           "graphs=20 comparisons=%d failures=%s"
           % (res.checked, res.failures[:1]))


def test_criterion_3_chain_map_identities():
    t0 = time.time()
    res = suites.suite_chain_maps(seed=20242, graphs=40, mcap=3, target=10500)
    took = time.time() - t0
    ok = res.passed and res.checked >= 10 ** 4
    report(3, "delta A = A delta and delta B = B delta", ok,
           "checked=%d (need >= 10^4) %.1fs failures=%s"
           % (res.checked, took, res.failures[:1]))


SES_CORPUS = [
    (([("a", -2)], []), "a"),
    (([("a", -2), ("b", -2)], [("a", "b")]), "a"),
    (([("a", -2), ("b", -2)], [("a", "b")]), "b"),
    (([("a", -2), ("b", -3), ("c", -2)], [("a", "b"), ("b", "c")]), "b"),
    (([("a", -3), ("b", -2)], [("a", "b")]), "a"),
]


def _ses_battery():
    """Full verification battery; returns dict of named boolean checks."""
    out = {}
    for i, (spec, v) in enumerate(SES_CORPUS):
        g = make_graph(spec)
        try:
            ctx = triangle_context(g, v)
            rep = verify_ses(ctx, default_region(ctx, 3))
            out["ses%d" % i] = rep.passed
        except Exception:
            out["ses%d" % i] = False
    g = make_graph(SES_CORPUS[1][0])
    try:
        reg = Region(g, (0, 0), (-3, -3), (3, 3), 3)
        out["delta_squared"] = delta_squared_check(reg, mcaps=(1, 3))
        out["monotonicity"] = weight_monotonicity_check(
            Region(g, (0, 0), (-2, -2), (2, 2), 2))
    except Exception:
        out["weights"] = False
    return out


def test_criterion_4_ses_exactness_and_mutations():
    t0 = time.time()
    clean = _ses_battery()
    ok = all(clean.values())
    caught = {}
    for name in faults.FAULTS:
        with faults.injected(name):
            res = _ses_battery()
        caught[name] = [k for k, v in res.items() if not v]
    all_caught = all(caught.values())
    took = time.time() - t0
    report(4, "chain-level SES + 5 seeded mutations",
           ok and all_caught and took < 10,
           "clean=%s mutations_caught={%s} %.1fs (budget 10s)"
           % (ok, ", ".join("%s:%d" % (k, len(v)) for k, v in caught.items()),
              took))


def test_criterion_5_les_exactness():
    t0 = time.time()
    triples = [
        (([("a", -2)], []), "a"),
        (([("a", -2), ("b", -2)], [("a", "b")]), "a"),
        (([("a", -2), ("b", -2)], [("a", "b")]), "b"),
        (([("a", -2), ("b", -3), ("c", -2)], [("a", "b"), ("b", "c")]), "b"),
    ]
    results = []
    for spec, v in triples:
        ctx = triangle_context(make_graph(spec), v)
        ses = verify_ses(ctx, default_region(ctx, 3))
        results.append(les_check(ctx, 3, ses).exact)
    took = time.time() - t0
    ok = all(results) and took < 120
    report(5, "long exact sequence on homology", ok,
           "triples=%d exact=%s %.1fs (budget 120s)"
           % (len(triples), results, took))


def test_criterion_6_known_values():
    t0 = time.time()
    tower = DegreeModule(towers=(0,), torsions=())
    checks = []

    g = vertex(-1)
    reps = spinc_representatives(g)
    pres = [stabilize(g, c, 3) for c in reps]
    checks.append(("S3", len(reps) == 1 and all(
        p.stabilized and p.degrees == {0: tower} for p in pres)))

    g = vertex(-2)
    reps = spinc_representatives(g)
    pres = [stabilize(g, c, 3) for c in reps]
    checks.append(("RP3", len(reps) == 2 and all(
        p.stabilized and p.degrees == {0: tower} for p in pres)))

    g = chain(-2, -2)
    reps = spinc_representatives(g)
    pres = [stabilize(g, c, 3) for c in reps]
    checks.append(("chain(-2,-2)", len(reps) == 3 and all(
        p.stabilized and p.degrees == {0: tower} for p in pres)))

    t_e8 = time.time()
    g = e8()
    reps = spinc_representatives(g)
    pres = [stabilize(g, c, 2) for c in reps]
    e8_time = time.time() - t_e8
    checks.append(("E8", len(reps) == 1 and all(
        p.stabilized and p.degrees == {0: tower} for p in pres)
        and e8_time < 600))

    ok = all(flag for _, flag in checks)
    report(6, "known values S3/RP3/chain/E8", ok,
           "%s total=%.1fs e8=%.1fs (budget 600s)"
           % ([(n, f) for n, f in checks], time.time() - t0, e8_time))


def test_criterion_7_basis_image_formulas():
    g = vertex(-2)
    ctx = triangle_context(g, "a")
    reg = default_region(ctx, 3)
    t = 2  # normalizes the corner gap r((K,t),{v}) to zero
    failures = []
    for i in range(-4, 5):
        img = map_A(ctx, Chain.dual((t + 2 * i + 1,), 1, 0), reg)
        got = sorted(term[0][0] for term in img.terms)
        if i >= 0:
            want = [t + 2 * i, t + 2 * i + 2]
        elif i == -1:
            want = [t]
        else:
            want = [t + 2 * i + 2, t + 2 * i + 4]
        if got != want or img.escaped:
            failures.append((i, got, want))
    # Same display on a two-vertex instance, r normalized to zero at v0.
    g2 = chain(-2, -2)
    ctx2 = triangle_context(g2, "v0")
    reg2 = default_region(ctx2, 3)
    from latcoh import r_value
    t2 = next(t for t in range(-8, 10, 2) if r_value(ctx2, (t, 0), 1) == 0)
    for i in range(-4, 5):
        img = map_A(ctx2, Chain.dual((t2 + 2 * i + 1, 0), 1, 0), reg2)
        got = sorted(term[0][0] for term in img.terms)
        if i >= 0:
            want = [t2 + 2 * i, t2 + 2 * i + 2]
        elif i == -1:
            want = [t2]
        else:
            want = [t2 + 2 * i + 2, t2 + 2 * i + 4]
        if got != want or img.escaped:
            failures.append(("2v", i, got, want))
    report(7, "dual basis images of A at r = 0", not failures,
           "i in [-4,4] on two instances; failures=%s" % failures[:2])
