import contextlib
import random
from pathlib import Path

import pytest

from latcoh import (Chain, LatcohError, RegionTooSmallError, c_exponent_closed,
                    c_exponent_def, faults, gf2, graph_hash, is_in_D,
                    is_negative_definite, make_graph, map_A, map_B,
                    parse_graph, r_value, triangle_context, verify_ses)
from latcoh import default_region
from latcoh.lattice import OutsideRegionError, bits, relative_weight
from latcoh.suites import random_graph, random_graph_with_classes
from latcoh.triangle import (SesReport, TriangleRegion, _a_targets,
                             _a_window, _chain_map_sample, _g_vector,
                             _interior_y, _t_margin, c_window,
                             chain_map_commutes, chain_map_trials)

from conftest import chain, vertex
from test_acceptance import SES_CORPUS

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.fixture
def ctx1(rp3):
    return triangle_context(rp3, "a")


@pytest.fixture
def ctx2():
    return triangle_context(chain(-2, -2), "v0")


# --- r ------------------------------------------------------------------

def test_r_single_vertex(ctx1):
    # q(K, {}) - q(K + 2E_v, {}) at t = 0 is 0 - 1.
    assert r_value(ctx1, (0,), "a") == -1
    with pytest.raises(LatcohError):
        r_value(ctx1, (0,), [])


def _step_law_cases():
    """The SES corpus at U cap 3, and seeded random definite trees at U cap
    1 on a narrower window, each with every vertex distinguished."""
    cases = [(make_graph(spec), v, 3, 6) for spec, v in SES_CORPUS]
    rng = random.Random(17)
    while len(cases) < len(SES_CORPUS) + 6:
        g = random_graph(rng, max_vertices=4, weights=(-4, -1), extra_edge=0)
        if is_negative_definite(g):
            cases += [(g, v, 1, 3) for v in g.vertices]
    return cases


def test_r_shift_law():
    # The step law verify_ses keys its block types on: along the t-line
    # r((K, t), S) rises by exactly 1 per offset step, for every S holding v
    # and every interior y.
    checked = 0
    for g, v, mcap, half in _step_law_cases():
        ctx = triangle_context(g, v)
        region = default_region(ctx, mcap, y_halfwidth=half)
        vi = ctx.v_index
        lo, hi = region.off_lo[vi], region.off_hi[vi]
        for y in _interior_y(region):
            for smask in range(1 << g.n):
                if not ctx.has_v(smask):
                    continue
                r0 = r_value(ctx, _g_vector(ctx, y, lo), smask)
                for t in range(lo, hi + 1):
                    assert r_value(ctx, _g_vector(ctx, y, t), smask) == r0 + t - lo
                    checked += 1
    assert checked > 10 ** 4


def test_r_zero_when_corners_match(ctx1):
    # t = 2 balances the two corners of the edge cube.
    assert r_value(ctx1, (2,), "a") == 0


# --- the exponent c -------------------------------------------------------

def test_c_without_v_is_quadratic(ctx2):
    for i in range(-6, 7):
        for smask in (0, 2):  # subsets avoiding v0
            assert c_exponent_def(ctx2, i, (0, 0), smask) == i * (i + 1) // 2
            assert c_exponent_closed(ctx2, i, (0, 0), smask) == i * (i + 1) // 2


def test_c_examples_with_v(ctx1):
    k = (6,)  # r = 2
    assert r_value(ctx1, k, "a") == 2
    assert c_exponent_def(ctx1, -4, k, "a") == 5
    assert c_exponent_closed(ctx1, -4, k, "a") == 5
    k0 = (2,)  # r = 0
    zeros = [i for i in range(-8, 9) if c_exponent_closed(ctx1, i, k0, "a") == 0]
    assert zeros == [-2, -1, 0]
    k2 = (6,)  # r = 2 >= max{0, -1}
    assert c_exponent_closed(ctx1, 0, k2, "a") == 0


def test_c_zero_set_matches_case_analysis(ctx1):
    # v in S: c = 0 iff (i = 0 and r >= 0) or i = -1 or (i = -2 and r <= 0).
    for t in range(-6, 10, 2):
        r = r_value(ctx1, (t,), "a")
        for i in range(-6, 7):
            expected = (i == 0 and r >= 0) or i == -1 or (i == -2 and r <= 0)
            assert (c_exponent_closed(ctx1, i, (t,), "a") == 0) == expected


def test_c_def_equals_closed_sweep(ctx2):
    for t in range(-6, 8, 2):
        for kb in range(-6, 8, 2):
            for smask in range(4):
                for i in range(-8, 9):
                    a = c_exponent_def(ctx2, i, (t, kb), smask)
                    b = c_exponent_closed(ctx2, i, (t, kb), smask)
                    assert a == b and a >= 0


def test_c_window_bound(ctx1):
    # Every i with c(i) <= m lies in the precomputed window.
    for m in range(6):
        window = set(c_window(m))
        for t in range(-4, 8, 2):
            for i in range(-12, 13):
                if c_exponent_closed(ctx1, i, (t,), "a") <= m:
                    assert i in window


@pytest.mark.parametrize("name, v", [("chain22.graph", "b"),
                                     ("star232.graph", "b"), ("rp3.graph", "a")])
def test_c_window_lemma(name, v):
    # c(i) >= min(i(i+1)/2, (i+1)(i+2)/2) for every S holding v, with K
    # walked along the t-line far enough that r, one step per offset by the
    # step law, crosses every case boundary of i in -12..12; so c is never
    # negative, and c_window(m) holds every i with c(i) <= m.
    ctx = triangle_context(parse_graph((DATA / name).read_text()), v)
    y = (0,) * (ctx.graph.n - 1)
    for smask in range(1 << ctx.graph.n):
        if not ctx.has_v(smask):
            continue
        rs = set()
        for t in range(-30, 31):
            k = _g_vector(ctx, y, t)
            rs.add(r_value(ctx, k, smask))
            for i in range(-12, 13):
                c = c_exponent_closed(ctx, i, k, smask)
                assert c >= min(i * (i + 1) // 2, (i + 1) * (i + 2) // 2)
                for m in range(6):
                    assert c > m or i in c_window(m)
        assert len(rs) == 61 and min(rs) < -13 and max(rs) > 12


def test_qprime_vs_q_corner_relation():
    # Relative weights on the raised graph differ from those on G by
    # (i + 1) exactly when the distinguished vertex enters the corner set.
    rng = random.Random(13)
    for _ in range(12):
        g = random_graph_with_classes(rng, 3, det_cap=50)
        v = g.vertices[rng.randrange(g.n)]
        ctx = triangle_context(g, v)
        vi = ctx.v_index
        k = tuple(w + 2 * rng.randint(-2, 2) for w in g.weights)
        for i in range(-3, 4):
            kp = tuple(x + (2 * i + 1 if j == vi else 0) for j, x in enumerate(k))
            for tmask in range(1 << g.n):
                x = tuple(1 if (tmask >> j) & 1 else 0 for j in range(g.n))
                lhs = relative_weight(ctx.plus, kp, x)
                rhs = (relative_weight(ctx.graph, k, x)
                       - (i + 1) * ((tmask >> vi) & 1))
                assert lhs == rhs


# --- the chain maps -------------------------------------------------------

def test_map_a_pair_formula(ctx2):
    # v not in S at filtration 0: the image is the adjacent pair.
    reg = default_region(ctx2, 3)
    img = map_A(ctx2, Chain.dual((1, 0), 0, 0), reg)
    assert img.terms == {((0, 0), 0, 0), ((2, 0), 0, 0)}
    assert not img.escaped


def test_map_a_three_case_display(ctx1):
    reg = default_region(ctx1, 3)
    t = 2  # r((K,t),{v}) = 0
    for i in range(-4, 5):
        img = map_A(ctx1, Chain.dual((t + 2 * i + 1,), 1, 0), reg)
        ts = sorted(term[0][0] for term in img.terms)
        if i >= 0:
            assert ts == [t + 2 * i, t + 2 * i + 2]
        elif i == -1:
            assert ts == [t]
        else:
            assert ts == [t + 2 * i + 2, t + 2 * i + 4]


def test_map_a_u_equivariance(ctx2):
    reg = default_region(ctx2, 4)
    for t0 in (1, 3, -1):
        for m in (1, 2, 4):
            e = Chain.dual((t0, 0), 1, m)
            lhs = map_A(ctx2, e.times_u(), reg)
            rhs = map_A(ctx2, e, reg).times_u()
            assert lhs.terms == rhs.terms


def test_map_b(ctx2):
    reg = default_region(ctx2, 3)
    img = map_B(ctx2, Chain.dual((0, 2), 0, 2), reg)
    assert img.terms == {((2,), 0, 2)}
    assert not map_B(ctx2, Chain.dual((0, 2), 1, 2), reg)  # v in S dies
    pair = Chain(frozenset([((0, 0), 2, 1), ((2, 0), 2, 1)]))
    assert not map_B(ctx2, pair, reg)  # equal images cancel over GF(2)


def test_is_in_d(ctx2):
    assert is_in_D(ctx2, Chain.dual((0, 0), 1, 0))          # v in S
    pair = Chain(frozenset([((0, 0), 2, 1), ((2, 0), 2, 1)]))
    assert is_in_D(ctx2, pair)
    assert not is_in_D(ctx2, Chain.dual((0, 0), 2, 1))      # odd fiber count
    mixed = Chain(pair.terms | {((0, 0), 1, 3)})
    assert is_in_D(ctx2, mixed)


def test_kernel_membership_matches_b():
    rng = random.Random(31)
    g = chain(-2, -3)
    ctx = triangle_context(g, "v1")
    for _ in range(60):
        terms = set()
        for _ in range(rng.randint(1, 6)):
            t = g.weights[1] + 2 * rng.randint(-3, 3)
            kb = g.weights[0] + 2 * rng.randint(-2, 2)
            terms.add(((kb, t), rng.randrange(4), rng.randint(0, 3)))
        e = Chain(frozenset(terms))
        assert is_in_D(ctx, e) == (not map_B(ctx, e, None))


# --- chain-map identities and the short exact sequence ---------------------

def test_chain_maps_commute_samples(ctx2):
    reg = default_region(ctx2, 3)
    vi = ctx2.v_index
    checked = 0
    for s_off in range(-3, 4):
        for smask in range(4):
            for m in (0, 2, 3):
                kg = tuple(b + 2 * (s_off if j == vi else 0)
                           for j, b in enumerate(ctx2.base_g))
                kp = tuple(x + 1 if j == vi else x for j, x in enumerate(kg))
                for which, k in (("A", kp), ("B", kg)):
                    try:
                        assert chain_map_commutes(ctx2, reg, k, smask, m, which)
                        checked += 1
                    except ValueError:
                        pass
    assert checked > 50


def test_verify_ses_single_vertex(ctx1):
    rep = verify_ses(ctx1, default_region(ctx1, 3))
    assert rep.passed
    assert rep.dim_ker_A == 0
    assert rep.dim_im_A == rep.dim_domain
    assert rep.dim_ker_B > 0
    assert rep.b_surjective and rep.ba_zero
    assert rep.ker_b_equals_im_a and rep.ker_b_equals_d


def test_verify_ses_chain_both_vertices():
    g = chain(-2, -2)
    for v in ("v0", "v1"):
        ctx = triangle_context(g, v)
        rep = verify_ses(ctx, default_region(ctx, 3))
        assert rep.passed, rep.to_json()


def test_verify_ses_region_too_small(ctx1):
    from latcoh.triangle import TriangleRegion
    tiny = TriangleRegion(ctx1, (-3,), (3,), 3)
    with pytest.raises(RegionTooSmallError):
        verify_ses(ctx1, tiny)


@pytest.mark.parametrize("name, v", [("rp3", "a"), ("chain22", "a"),
                                     ("chain22", "b")])
def test_verify_ses_passes_beyond_cap_six(name, v):
    # The old margin 2 ceil(sqrt(2 mcap)) + 4 fell behind aw + mcap + 1 at
    # cap 7 and ker_b_equals_im_a failed with no fault active.
    ctx = triangle_context(parse_graph((DATA / (name + ".graph")).read_text()), v)
    for mcap in (7, 8, 9, 10):
        assert _t_margin(mcap) == _a_window(mcap) + mcap + 1
        rep = verify_ses(ctx, default_region(ctx, mcap))
        assert rep.passed, (mcap, rep.to_json())


def _zero_of_r(ctx, y, smask, lo):
    """The t-offset s0 where r((K, t), S) = 0, by the step law."""
    return lo - r_value(ctx, _g_vector(ctx, y, lo), smask)


@pytest.mark.parametrize("name, v", [("rp3", "a"), ("chain22", "b"),
                                     ("star232", "b")])
def test_a_preimages_fill_the_margin_lemma_hull(name, v):
    # The lemma of _t_margin, on the real A of one block in a wide window:
    # each D generator at power m is A of G+ duals inside its hull (with m
    # for mcap), and at m = mcap the hull is reached at both ends, so the
    # bound is tight.
    ctx = triangle_context(parse_graph((DATA / (name + ".graph")).read_text()), v)
    vi, wide, y = ctx.v_index, 40, (0,) * (ctx.graph.n - 1)
    for mcap in (3, 8):
        aw = _a_window(mcap)
        rows = {(t, m): idx for idx, (t, m) in enumerate(
            (t, m) for t in range(-wide, wide + 1) for m in range(mcap + 1))}
        srcs = [(p, m) for p in range(aw - wide, wide - aw + 1)
                for m in range(mcap + 1)]
        for smask in range(1 << ctx.graph.n):
            image = gf2.Quotient(gf2.Basis())
            for p, m in srcs:
                kp = ctx.to_plus(_g_vector(ctx, y, p))
                assert image.add(sum(
                    1 << rows[((kg[vi] - ctx.base_g[vi]) // 2, m2)]
                    for kg, _, m2 in _a_targets(ctx, kp, smask, m)[m]))
            inside = ctx.has_v(smask)
            s0 = _zero_of_r(ctx, y, smask, -wide) if inside else 0
            reach = set()
            for s in range(s0 - 6, s0 + 7):
                for m in range(mcap + 1):
                    gen = 1 << rows[(s, m)]
                    if not inside:
                        gen ^= 1 << rows[(s + 1, m)]
                    used = [srcs[j][0] for j in bits(image.coords(gen))]
                    lo, hi = ((min(s, s0) - m - 1, max(s, s0) + m - 1)
                              if inside else (s - m, s + m))
                    assert lo <= min(used) and max(used) <= hi
                    if m == mcap:
                        reach.update(used)
            assert min(reach) == s0 - 6 - mcap - inside
            assert max(reach) == s0 + 6 + mcap - inside


def test_default_region_holds_every_zero_of_r():
    # default_region must hold each s0 in [lo + aw + mcap + 1,
    # hi - aw - mcap + 1]; a weight of -12 or below put it outside the
    # old window at cap 1 and the check failed with no fault active.
    graphs = [(parse_graph((DATA / (name + ".graph")).read_text()), v)
              for name, v in (("rp3", "a"), ("chain22", "b"),
                              ("star232", "b"), ("star1337", "d"))]
    graphs += [(vertex(-12), "a"), (vertex(-20), "a"),
               (make_graph(([("a", -2), ("b", -15), ("c", -3)],
                            [("a", "b", 1), ("b", "c", -1)])), "b")]
    for g, v in graphs:
        ctx = triangle_context(g, v)
        for mcap in range(9):
            region = default_region(ctx, mcap, y_halfwidth=3)
            vi, aw = ctx.v_index, _a_window(mcap)
            lo, hi = region.off_lo[vi], region.off_hi[vi]
            for y in _interior_y(region):
                for smask in range(1 << g.n):
                    if ctx.has_v(smask):
                        s0 = _zero_of_r(ctx, y, smask, lo)
                        assert lo + aw + mcap + 1 <= s0 <= hi - aw - mcap + 1
        if g.n == 1:
            assert verify_ses(ctx, default_region(ctx, 1)).passed


def test_verify_ses_catches_b_parity_fault(ctx1):
    with faults.injected("b-parity-skip"):
        rep = verify_ses(ctx1, default_region(ctx1, 3))
    assert not rep.ba_zero
    assert not rep.passed


def test_b_surjective_fails_on_one_odd_middle_offset(ctx2):
    # b-parity-skip drops B on odd t-offsets; with a middle zone of one odd
    # offset no B target of a block is hit.
    vi = ctx2.v_index
    lo, hi = [-3, -3], [3, 3]
    lo[vi], hi[vi] = 1 - _t_margin(1), 1 + _t_margin(1)
    region = TriangleRegion(ctx2, tuple(lo), tuple(hi), 1)
    assert region.t_middle == (1, 1)
    assert verify_ses(ctx2, region).b_surjective
    with faults.injected("b-parity-skip"):
        rep = verify_ses(ctx2, region)
    assert not rep.b_surjective and not rep.passed


def test_verify_ses_checks_the_step_law(ctx2, monkeypatch):
    # The block types rest on r rising by 1 per t-offset step; a gap that
    # breaks the law at the window's last t must stop the check.
    import latcoh.triangle as tri
    region = default_region(ctx2, 1)
    hi = region.off_hi[ctx2.v_index]
    exact_r = tri.r_value

    def broken_r(ctx, k, s):
        t_off = (k[ctx.v_index] - ctx.base_g[ctx.v_index]) // 2
        return exact_r(ctx, k, s) + (t_off == hi)

    monkeypatch.setattr(tri, "r_value", broken_r)
    with pytest.raises(LatcohError, match=r"step law .* S=\['v0'\]"):
        verify_ses(ctx2, region)


def test_verify_ses_report_json_round_trip(ctx1):
    import json
    rep = verify_ses(ctx1, default_region(ctx1, 3))
    doc = json.dumps(rep.to_json(), sort_keys=True)
    assert json.loads(doc)["passed"] is True


def test_map_b_u_equivariance(ctx2):
    reg = default_region(ctx2, 3)
    for t in (0, 2, -2):
        for m in (1, 3):
            e = Chain.dual((t, 0), 2, m)
            assert map_B(ctx2, e.times_u(), reg).terms == \
                map_B(ctx2, e, reg).times_u().terms


def _reference_verify_ses(ctx, region):
    """verify_ses as one elimination per (y, S) block, with no block types:
    the reference the per-type memo is compared against."""
    vi = ctx.v_index
    mcap = region.mcap
    slo, shi = region.off_lo[vi], region.off_hi[vi]
    mid_lo, mid_hi = region.t_middle
    plus_lo, plus_hi = region.plus.lo[vi], region.plus.hi[vi]
    if mid_lo > mid_hi or plus_lo > plus_hi:
        raise RegionTooSmallError(
            "t-window [%d, %d] cannot fit margin %d; increase the region "
            "or lower the U cap" % (slo, shi, _t_margin(mcap)))

    full = (1 << ctx.graph.n) - 1
    dim_domain = dim_ker_a = dim_im_a = 0
    dim_ker_b = dim_im_b = dim_b_targets = 0
    ba_zero = ker_b_equals_im_a = ker_b_equals_d = True
    blocks = 0

    rows = [(s_off, m) for s_off in range(slo, shi + 1) for m in range(mcap + 1)]
    row_index = {row: idx for idx, row in enumerate(rows)}
    for y in _interior_y(region):
        for smask in range(full + 1):
            blocks += 1
            a_cols = []
            a_chains = []
            for s_off in range(plus_lo, plus_hi + 1):
                kp = ctx.to_plus(_g_vector(ctx, y, s_off))
                for m in range(mcap + 1):
                    vec = 0
                    targets = _a_targets(ctx, kp, smask, m)[m]
                    for kg, _, m2 in targets:
                        t_off = (kg[vi] - ctx.base_g[vi]) // 2
                        idx = row_index.get((t_off, m2))
                        if idx is None:
                            ba_zero = False
                            continue
                        vec ^= 1 << idx
                    a_cols.append(vec)
                    a_chains.append(targets)
            a_span = gf2.Basis(a_cols)
            dim_domain += len(a_cols)
            dim_im_a += a_span.rank
            dim_ker_a += len(a_cols) - a_span.rank

            for targets in a_chains:
                if map_B(ctx, Chain(frozenset(targets)), None):
                    ba_zero = False

            mids = list(range(mid_lo, mid_hi + 1))
            if ctx.has_v(smask):
                gens = []
                for s_off in mids:
                    for m in range(mcap + 1):
                        gens.append(1 << row_index[(s_off, m)])
                dim_ker_b += len(gens)
            else:
                b_cols = []
                for s_off in mids:
                    for m in range(mcap + 1):
                        image = map_B(ctx, Chain.dual(_g_vector(ctx, y, s_off),
                                                      smask, m), None)
                        col = 0
                        for *_, m2 in image.terms:
                            col ^= 1 << m2
                        b_cols.append(col)
                b_rank = gf2.rank(b_cols)
                dim_im_b += b_rank
                dim_b_targets += mcap + 1
                dim_ker_b += len(b_cols) - b_rank
                gens = []
                for s_off in mids[:-1]:
                    for m in range(mcap + 1):
                        gens.append((1 << row_index[(s_off, m)])
                                    ^ (1 << row_index[(s_off + 1, m)]))
                if gf2.rank(gens) != len(b_cols) - b_rank:
                    ker_b_equals_d = False

            for g in gens:
                chain = Chain(frozenset((_g_vector(ctx, y, rows[idx][0]), smask,
                                         rows[idx][1]) for idx in bits(g)))
                if map_B(ctx, chain, None):
                    ker_b_equals_d = False
                if not a_span.contains(g):
                    ker_b_equals_im_a = False

    samples, failures = _chain_map_sample(ctx, region)
    return SesReport(
        graph_hash=graph_hash(ctx.graph), vertex=ctx.v,
        region=region.to_json(), blocks=blocks,
        dim_domain=dim_domain, dim_ker_A=dim_ker_a, dim_im_A=dim_im_a,
        dim_ker_B=dim_ker_b, dim_im_B=dim_im_b, dim_b_targets=dim_b_targets,
        ba_zero=ba_zero, b_surjective=(dim_im_b == dim_b_targets),
        ker_b_equals_im_a=ker_b_equals_im_a and ba_zero,
        ker_b_equals_d=ker_b_equals_d,
        chain_maps_ok=(failures == 0), chain_map_samples=samples)


def _outcome(fn, ctx, region):
    try:
        return fn(ctx, region)
    except LatcohError as err:
        return type(err), str(err)


@pytest.mark.parametrize("fault", (None,) + faults.FAULTS)
def test_verify_ses_equals_per_block_reference(fault):
    # One elimination per block type must report exactly what one
    # elimination per (y, S) block reports, also when a fault is active.
    for spec, v in SES_CORPUS:
        ctx = triangle_context(make_graph(spec), v)
        region = default_region(ctx, 3)
        with faults.injected(fault) if fault else contextlib.nullcontext():
            want = _outcome(_reference_verify_ses, ctx, region)
            got = _outcome(verify_ses, ctx, region)
        assert got == want, (spec, v, fault)
        if fault is None:
            assert isinstance(got, SesReport) and got.passed


def test_triangle_does_each_chain_level_computation_once(monkeypatch,
                                                         capsys):
    # On chain22 and star232 at b, cap 3: one cube-weight memo per (side,
    # K) for the whole run, one coface fan per (window, K, S) in each
    # chain_map_trials call, and one c(i) per (target, i) for each G+ dual
    # of a (y, S) block, each dual's targets built once per block.  The
    # run made 1,744 memos, 1,216 fans and recomputed c at every level.
    import latcoh.lattice as lat
    import latcoh.triangle as tri
    from latcoh.cli import main
    real = {name: getattr(mod, name) for mod, name in (
        (tri, "cube_weights"), (lat, "cofaces"), (tri, "chain_map_trials"),
        (tri, "_ses_block"), (tri, "_a_targets"),
        (tri, "c_exponent_closed"))}
    memos, fans, blocks, exps = [], [], [], []
    block = [None]      # the duals of the _ses_block call in progress

    def cube_weights(graph, base):
        memos[-1].append((graph.n, graph.weights, tuple(base)))
        return real["cube_weights"](graph, base)

    def cofaces(cube_weight, key, n):
        fans[-1].append((id(cube_weight), key))
        return real["cofaces"](cube_weight, key, n)

    def chain_map_trials(*args):
        fans.append([])
        yield from real["chain_map_trials"](*args)

    def ses_block(*args):
        block[0] = []
        blocks.append(block[0])
        try:
            return real["_ses_block"](*args)
        finally:
            block[0] = None

    def a_targets(ctx, k, smask, top):
        if block[0] is not None:
            block[0].append((k, smask))
            exps.append([])
        return real["_a_targets"](ctx, k, smask, top)

    def c_exponent_closed(ctx, i, k, s):
        if block[0] is not None:
            exps[-1].append((i, k, s))
        return real["c_exponent_closed"](ctx, i, k, s)

    for name, fn in (("cube_weights", cube_weights),
                     ("chain_map_trials", chain_map_trials),
                     ("_ses_block", ses_block), ("_a_targets", a_targets),
                     ("c_exponent_closed", c_exponent_closed)):
        monkeypatch.setattr(tri, name, fn)
    monkeypatch.setattr(lat, "cofaces", cofaces)
    for name in ("chain22", "star232"):
        memos.append([])
        assert main(["triangle", str(DATA / (name + ".graph")), "--vertex",
                     "b", "--max-depth", "3"]) == 0
    capsys.readouterr()
    assert [len(run) == len(set(run)) for run in memos] == [True, True]
    assert sum(map(len, memos)) == 580
    assert len(fans) == 2 and all(len(f) == len(set(f)) for f in fans)
    assert sum(map(len, fans)) == 672
    assert blocks and all(len(b) == len(set(b)) for b in blocks)
    assert sum(map(len, blocks)) == len(exps)
    assert all(len(e) == len(set(e)) == len(c_window(3)) for e in exps)


def test_verify_ses_drops_the_frames_it_made_for_r():
    # The G frames at the two ends of each y's t-window serve only that
    # y's corner gaps r; one a reader made before is kept.
    ctx = triangle_context(parse_graph((DATA / "star232.graph").read_text()),
                           "b")
    region = default_region(ctx, 3)
    vi = ctx.v_index
    ys = _interior_y(region)
    ends = {("g", _g_vector(ctx, y, t)) for y in ys
            for t in (region.off_lo[vi], region.off_hi[vi])}
    kept = ("g", _g_vector(ctx, ys[0], region.off_lo[vi]))
    ctx.cube_weights(*kept)
    assert verify_ses(ctx, region).passed
    assert len(ends) > 2 and ends & ctx.memos.keys() == {kept}


def _per_call_fan_trials(ctx, region, ys, t_offsets):
    """``chain_map_trials`` with each ``delta`` building its own fans."""
    for y in ys:
        for smask in range(1 << ctx.graph.n):
            for s_off in t_offsets:
                for m in (0, region.mcap):
                    kg = _g_vector(ctx, y, s_off)
                    for which, k in (("A", ctx.to_plus(kg)), ("B", kg)):
                        try:
                            ok = chain_map_commutes(ctx, region, k, smask, m,
                                                    which)
                        except (ValueError, OutsideRegionError):
                            continue
                        yield which, k, smask, m, ok


@pytest.mark.parametrize("fault", (None,) + faults.FAULTS)
def test_shared_fans_give_the_per_call_trials(fault):
    # One fan dict per window for a chain_map_trials call gives the trials
    # that per-call fans give, clean and under each fault; the context's
    # memos are shared by both and hold fault-free weights.
    for name, v, mcap in (("chain22", "b", 3), ("star232", "b", 2)):
        ctx = triangle_context(
            parse_graph((DATA / (name + ".graph")).read_text()), v)
        region = default_region(ctx, mcap)
        slo, shi = region.t_middle
        ys = _interior_y(region)[:3]
        offsets = (slo, (slo + shi) // 2, shi)
        with faults.injected(fault) if fault else contextlib.nullcontext():
            got = list(chain_map_trials(ctx, region, ys, offsets))
            want = list(_per_call_fan_trials(ctx, region, ys, offsets))
        assert got == want, (name, fault)
        oks = [ok for *_, ok in got]
        assert oks and (all(oks) if fault is None else True)


def test_a_window_with_no_interior_y_is_too_small_not_empty(ctx2):
    # The size guard counts zero blocks here; the window is still refused
    # by name, not checked as an empty sequence.
    region = default_region(ctx2, 1)
    hi = list(region.off_hi)
    hi[1 - ctx2.v_index] = region.off_lo[1 - ctx2.v_index] + 3
    with pytest.raises(RegionTooSmallError, match="no interior offsets"):
        verify_ses(ctx2, TriangleRegion(ctx2, region.off_lo, tuple(hi), 1))
