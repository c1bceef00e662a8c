"""The surgery triangle at chain level.

Fix a vertex v of G.  Write characteristic vectors of G and of the graph
G+ (same graph, m(v) raised by one) as (K, t): K is the restriction away
from v and t the value at v.  Parities force t = m(v) mod 2 on G and
t = m(v) + 1 mod 2 on G+.

Two GF(2)[U]-equivariant chain maps connect the three cochain complexes:

    A : C+(G+) -> C+(G)      on duals, U^-m ((K,t0),S)^v picks up the sum
        over integers i with exponent c(i) <= m of
        U^-(m - c(i)) ((K, t0-2i-1), S)^v;

    B : C+(G) -> C+(G-v)     on duals, U^-m ((K,t),S)^v maps to
        U^-m (K, S)^v when v is outside S, and to zero otherwise.

The exponent c has two independent computations: one straight from the
definition as a difference of cube weights on G and G+, and a closed
four-case form driven by the corner gap r((K,t),S).  Keeping both is the
point: their agreement is machine-checked over the whole test corpus.

This module also verifies, on finite windows, that A and B assemble into a
short exact sequence: A injective, B surjective, B A = 0, and the kernel of
B equals both the image of A and the explicitly described submodule D
(spanned by duals with v in S and by adjacent pairs in the t-direction).
"""

import functools
from dataclasses import dataclass, field
from math import isqrt

from . import faults, gf2
from .graph import (LatcohError, PlumbingGraph, characteristic_base,
                    delete_vertex, graph_hash, increment_weight,
                    intersection_matrix)
from .lattice import (BASIS_CAP, BasisCapError, Chain, OutsideRegionError,
                      RegionTooSmallError, bits, cube_weights, delta,
                      key_steps, mask_of, origin)


@dataclass(frozen=True)
class TriangleContext:
    """The three graphs of a surgery triangle with aligned coordinates.

    Vertices of G-v keep their relative order, so masks and coordinate
    vectors restrict by dropping the distinguished index.
    """

    graph: PlumbingGraph
    v: str
    v_index: int
    plus: PlumbingGraph
    minus: PlumbingGraph
    base_g: tuple
    base_plus: tuple
    base_minus: tuple
    memos: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def cube_weights(self, side: str, k):
        """Cube weights, by cube key, relative to K on one side of the
        triangle: G (``side`` "g"), G+ ("plus") or G-v ("minus").

        The context is the one owner of these memos: one per (side, K),
        kept for its lifetime (``verify_ses`` drops the G frames it made
        for r when their y is done) and read by ``r_value``,
        ``c_exponent_def`` and every ``TriangleRegion``'s ``KBox``
        windows; nothing else on the chain level is memoised across
        calls.  They hold fault-free values, safe under any fault set."""
        weight = self.memos.get((side, k))
        if weight is None:
            graph = {"g": self.graph, "plus": self.plus,
                     "minus": self.minus}[side]
            weight = self.memos[side, k] = cube_weights(graph, k)
        return weight

    def to_plus(self, k) -> tuple:
        """The G+ vector (K, t + 1) over the G vector (K, t)."""
        vi = self.v_index
        return tuple(x + 1 if j == vi else x for j, x in enumerate(k))

    def restrict_coords(self, k) -> tuple:
        vi = self.v_index
        return tuple(x for i, x in enumerate(k) if i != vi)

    def restrict_mask(self, s: int) -> int:
        vi = self.v_index
        low = s & ((1 << vi) - 1)
        return low | ((s >> (vi + 1)) << vi)

    def has_v(self, s: int) -> bool:
        return bool((s >> self.v_index) & 1)


def triangle_context(graph: PlumbingGraph, v: str) -> TriangleContext:
    vi = graph.index(v)
    plus = increment_weight(graph, v)
    minus = delete_vertex(graph, v)
    return TriangleContext(graph, v, vi, plus, minus,
                           characteristic_base(graph),
                           characteristic_base(plus),
                           characteristic_base(minus))


def r_value(ctx: TriangleContext, k, s) -> int:
    """Corner gap r((K,t),S) = q((K,t),S-v) - q((K,t)+2E_v,S-v); v in S.

    Two reads of the context's cube weights of K on G, which the two
    brackets share with every other mask and reader of K."""
    smask = mask_of(ctx.graph, s)
    if not ctx.has_v(smask):
        raise LatcohError("r((K,t),S) needs v in S")
    weight = ctx.cube_weights("g", tuple(k))
    n, vi = ctx.graph.n, ctx.v_index
    corner = origin(n) << n | smask & ~(1 << vi)
    return weight(corner) - weight(corner + key_steps(n)[vi][1])


def c_exponent_def(ctx: TriangleContext, i: int, k, s) -> int:
    """The exponent straight from its definition: cube-weight brackets on G
    and on G+, plus the quadratic term."""
    n = ctx.graph.n
    corner = origin(n) << n | mask_of(ctx.graph, s)
    k = tuple(k)
    kp = list(k)
    kp[ctx.v_index] += 2 * i + 1
    bracket_g = ctx.cube_weights("g", k)(corner)
    bracket_p = ctx.cube_weights("plus", tuple(kp))(corner)
    return bracket_g - bracket_p + i * (i + 1) // 2


def c_exponent_closed(ctx: TriangleContext, i: int, k, s) -> int:
    """The exponent by the closed case analysis in r((K,t),S)."""
    smask = mask_of(ctx.graph, s)
    if not ctx.has_v(smask):
        return i * (i + 1) // 2
    if faults.is_active("c-always-first-case"):
        return i * (i + 1) // 2
    r = r_value(ctx, k, smask)
    if r >= max(0, -(i + 1)):
        c = i * (i + 1) // 2
    elif r <= min(0, -(i + 1)):
        c = (i + 1) * (i + 2) // 2
    elif 0 <= r <= -(i + 1):
        c = (i + 1) * (i + 2) // 2 + r
    else:
        c = i * (i + 1) // 2 - r
    if faults.is_active("c-drop-quadratic"):
        c -= i * (i + 1) // 2
    return c


@functools.cache
def c_window(m: int) -> tuple:
    """Integers i that can have c(i) <= m: those with
    b(i) = min(i(i+1)/2, (i+1)(i+2)/2) <= m.

    Lemma: c(i) >= b(i) >= 0 for every K, S and i, with no fault active.
    With v outside S, c = i(i+1)/2.  With v in S, take the four cases of
    ``c_exponent_closed`` in r = r((K,t),S):
    1. r >= max(0, -(i+1)): c = i(i+1)/2;
    2. r <= min(0, -(i+1)): c = (i+1)(i+2)/2;
    3. 0 <= r <= -(i+1): c = (i+1)(i+2)/2 + r, with r >= 0;
    4. otherwise min(0, -(i+1)) < r < max(0, -(i+1)) outside case 3,
       which forces i + 1 > 0 and -(i+1) < r < 0, so c = i(i+1)/2 - r
       exceeds i(i+1)/2.
    Each value is at least b(i), and b(i) >= 0, half a product of two
    consecutive integers.  So ``_a_targets`` needs no lower test on c."""
    reach = isqrt(2 * m) + 2
    return tuple(i for i in range(-reach - 2, reach + 2)
                 if min(i * (i + 1) // 2, (i + 1) * (i + 2) // 2) <= m)


def _a_targets(ctx: TriangleContext, k, smask: int, top: int) -> list:
    """Image terms of A on the duals U^-m ((K,t0),S)^v of G+, one list per
    level m = 0, ..., ``top``.  Each c(i) is evaluated once for all the
    levels; level m takes its i from ``c_window(m)``, in that order."""
    vi = ctx.v_index
    t0 = k[vi]
    kg = list(k)
    exps = {}
    for i in c_window(top):
        kg[vi] = t0 - 2 * i - 1
        target = tuple(kg)
        exps[i] = target, c_exponent_closed(ctx, i, target, smask)
    return [[(target, smask, m - c)
             for target, c in map(exps.__getitem__, c_window(m)) if c <= m]
            for m in range(top + 1)]


def map_A(ctx: TriangleContext, e: Chain, region) -> Chain:
    """Chain map A on finitely supported duals over G+.

    ``region`` is a TriangleRegion; sources must lie in its G+ window and
    image terms outside the G window (or above the U cap) are reported as
    escaped.  Degree-preserving and U-equivariant.
    """
    inside, out = set(), set()
    for k, s, m in e.terms:
        if (k[ctx.v_index] - ctx.base_plus[ctx.v_index]) % 2:
            raise LatcohError("term is not characteristic for the raised graph")
        if not region.plus.contains(k):
            raise OutsideRegionError("source term %r outside the G+ window" % ((k, s, m),))
        for term in _a_targets(ctx, k, s, m)[m]:
            ok = 0 <= term[2] <= region.mcap and region.g.contains(term[0])
            (inside if ok else out).symmetric_difference_update([term])
    return Chain(frozenset(inside), frozenset(out))


def _b_targets(ctx: TriangleContext, k, smask: int, m: int):
    """Image terms of B on the dual U^-m ((K,t),S)^v of G: none when v is
    in S, else U^-m (K,S)^v over G-v, independent of t."""
    vi = ctx.v_index
    if (k[vi] - ctx.base_g[vi]) % 2:
        raise LatcohError("term is not characteristic for G")
    if ctx.has_v(smask):
        return ()
    if faults.is_active("b-parity-skip") and ((k[vi] - ctx.base_g[vi]) // 2) % 2:
        return ()
    return ((ctx.restrict_coords(k), ctx.restrict_mask(smask), m),)


def map_B(ctx: TriangleContext, e: Chain, region) -> Chain:
    """Chain map B: forget the distinguished coordinate (``_b_targets``).

    With a TriangleRegion, image terms outside its G-v window are reported
    as escaped; with None every image term is kept.
    """
    inside, out = set(), set()
    for k, s, m in e.terms:
        for term in _b_targets(ctx, k, s, m):
            ok = region is None or region.minus.contains(term[0])
            (inside if ok else out).symmetric_difference_update([term])
    return Chain(frozenset(inside), frozenset(out))


def is_in_D(ctx: TriangleContext, e: Chain) -> bool:
    """Membership in D: duals with v in S are free; among the rest, each
    (K, S, m) fiber must carry an even number of t-values."""
    counts = {}
    for k, s, m in e.terms:
        if ctx.has_v(s):
            continue
        key = (ctx.restrict_coords(k), s, m)
        counts[key] = counts.get(key, 0) ^ 1
    return not any(counts.values())


# ---------------------------------------------------------------------------
# Finite windows for the triangle and the chain-level verification.


def _a_window(mcap: int) -> int:
    """Largest |i| that A's t-spread reaches at U cap ``mcap``."""
    return max(abs(i) for i in c_window(mcap))


def _t_margin(mcap: int) -> int:
    """Width cut from each end of the t-window [lo, hi] to leave the middle
    zone: aw + mcap + 1, aw = ``_a_window(mcap)``; at caps 0 to 5 the older
    width 2 ceil(sqrt(2 mcap)) + 4 is larger and kept, so reports stand.

    Lemma: in a (y, S) block, A maps G+ duals at offsets in
    [s - mcap, s + mcap] onto the D generator (s) + (s + 1) when v is
    outside S, and duals in [min(s, s0) - mcap - 1, max(s, s0) + mcap - 1]
    onto the generator (s) when v is in S, s0 the offset where r = 0.  For
    s in the middle zone both lie in the G+ window [lo + aw, hi - aw], the
    latter if lo + aw + mcap + 1 <= s0 <= hi - aw - mcap + 1 as well, which
    ``default_region`` ensures and ``verify_ses`` checks (``_check_s0``).

    Proof: A sends (p, m) to (p - i, m - c(i)), c reading r = t - s0 at the
    target t (the step law).  Split A = A0 (1 + N), A0 the terms with
    c = 0: p + 1 (i = -1), with p (i = 0) if v is outside S or p >= s0,
    and p + 2 (i = -2) if v is in S and p <= s0 - 2.  A0^-1 sends
    (s) + (s + 1) to s outside S, and t to every offset from
    min(t, s0) - 1 to max(t, s0) - 1 with v in S.  N lowers m by k >= 1
    and moves p by at most k, the depth-k terms of A p being A0 of offsets
    in [p - k, p + k]: outside S, p - j and p + 1 + j with
    k = T(j) = j(j+1)/2 >= j.  With v in S the reflection t -> 2 s0 - t,
    p -> 2 s0 - 2 - p keeps c, so let p >= s0 - 1.  At p = s0 - 1,
    c = T(|t - s0|).  At p >= s0, c = T(i) at t >= s0 and T(i) + s0 - t
    below (case 4): the depth-k terms are p + 1 + j, p - j if >= s0
    (T(j) = k) and at most one p - i < s0, and T(i) >= i > p - s0 puts
    A0^-1 of each combination in [p - k, p + k].  So
    A^-1 = (1 + N + N^2 + ...) A0^-1 moves p at most mcap past A0^-1.
    """
    r = isqrt(2 * mcap)
    return max(_a_window(mcap) + mcap + 1,
               2 * (r if r * r == 2 * mcap else r + 1) + 4)


@dataclass(frozen=True)
class KBox:
    """Characteristic vectors K of one side of a triangle with (K - base)/2
    in [lo, hi].

    Such a box meets several spin-c classes, so each K is its own frame for
    the coboundary: cube weights are taken relative to K at offset 0.  The
    box owns no memo: ``side`` names the side whose weights it reads
    through ``TriangleContext.cube_weights``, one memo per K for the
    context's lifetime.
    """

    ctx: TriangleContext = field(repr=False, compare=False)
    side: str
    graph: PlumbingGraph
    base: tuple
    lo: tuple
    hi: tuple
    mcap: int

    def __post_init__(self):
        n = self.graph.n
        if not len(self.base) == len(self.lo) == len(self.hi) == n:
            raise ValueError("window bounds need one entry per vertex (%d)" % n)

    def contains(self, k) -> bool:
        return all(a <= (c - b) // 2 <= h
                   for c, b, a, h in zip(k, self.base, self.lo, self.hi))

    def frame(self, k):
        """(packed offset 0, cube weights relative to K), or None outside."""
        if not self.contains(k):
            return None
        return origin(self.graph.n), self.ctx.cube_weights(self.side, k)


@dataclass(frozen=True)
class TriangleRegion:
    """Aligned coordinate window for all three complexes.

    Offsets are half coordinate differences against each graph's parity
    base; the same per-vertex bounds give the windows ``g`` of G, ``plus``
    of G+ (shrunk at v by the A-window so A never clips) and ``minus`` of
    G-v (v dropped).
    """

    ctx: TriangleContext
    off_lo: tuple
    off_hi: tuple
    mcap: int
    g: KBox = field(init=False, repr=False, compare=False)
    plus: KBox = field(init=False, repr=False, compare=False)
    minus: KBox = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ctx, lo, hi, mcap = self.ctx, self.off_lo, self.off_hi, self.mcap
        shrink = [_a_window(mcap) * (j == ctx.v_index) for j in range(len(lo))]
        for name, box in (
                ("g", KBox(ctx, "g", ctx.graph, ctx.base_g, lo, hi, mcap)),
                ("plus", KBox(ctx, "plus", ctx.plus, ctx.base_plus,
                              tuple(a + d for a, d in zip(lo, shrink)),
                              tuple(b - d for b, d in zip(hi, shrink)), mcap)),
                ("minus", KBox(ctx, "minus", ctx.minus, ctx.base_minus,
                               ctx.restrict_coords(lo),
                               ctx.restrict_coords(hi), mcap))):
            object.__setattr__(self, name, box)

    @property
    def t_middle(self) -> tuple:
        """Offsets (lo, hi) at v of the middle t-zone."""
        vi, tm = self.ctx.v_index, _t_margin(self.mcap)
        return self.off_lo[vi] + tm, self.off_hi[vi] - tm

    def to_json(self) -> dict:
        return {"off_lo": list(self.off_lo), "off_hi": list(self.off_hi),
                "mcap": self.mcap, "a_window": _a_window(self.mcap),
                "t_margin": _t_margin(self.mcap)}


def default_region(ctx: TriangleContext, mcap: int,
                   y_halfwidth: int = 6) -> TriangleRegion:
    """Window of t-offsets [-h, h], h = aw + mcap + max(tm + 2, e) with
    tm = ``_t_margin(mcap)``: a middle zone of at least aw + mcap + 2
    offsets each side of 0, and e the least width that holds every s0 as
    ``_t_margin`` needs.  At offset s, r = m(v) + s + d, with d between
    the sums of the negative and of the positive M(v, u), u != v (take
    (t + m(v))/2 out of the second bracket of r), so s0 = -m(v) - d."""
    vi = ctx.v_index
    row = intersection_matrix(ctx.graph)[vi]
    off = [x for j, x in enumerate(row) if j != vi]
    e = max(row[vi] + 1 + sum(x for x in off if x > 0),
            -row[vi] - 1 - sum(x for x in off if x < 0))
    s_half = _a_window(mcap) + mcap + max(_t_margin(mcap) + 2, e)
    lo, hi = [], []
    for j in range(ctx.graph.n):
        half = s_half if j == ctx.v_index else y_halfwidth
        lo.append(-half)
        hi.append(half)
    return TriangleRegion(ctx, tuple(lo), tuple(hi), mcap)


@dataclass(frozen=True)
class SesReport:
    """Exact ranks and booleans for the chain-level short exact sequence."""

    graph_hash: str
    vertex: str
    region: dict
    blocks: int
    dim_domain: int
    dim_ker_A: int
    dim_im_A: int
    dim_ker_B: int
    dim_im_B: int
    dim_b_targets: int
    ba_zero: bool
    b_surjective: bool
    ker_b_equals_im_a: bool
    ker_b_equals_d: bool
    chain_maps_ok: bool
    chain_map_samples: int

    @property
    def a_injective(self) -> bool:
        return self.dim_ker_A == 0

    @property
    def passed(self) -> bool:
        return (self.a_injective and self.b_surjective and self.ba_zero
                and self.ker_b_equals_im_a and self.ker_b_equals_d
                and self.chain_maps_ok)

    def to_json(self) -> dict:
        out = dict(self.__dict__)
        out["a_injective"] = self.a_injective
        out["passed"] = self.passed
        return out


def _interior_y(region: TriangleRegion):
    """Product of the interior non-v offset ranges (margin 2, per the
    interior sub-basis rule)."""
    ctx = region.ctx
    ranges = []
    for j in range(ctx.graph.n):
        if j == ctx.v_index:
            continue
        lo, hi = region.off_lo[j] + 2, region.off_hi[j] - 2
        if lo > hi:
            raise RegionTooSmallError("no interior offsets in direction %d; "
                                      "enlarge the window" % j)
        ranges.append(range(lo, hi + 1))
    out = [()]
    for r in ranges:
        out = [y + (t,) for y in out for t in r]
    return out


def _g_vector(ctx, y, s_off):
    """G characteristic vector from non-v offsets y and v offset s_off."""
    vi = ctx.v_index
    coords = []
    yi = 0
    for j in range(ctx.graph.n):
        if j == vi:
            coords.append(ctx.base_g[j] + 2 * s_off)
        else:
            coords.append(ctx.base_g[j] + 2 * y[yi])
            yi += 1
    return tuple(coords)


def _block_type(ctx: TriangleContext, region: TriangleRegion, y, smask: int):
    """The key that fixes the matrices of the (y, S) block.

    For v outside S the exponent c(i) = i(i+1)/2 does not read K, so every
    such block has key (False,).  For v in S, c reads K only through the
    corner gap r at the target's t, and r obeys the step law: it rises by
    exactly 1 per t-offset step.  Every corner e_v + 1_T of the second
    bracket of r contains e_v and no corner 1_T of the first one does, so
    one offset step (t up by 2) lowers every corner weight -(K.x + x.Mx)/2
    of the second bracket by exactly 1 and leaves the first bracket alone;
    both brackets are maxima over their corners, so r rises by 1.  The key
    is then (True, r0) with r0 the gap at the window's first t.  The law is
    checked on every block, not assumed: r at the last t must be r0 plus
    the width of the window.
    """
    if not ctx.has_v(smask):
        return (False,)
    vi = ctx.v_index
    lo, hi = region.off_lo[vi], region.off_hi[vi]
    r_lo = r_value(ctx, _g_vector(ctx, y, lo), smask)
    r_hi = r_value(ctx, _g_vector(ctx, y, hi), smask)
    if r_hi - r_lo != hi - lo:
        names = [ctx.graph.vertices[j] for j in bits(smask)]
        raise LatcohError(
            "step law of r fails at y=%r, S=%s: r=%d at t-offset %d but "
            "r=%d at t-offset %d" % (y, names, r_lo, lo, r_hi, hi))
    return (True, r_lo)


def _ses_block(ctx: TriangleContext, region: TriangleRegion, y, smask: int):
    """Exact GF(2) elimination on the duals of one (y, S) block.

    Returns the six dimensions (domain, ker A, im A, ker B, im B, B targets)
    and the three booleans (ba_zero, ker_b_equals_d, ker_b_equals_im_a).
    Rows are indexed by (t-offset, U power) only, so two blocks with the
    same ``_block_type`` give the same result.
    """
    vi = ctx.v_index
    mcap = region.mcap
    mid_lo, mid_hi = region.t_middle
    plus_lo, plus_hi = region.plus.lo[vi], region.plus.hi[vi]
    slo, shi = region.off_lo[vi], region.off_hi[vi]
    rows = [(s_off, m) for s_off in range(slo, shi + 1) for m in range(mcap + 1)]
    row_index = {row: idx for idx, row in enumerate(rows)}
    ba_zero = ker_b_equals_im_a = ker_b_equals_d = True
    dim_ker_b = dim_im_b = dim_b_targets = 0

    # Columns of A over the full G+ window of this block.
    a_cols = []
    a_chains = []
    for s_off in range(plus_lo, plus_hi + 1):
        kp = ctx.to_plus(_g_vector(ctx, y, s_off))
        for targets in _a_targets(ctx, kp, smask, mcap):
            vec = 0
            for kg, _, m2 in targets:
                t_off = (kg[vi] - ctx.base_g[vi]) // 2
                idx = row_index.get((t_off, m2))
                if idx is None:
                    # The window arithmetic of TriangleRegion covers every
                    # image of a correct A, so only a corrupted one lands
                    # here.
                    ba_zero = False
                    continue
                vec ^= 1 << idx
            a_cols.append(vec)
            a_chains.append(targets)
    a_span = gf2.Basis(a_cols)

    # B A = 0, checked at chain level on every column.
    for targets in a_chains:
        if map_B(ctx, Chain(frozenset(targets)), None):
            ba_zero = False

    # B on the middle zone and the D generators.
    mids = list(range(mid_lo, mid_hi + 1))
    if ctx.has_v(smask):
        # Every dual is killed by B; each one is a D generator.
        gens = [1 << row_index[(s_off, m)]
                for s_off in mids for m in range(mcap + 1)]
        dim_ker_b = len(gens)
    else:
        # Row m is U power m of the block's one B target (K - v, S).
        b_cols = [sum(1 << mb for *_, mb in _b_targets(
                      ctx, _g_vector(ctx, y, s_off), smask, m))
                  for s_off in mids for m in range(mcap + 1)]
        dim_im_b = gf2.rank(b_cols)
        dim_b_targets = mcap + 1
        dim_ker_b = len(b_cols) - dim_im_b
        gens = [(1 << row_index[(s_off, m)]) ^ (1 << row_index[(s_off + 1, m)])
                for s_off in mids[:-1] for m in range(mcap + 1)]
        if gf2.rank(gens) != dim_ker_b:
            ker_b_equals_d = False

    for g in gens:
        # Generators must die under B and lie in the image of A.
        chain = Chain(frozenset((_g_vector(ctx, y, rows[idx][0]), smask,
                                 rows[idx][1]) for idx in bits(g)))
        if map_B(ctx, chain, None):
            ker_b_equals_d = False
        if not a_span.contains(g):
            ker_b_equals_im_a = False

    dims = (len(a_cols), len(a_cols) - a_span.rank, a_span.rank,
            dim_ker_b, dim_im_b, dim_b_targets)
    return dims, (ba_zero, ker_b_equals_d, ker_b_equals_im_a)


def _check_s0(region: TriangleRegion, s0: int):
    """Raise ``RegionTooSmallError`` unless the zero s0 of r lies where the
    lemma of ``_t_margin`` needs it: lo + aw + mcap + 1 <= s0 <=
    hi - aw - mcap + 1 on the t-window [lo, hi]."""
    vi, reach = region.ctx.v_index, _a_window(region.mcap) + region.mcap
    lo, hi = region.off_lo[vi], region.off_hi[vi]
    if not lo + reach + 1 <= s0 <= hi - reach + 1:
        raise RegionTooSmallError(
            "t-window [%d, %d] needs the zero of r in [%d, %d], but it is at "
            "t-offset %d" % (lo, hi, lo + reach + 1, hi - reach + 1, s0))


def verify_ses(ctx: TriangleContext, region: TriangleRegion) -> SesReport:
    """Machine-check the short exact sequence on interior windows.

    A and B never move the non-v coordinates y or S, so the verification
    decomposes into independent blocks indexed by (y, S).  Within a block,
    exact GF(2) elimination establishes: A has zero kernel, B hits every
    interior target, B A = 0, and the kernel of B on the middle zone equals
    both the span of the D generators and a subspace of the column space of
    A.  A seeded sample of interior duals double-checks that A and B
    commute with the coboundaries.

    The blocks are counted before any is built, and more than
    ``BASIS_CAP`` of them raise ``BasisCapError``.  A block's matrices
    depend on y and S only through its ``_block_type``, so each type is
    eliminated once per call and its dimensions are added once per block.
    On the A side that is the step law of r.  The B-side results do not
    depend on y either: B drops t and keeps K without v and S, so all duals
    of one block land on the same (K without v, S) and a chain's image
    cancels according to its t-values and U powers alone; the
    ``b-parity-skip`` fault reads only t.  The type memo lives for one
    call, so an active fault still reaches the computation of every type.
    Each (True, r0) type must hold its zero s0 = lo - r0 of r where the
    lemma of ``_t_margin`` needs it; r compares two cubes of one mask, so
    no fault moves s0.
    """
    vi = ctx.v_index
    mid_lo, mid_hi = region.t_middle
    if mid_lo > mid_hi or region.plus.lo[vi] > region.plus.hi[vi]:
        raise RegionTooSmallError(
            "t-window [%d, %d] cannot fit margin %d; increase the region "
            "or lower the U cap" % (region.off_lo[vi], region.off_hi[vi],
                                    _t_margin(region.mcap)))

    blocks = 1 << ctx.graph.n
    for j in range(ctx.graph.n):
        if j != vi:
            blocks *= max(0, region.off_hi[j] - region.off_lo[j] - 3)
    if blocks > BASIS_CAP:
        raise BasisCapError(
            "the chain-level window has %d (y, S) blocks, above the basis "
            "cap %d; pass a smaller window with --bounds"
            % (blocks, BASIS_CAP))

    types = {}
    dims = (0,) * 6
    flags = (True,) * 3
    ends = region.off_lo[vi], region.off_hi[vi]     # the t that r is read at
    for y in _interior_y(region):
        made = {("g", _g_vector(ctx, y, t)) for t in ends} - ctx.memos.keys()
        for smask in range(1 << ctx.graph.n):
            key = _block_type(ctx, region, y, smask)
            if key not in types:
                if key[0]:
                    _check_s0(region, region.off_lo[vi] - key[1])
                types[key] = _ses_block(ctx, region, y, smask)
            block_dims, block_flags = types[key]
            dims = tuple(a + b for a, b in zip(dims, block_dims))
            flags = tuple(a and b for a, b in zip(flags, block_flags))
        for frame in made:      # r's frames, which no later y reads
            del ctx.memos[frame]

    dim_domain, dim_ker_a, dim_im_a, dim_ker_b, dim_im_b, dim_b_targets = dims
    ba_zero, ker_b_equals_d, ker_b_equals_im_a = flags
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


def chain_map_commutes(ctx: TriangleContext, region: TriangleRegion,
                       k, smask: int, m: int, which: str, fans=None) -> bool:
    """delta A = A delta (which='A', element over G+) or
    delta B = B delta (which='B', element over G), on one dual.

    Returns True when both sides are escape-free and equal; raises
    OutsideRegionError if the element itself is out of window and
    ValueError if truncation clipped an image (caller should skip).
    ``fans`` maps each window's name ("g", "plus", "minus") to the coface
    fans ``delta`` keeps on it; None gives each ``delta`` its own.
    """
    chain_map, src, dst = {"A": (map_A, "plus", "g"),
                           "B": (map_B, "g", "minus")}[which]
    fans = {} if fans is None else fans
    e = Chain.dual(k, smask, m)
    fe = chain_map(ctx, e, region)
    dfe = delta(fe, getattr(region, dst), fans.get(dst))
    de = delta(e, getattr(region, src), fans.get(src))
    fde = chain_map(ctx, de, region)
    if fe.escaped or dfe.escaped or de.escaped or fde.escaped:
        raise ValueError("clipped")
    return dfe.terms == fde.terms


def chain_map_trials(ctx: TriangleContext, region: TriangleRegion, ys,
                     t_offsets):
    """Commutation trials of A and B on interior duals: for each non-v
    offset y in ``ys``, each S, each t-offset in ``t_offsets`` and U power 0
    and the cap, yields (which, K, S, m, ok) from ``chain_map_commutes``.
    A trial the window clips is skipped.  Every trial reads one dict of
    coface fans per window, so each fan is built once per call; fans hold
    fault-applied values, so the dicts are dropped with the call."""
    fans = {"g": {}, "plus": {}, "minus": {}}
    for y in ys:
        for smask in range(1 << ctx.graph.n):
            for s_off in t_offsets:
                for m in (0, region.mcap):
                    kg = _g_vector(ctx, y, s_off)
                    for which, k in (("A", ctx.to_plus(kg)), ("B", kg)):
                        try:
                            ok = chain_map_commutes(ctx, region, k, smask, m,
                                                    which, fans)
                        except (ValueError, OutsideRegionError):
                            continue
                        yield which, k, smask, m, ok


def _chain_map_sample(ctx: TriangleContext, region: TriangleRegion):
    """Deterministic interior sample of both commutation identities, on the
    first two interior y offsets and the two from the middle of the list:
    (samples, failures)."""
    slo, shi = region.t_middle
    ys = _interior_y(region)
    mid = len(ys) // 2
    oks = [ok for *_, ok in chain_map_trials(
        ctx, region, ys[:2] + ys[mid:mid + 2], (slo, (slo + shi) // 2))]
    return len(oks), oks.count(False)
