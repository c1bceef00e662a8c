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
                    delete_vertex, graph_hash, increment_weight)
from .lattice import (Chain, OutsideRegionError, RegionTooSmallError, bits,
                      coords_of, delta, get_engine, mask_of)


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
    r_memo: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    weights: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def cube_weights(self, plus: bool, k):
        """Cube weights (x, S) relative to K on G+ (``plus``) or on G,
        memoised per K for the lifetime of the context."""
        weight = self.weights.get((plus, k))
        if weight is None:
            graph = self.plus if plus else self.graph
            weight = self.weights[(plus, k)] = get_engine(graph).cube_weights(k)
        return weight

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

    Memoised per (K, S) on the context for its lifetime."""
    smask = mask_of(ctx.graph, s)
    if not ctx.has_v(smask):
        raise LatcohError("r((K,t),S) needs v in S")
    k = coords_of(k)
    r = ctx.r_memo.get((k, smask))
    if r is None:
        weight = get_engine(ctx.graph).cube_weights(k)
        rest = smask & ~(1 << ctx.v_index)
        zero = (0,) * ctx.graph.n
        e_v = tuple(int(j == ctx.v_index) for j in range(ctx.graph.n))
        r = ctx.r_memo[(k, smask)] = weight((zero, rest)) - weight((e_v, rest))
    return r


def c_exponent_def(ctx: TriangleContext, i: int, k, s) -> int:
    """The exponent straight from its definition: cube-weight brackets on G
    and on G+, plus the quadratic term."""
    smask = mask_of(ctx.graph, s)
    k = coords_of(k)
    vi = ctx.v_index
    kp = tuple(x + (2 * i + 1 if j == vi else 0) for j, x in enumerate(k))
    zero = (0,) * ctx.graph.n
    bracket_g = ctx.cube_weights(False, k)((zero, smask))
    bracket_p = ctx.cube_weights(True, kp)((zero, smask))
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
    """Integers i that can have c(i) <= m: c(i) is bounded below by
    min(i(i+1)/2, (i+1)(i+2)/2) regardless of r."""
    reach = isqrt(2 * m) + 2
    return tuple(i for i in range(-reach - 2, reach + 2)
                 if min(i * (i + 1) // 2, (i + 1) * (i + 2) // 2) <= m)


def _a_targets(ctx: TriangleContext, k, smask: int, m: int):
    """Image terms of A on the dual U^-m ((K,t0),S)^v of G+."""
    vi = ctx.v_index
    t0 = k[vi]
    out = []
    for i in c_window(m):
        kg = tuple(t0 - 2 * i - 1 if j == vi else x for j, x in enumerate(k))
        c = c_exponent_closed(ctx, i, kg, smask)
        if not faults.any_active():
            assert c >= min(i * (i + 1) // 2, (i + 1) * (i + 2) // 2), \
                "exponent dipped below its window bound"
        if 0 <= c <= m or (c < 0 and faults.any_active()):
            out.append((kg, smask, m - c))
    return out


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
        for term in _a_targets(ctx, k, s, m):
            ok = 0 <= term[2] <= region.mcap and region.g.contains(term[0])
            (inside if ok else out).symmetric_difference_update([term])
    return Chain(frozenset(inside), frozenset(out))


def map_B(ctx: TriangleContext, e: Chain, region) -> Chain:
    """Chain map B: forget the distinguished coordinate.

    Terms with v in S die; otherwise U^-m ((K,t),S)^v goes to
    U^-m (K,S)^v over G-v, independent of t.
    """
    vi = ctx.v_index
    inside, out = set(), set()
    for k, s, m in e.terms:
        if (k[vi] - ctx.base_g[vi]) % 2:
            raise LatcohError("term is not characteristic for G")
        if ctx.has_v(s):
            continue
        if faults.is_active("b-parity-skip") and ((k[vi] - ctx.base_g[vi]) // 2) % 2:
            continue
        term = (ctx.restrict_coords(k), ctx.restrict_mask(s), m)
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


def _ceil_sqrt(x: int) -> int:
    r = isqrt(x)
    return r if r * r == x else r + 1


@dataclass(frozen=True)
class KBox:
    """Characteristic vectors K of one graph with (K - base)/2 in [lo, hi].

    Such a box meets several spin-c classes, so each K is its own frame for
    the coboundary: cube weights are taken relative to K at offset 0, with
    one memo per K that lives as long as the box.
    """

    graph: PlumbingGraph
    base: tuple
    lo: tuple
    hi: tuple
    mcap: int
    weights: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        n = self.graph.n
        if not len(self.base) == len(self.lo) == len(self.hi) == n:
            raise ValueError("window bounds need one entry per vertex (%d)" % n)

    def contains(self, k) -> bool:
        return all(a <= (c - b) // 2 <= h
                   for c, b, a, h in zip(k, self.base, self.lo, self.hi))

    def frame(self, k):
        """(offset 0, cube weights relative to K), or None outside."""
        if not self.contains(k):
            return None
        weight = self.weights.get(k)
        if weight is None:
            weight = self.weights[k] = get_engine(self.graph).cube_weights(k)
        return (0,) * len(k), weight


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
        shrink = [self.win * (j == ctx.v_index) for j in range(len(lo))]
        for name, box in (
                ("g", KBox(ctx.graph, ctx.base_g, lo, hi, mcap)),
                ("plus", KBox(ctx.plus, ctx.base_plus,
                              tuple(a + d for a, d in zip(lo, shrink)),
                              tuple(b - d for b, d in zip(hi, shrink)), mcap)),
                ("minus", KBox(ctx.minus, ctx.base_minus, ctx.restrict_coords(lo),
                               ctx.restrict_coords(hi), mcap))):
            object.__setattr__(self, name, box)

    @property
    def win(self) -> int:
        return max(abs(i) for i in c_window(self.mcap))

    @property
    def t_margin(self) -> int:
        return 2 * _ceil_sqrt(2 * self.mcap) + 4

    def to_json(self) -> dict:
        return {"off_lo": list(self.off_lo), "off_hi": list(self.off_hi),
                "mcap": self.mcap, "a_window": self.win,
                "t_margin": self.t_margin}


def default_region(ctx: TriangleContext, mcap: int, y_halfwidth: int = 6,
                   t_extra: int = 2) -> TriangleRegion:
    """Window sized so that the interior middle zone is nonempty and A's
    t-spread plus the kernel-generator margins fit."""
    win = max(abs(i) for i in c_window(mcap))
    t_margin = 2 * _ceil_sqrt(2 * mcap) + 4
    s_half = t_margin + win + mcap + t_extra
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


def verify_ses(ctx: TriangleContext, region: TriangleRegion) -> SesReport:
    """Machine-check the short exact sequence on interior windows.

    A and B never move the non-v coordinates or S, so the verification
    decomposes into independent blocks indexed by (y, S).  Within a block,
    exact GF(2) elimination establishes: A has zero kernel, B hits every
    interior target, B A = 0, and the kernel of B on the middle zone equals
    both the span of the D generators and a subspace of the column space of
    A.  A seeded sample of interior duals double-checks that A and B
    commute with the coboundaries.
    """
    vi = ctx.v_index
    mcap = region.mcap
    tm = region.t_margin
    slo, shi = region.off_lo[vi], region.off_hi[vi]
    mid_lo, mid_hi = slo + tm, shi - tm
    plus_lo, plus_hi = slo + region.win, shi - region.win
    if mid_lo > mid_hi or plus_lo > plus_hi:
        raise RegionTooSmallError(
            "t-window [%d, %d] cannot fit margin %d; increase the region "
            "or lower the U cap" % (slo, shi, tm))

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

            # Columns of A over the full G+ window of this block.
            a_cols = []
            a_chains = []
            for s_off in range(plus_lo, plus_hi + 1):
                kp = _g_vector(ctx, y, s_off)
                kp = tuple(x + 1 if j == vi else x for j, x in enumerate(kp))
                for m in range(mcap + 1):
                    vec = 0
                    targets = _a_targets(ctx, kp, smask, m)
                    for kg, _, m2 in targets:
                        t_off = (kg[vi] - ctx.base_g[vi]) // 2
                        idx = row_index.get((t_off, m2))
                        if idx is None:
                            # Only reachable under fault injection; the
                            # window arithmetic above guarantees coverage.
                            if not faults.any_active():
                                raise LatcohError("A image left its window")
                            ba_zero = False
                            continue
                        vec ^= 1 << idx
                    a_cols.append(vec)
                    a_chains.append(targets)
            a_span = gf2.Basis(a_cols)
            dim_domain += len(a_cols)
            dim_im_a += a_span.rank
            dim_ker_a += len(a_cols) - a_span.rank

            # B A = 0, checked at chain level on every column.
            for targets in a_chains:
                img = map_B(ctx, Chain(frozenset(targets)), None)
                if img:
                    ba_zero = False

            # B on the middle zone and the D generators.
            mids = list(range(mid_lo, mid_hi + 1))
            if ctx.has_v(smask):
                # Every dual is killed by B; each one is a D generator.
                gens = []
                for s_off in mids:
                    for m in range(mcap + 1):
                        gens.append(1 << row_index[(s_off, m)])
                dim_ker_b += len(gens)
            else:
                b_cols = []
                for s_off in mids:
                    for m in range(mcap + 1):
                        b_cols.append(1 << m)
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
                # Generators must die under B and lie in the image of A.
                chain = Chain(frozenset((_g_vector(ctx, y, rows[idx][0]), smask,
                                         rows[idx][1]) for idx in bits(g)))
                if map_B(ctx, chain, None):
                    ker_b_equals_d = False
                if not a_span.contains(g):
                    ker_b_equals_im_a = False

    samples, failures = _chain_map_sample(ctx, region)
    report = SesReport(
        graph_hash=graph_hash(ctx.graph), vertex=ctx.v,
        region=region.to_json(), blocks=blocks,
        dim_domain=dim_domain, dim_ker_A=dim_ker_a, dim_im_A=dim_im_a,
        dim_ker_B=dim_ker_b, dim_im_B=dim_im_b, dim_b_targets=dim_b_targets,
        ba_zero=ba_zero, b_surjective=(dim_im_b == dim_b_targets),
        ker_b_equals_im_a=ker_b_equals_im_a and ba_zero,
        ker_b_equals_d=ker_b_equals_d,
        chain_maps_ok=(failures == 0), chain_map_samples=samples)
    return report


def chain_map_commutes(ctx: TriangleContext, region: TriangleRegion,
                       k, smask: int, m: int, which: str) -> bool:
    """delta A = A delta (which='A', element over G+) or
    delta B = B delta (which='B', element over G), on one dual.

    Returns True when both sides are escape-free and equal; raises
    OutsideRegionError if the element itself is out of window and
    ValueError if truncation clipped an image (caller should skip).
    """
    e = Chain.dual(k, smask, m)
    if which == "A":
        ae = map_A(ctx, e, region)
        dae = delta(ae, region.g)
        de = delta(e, region.plus)
        ade = map_A(ctx, de, region)
        if ae.escaped or dae.escaped or de.escaped or ade.escaped:
            raise ValueError("clipped")
        return dae.terms == ade.terms
    be = map_B(ctx, e, region)
    dbe = delta(be, region.minus)
    de = delta(e, region.g)
    bde = map_B(ctx, de, region)
    if be.escaped or dbe.escaped or de.escaped or bde.escaped:
        raise ValueError("clipped")
    return dbe.terms == bde.terms


def _chain_map_sample(ctx: TriangleContext, region: TriangleRegion,
                      per_block: int = 2):
    """Deterministic interior sample of both commutation identities."""
    vi = ctx.v_index
    tm = region.t_margin
    slo, shi = region.off_lo[vi] + tm, region.off_hi[vi] - tm
    full = (1 << ctx.graph.n) - 1
    ys = _interior_y(region)
    samples = failures = 0
    for y in ys[:per_block] + ys[len(ys) // 2:len(ys) // 2 + per_block]:
        for smask in range(full + 1):
            for s_off in (slo, (slo + shi) // 2):
                for m in (0, region.mcap):
                    kg = _g_vector(ctx, y, s_off)
                    kp = tuple(x + 1 if j == vi else x for j, x in enumerate(kg))
                    for which, k in (("A", kp), ("B", kg)):
                        try:
                            ok = chain_map_commutes(ctx, region, k, smask, m, which)
                        except (ValueError, OutsideRegionError):
                            continue
                        samples += 1
                        if not ok:
                            failures += 1
    return samples, failures
