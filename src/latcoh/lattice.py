"""The weighted cubical complex of a plumbing lattice.

A characteristic vector K is stored by its evaluations on the vertex
classes, so the characteristic condition is a parity condition per
coordinate.  A pair (K, S) with S a subset of vertices names the cube with
corners K + 2*sum_{j in T} E_j, T inside S, where adding 2E_j adds twice
column j of the intersection matrix to the coordinates.

Weights are kept relative within a spin-c class: for base characteristic b
and lattice offset x the difference q(b + 2Mx) - q(b) equals
-(b(x) + (x,x)) / 2, an integer, so the entire complex is exact integer
arithmetic with no determinant in sight.  Cochains are finitely supported
GF(2) combinations of dual generators U^{-m} (K, S)^v, encoded as frozensets
of (K, S, m) triples with S a bitmask.

This module is also the one kernel of the complex that the chain checks
and the homology engine share: ``offset_cube_weight`` (the weight of a cube
(x, S) given point weights at offsets x) and ``cofaces`` (the coboundary
rule).  Each fault hook on them has its single site here.  Values are
immutable; the only state is a cube-weight memo, owned by the window,
cell bank or call that fills it.
"""

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import exact, faults
from .graph import (DegenerateFormError, LatcohError, PlumbingGraph,
                    intersection_matrix, is_negative_definite)


class OutsideRegionError(LatcohError):
    pass


class DescentError(LatcohError):
    pass


class RegionTooSmallError(LatcohError):
    pass


class BasisCapError(LatcohError):
    pass


class MonotonicityError(LatcohError):
    pass


BASIS_CAP = 5_000_000


@dataclass(frozen=True)
class CharVector:
    """Coordinates of a characteristic vector, optionally tagged with the
    base vector of its spin-c class."""

    coords: tuple
    base: tuple = None


def coords_of(k) -> tuple:
    if isinstance(k, CharVector):
        return k.coords
    return tuple(k)


@dataclass(frozen=True)
class CubePair:
    """Base corner plus a bitmask of spanned directions."""

    K: tuple
    S: int

    @property
    def dimension(self) -> int:
        return bin(self.S).count("1")


@dataclass(frozen=True)
class TPlusElement:
    """Finite GF(2) sum of U^{-d}, d >= 0, inside F[U,U^-1] / U F[U]."""

    powers: frozenset

    def __post_init__(self):
        if any(d < 0 for d in self.powers):
            raise ValueError("negative U-powers are not allowed")

    def __add__(self, other):
        return TPlusElement(self.powers ^ other.powers)

    def __bool__(self):
        return bool(self.powers)

    def times_u(self):
        return TPlusElement(frozenset(d - 1 for d in self.powers if d >= 1))

    def gradings(self) -> frozenset:
        """Gradings 2d of the supporting generators."""
        return frozenset(2 * d for d in self.powers)


@dataclass(frozen=True)
class Chain:
    """GF(2) combination of dual generators, one (K, S, m) triple per term.

    ``escaped`` collects image terms that left the truncation region during
    an operator application; verification code only trusts results whose
    escaped set is empty.
    """

    terms: frozenset
    escaped: frozenset = field(default_factory=frozenset)

    def __add__(self, other):
        return Chain(self.terms ^ other.terms, self.escaped | other.escaped)

    def __bool__(self):
        return bool(self.terms)

    def times_u(self):
        return Chain(frozenset((k, s, m - 1) for k, s, m in self.terms if m >= 1),
                     self.escaped)

    def degrees(self) -> frozenset:
        return frozenset(bin(s).count("1") for _, s, _ in self.terms)

    @staticmethod
    def dual(k, s: int, m: int = 0) -> "Chain":
        return Chain(frozenset([(coords_of(k), s, m)]))


ZERO_CHAIN = Chain(frozenset())


def mask_of(graph: PlumbingGraph, subset) -> int:
    """Vertex-id iterable (or bitmask) to bitmask."""
    if isinstance(subset, int):
        return subset
    if isinstance(subset, str):
        subset = [subset]
    mask = 0
    for vid in subset:
        mask |= 1 << graph.index(vid)
    return mask


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class WeightEngine:
    """Per-graph intersection data: relative point weights and lattice
    steps.  Holds no memo; cube-weight memos belong to the windows that
    use them."""

    def __init__(self, graph: PlumbingGraph):
        self.graph = graph
        self.m = intersection_matrix(graph)
        self.n = graph.n
        self.diag = tuple(self.m[i][i] for i in range(self.n))
        self.cols = tuple(tuple(2 * self.m[i][j] for i in range(self.n))
                          for j in range(self.n))

    def check_characteristic(self, k):
        for i in range(self.n):
            if (k[i] - self.diag[i]) % 2:
                raise LatcohError("vector %r is not characteristic" % (k,))

    def rel_weight(self, k, x) -> int:
        """q(K + 2Mx) - q(K) for a characteristic K and integer offset x."""
        total = 0
        m = self.m
        for i, xi in enumerate(x):
            if xi:
                row = m[i]
                acc = k[i]
                for j, xj in enumerate(x):
                    if xj:
                        acc += row[j] * xj
                total += xi * acc
        assert total % 2 == 0, "characteristic parity violated"
        return -total // 2

    def shift(self, k, j: int) -> tuple:
        """K + 2E_j."""
        col = self.cols[j]
        return tuple(k[i] + col[i] for i in range(self.n))

    def point(self, base, x) -> tuple:
        """The characteristic vector base + 2Mx."""
        k = list(base)
        for j, xj in enumerate(x):
            if xj:
                col = self.cols[j]
                for i in range(self.n):
                    k[i] += xj * col[i]
        return tuple(k)

    def cube_weights(self, base):
        """Cube weights (x, S) -> weight relative to ``base`` of the cube at
        base + 2Mx, memoised in a dict owned by the returned function."""
        return functools.partial(offset_cube_weight,
                                 functools.partial(self.rel_weight, base), {})


def offset_cube_weight(point_weight, memo: dict, cube: tuple):
    """Weight of the cube (x, S) in offset coordinates: the largest
    ``point_weight`` over its corners x + 1_T, T inside S, or None when some
    corner has no weight.

    Cubes are (x, S) keys, as in ``CellBank.cells``.  ``memo`` belongs to
    the caller and holds fault-free values, so it stays valid whichever
    faults are active.
    """
    val = _corner_max(point_weight, memo, cube)
    if (val is not None and bin(cube[1]).count("1") % 2
            and faults.is_active("cube-weight-parity-offset")):
        val += 1
    return val


_UNSEEN = object()


def _corner_max(point_weight, memo, cube):
    val = memo.get(cube, _UNSEEN)
    if val is not _UNSEEN:
        return val
    x, s = cube
    if s:
        j = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        val = _corner_max(point_weight, memo, (x, rest))
        if val is not None:
            other = _corner_max(point_weight, memo,
                                (x[:j] + (x[j] + 1,) + x[j + 1:], rest))
            val = None if other is None else (val if val >= other else other)
    else:
        val = point_weight(x)
    memo[cube] = val
    return val


def cofaces(cube_weight, x: tuple, s: int, n: int):
    """The coboundary rule on the cube (x, S) in offset coordinates.

    Yields (y, S + w, gap) for the cofaces y = x and y = x - e_w of every
    direction w outside S, where gap, the weight of the coface minus that
    of (x, S), is the U-power the coboundary lowers by.  ``cube_weight``
    maps an (offset, mask) key to a weight, like ``CellBank.cells.get``;
    gap is None where it has none.
    """
    w_here = cube_weight((x, s))
    sign = 1 if faults.is_active("delta-coface-shift-sign") else -1
    for w in bits(((1 << n) - 1) & ~s):
        up = s | (1 << w)
        for y in (x, x[:w] + (x[w] + sign,) + x[w + 1:]):
            w_up = cube_weight((y, up))
            if w_up is None:
                yield y, up, None
                continue
            gap = w_up - w_here
            if gap < 0 and not faults.any_active():
                raise MonotonicityError("weight monotonicity violated at %r"
                                        % ((y, up),))
            yield y, up, gap


@functools.cache
def get_engine(graph: PlumbingGraph) -> WeightEngine:
    return WeightEngine(graph)


def relative_weight(graph: PlumbingGraph, base, x) -> int:
    """q(base + 2Mx) - q(base), an exact integer; determinant-free."""
    return get_engine(graph).rel_weight(coords_of(base), tuple(x))


def absolute_q(graph: PlumbingGraph, k) -> Fraction:
    """q(K) = -(K, K)/8 with (K, K) through the inverse form; exact rational.

    Only defined for nondegenerate forms; use relative weights otherwise.
    """
    coords = coords_of(k)
    m = intersection_matrix(graph)
    if exact.det_bareiss(m) == 0:
        raise DegenerateFormError("absolute weights need a nondegenerate form")
    y = exact.solve_fraction(m, coords)
    return -sum(Fraction(c) * yi for c, yi in zip(coords, y)) / 8


def cube_weight(graph: PlumbingGraph, k, s) -> int:
    """Relative weight of the cube (K, S): max corner weight against K."""
    return get_engine(graph).cube_weights(coords_of(k))(((0,) * graph.n,
                                                         mask_of(graph, s)))


def cube_corners(graph: PlumbingGraph, cube: CubePair) -> list:
    eng = get_engine(graph)
    corners = [cube.K]
    for j in bits(cube.S):
        corners += [eng.shift(c, j) for c in corners]
    return corners


def cube_boundary(graph: PlumbingGraph, cube: CubePair) -> list:
    """GF(2)-reduced faces of a cube: (K, S - w) and (K + 2E_w, S - w).

    Coincident faces (possible only when a matrix column vanishes) cancel
    in пairs; the empty cube has no boundary.
    """
    eng = get_engine(graph)
    out = {}
    for w in bits(cube.S):
        rest = cube.S & ~(1 << w)
        for face in (CubePair(cube.K, rest), CubePair(eng.shift(cube.K, w), rest)):
            out[face] = out.get(face, 0) ^ 1
    return [face for face in sorted(out, key=lambda f: (f.K, f.S)) if out[face]]


@dataclass(frozen=True)
class Region:
    """Finite window of one spin-c class: lattice offsets x in a box, with
    K = base + 2Mx, plus a cap on U-powers."""

    graph: PlumbingGraph
    base: tuple
    xmin: tuple
    xmax: tuple
    mcap: int

    def __post_init__(self):
        n = self.graph.n
        if not len(self.base) == len(self.xmin) == len(self.xmax) == n:
            raise ValueError("base, xmin and xmax need one entry per vertex "
                             "(%d)" % n)
        get_engine(self.graph).check_characteristic(self.base)
        if self.mcap < 0:
            raise ValueError("mcap must be nonnegative")
        if any(a > b for a, b in zip(self.xmin, self.xmax)):
            raise ValueError("empty offset interval")

    @functools.cached_property
    def cube_weight(self):
        """Cube weights (x, S) of this class relative to the base, memoised
        for the lifetime of the region."""
        return get_engine(self.graph).cube_weights(self.base)

    @functools.cached_property
    def _materialized(self) -> dict:
        """Characteristic vector -> first offset reaching it in the box."""
        out = {}
        for x in self.iter_offsets():
            out.setdefault(self.point(x), x)
        return out

    def frame(self, k):
        """(offset of K, cube weights of the class), or None when K lies
        outside the window."""
        x = self.offset_of(k)
        if x is None or not self.contains_offset(x):
            return None
        return x, self.cube_weight

    def offset_of(self, k):
        """Lattice offset x with K = base + 2Mx, or None if K is not in the
        class (only decidable here for nondegenerate forms)."""
        adj, det = _adjugate_data(self.graph)
        if det == 0:
            return self._materialized.get(tuple(k))
        diff = [a - b for a, b in zip(k, self.base)]
        den = 2 * det
        x = []
        for row in adj:
            num = sum(map(operator.mul, row, diff))
            if num % den:
                return None
            x.append(num // den)
        return tuple(x)

    def contains(self, k) -> bool:
        return self.frame(k) is not None

    def contains_offset(self, x) -> bool:
        return all(a <= xi <= b for xi, a, b in zip(x, self.xmin, self.xmax))

    def point(self, x) -> tuple:
        return get_engine(self.graph).point(self.base, x)

    def iter_offsets(self):
        if self.volume() > BASIS_CAP:
            raise BasisCapError("region volume %d exceeds the basis cap" % self.volume())
        return itertools.product(*[range(a, b + 1)
                                   for a, b in zip(self.xmin, self.xmax)])

    def volume(self) -> int:
        v = 1
        for a, b in zip(self.xmin, self.xmax):
            v *= b - a + 1
        return v

    def enlarged(self, d: int) -> "Region":
        return Region(self.graph, self.base,
                      tuple(a - d for a in self.xmin),
                      tuple(b + d for b in self.xmax), self.mcap)

    def to_json(self) -> dict:
        return {"base": list(self.base), "xmin": list(self.xmin),
                "xmax": list(self.xmax), "mcap": self.mcap}


@functools.cache
def _adjugate_data(graph: PlumbingGraph):
    m = intersection_matrix(graph)
    return exact.adjugate(m), exact.det_bareiss(m)


def delta(e: Chain, region) -> Chain:
    """The coboundary on finitely supported duals.

    Each dual U^{-m} (K, S)^v maps to the sum over cofaces (K, S+w) and
    (K - 2E_w, S+w), w outside S, of U^{-(m - d)} (coface)^v with d the
    weight gap; terms with d > m vanish in the target module.  Image terms
    whose base corner leaves the region are reported in ``escaped``.
    ``region`` is a Region or any window with the same ``frame``,
    ``contains`` and ``mcap``: ``frame(K)`` gives K's offset x and the cube
    weights it is read against, and a coface at offset y has base corner
    K + 2M(y - x).
    """
    eng = get_engine(region.graph)
    inside, out = set(), set()
    for k, s, m in e.terms:
        frame = region.frame(k)
        if frame is None:
            raise OutsideRegionError("term %r lies outside the region" % ((k, s, m),))
        x, weight = frame
        for y, up, gap in cofaces(weight, x, s, eng.n):
            if gap > m:
                continue
            k2 = k if y is x else eng.point(k, map(operator.sub, y, x))
            ok = m - gap <= region.mcap and region.contains(k2)
            (inside if ok else out).symmetric_difference_update([(k2, up, m - gap)])
    return Chain(frozenset(inside), frozenset(out))


def weight_monotonicity_check(region: Region) -> bool:
    """Every cube must weigh at least as much as each of its faces, so all
    U-exponents in the coboundary are nonnegative.  True when that holds
    for every face with base corner in the region and each of its cofaces."""
    n = region.graph.n
    try:
        return all(gap >= 0 for x in region.iter_offsets() for s in range(1 << n)
                   for _, _, gap in cofaces(region.cube_weight, x, s, n))
    except MonotonicityError:
        return False


def delta_squared_check(region: Region, mcaps=None) -> bool:
    """Apply the coboundary twice to every dual whose two-step coface fan
    stays inside the region; True when all images vanish."""
    graph = region.graph
    full = (1 << graph.n) - 1
    kset = {region.point(x): x for x in region.iter_offsets()}
    interior = [k for k, x in kset.items()
                if all(a + 2 <= xi for xi, a in zip(x, region.xmin))]
    levels = range(region.mcap + 1) if mcaps is None else mcaps
    for k in interior:
        for s in range(full + 1):
            for m in levels:
                once = delta(Chain.dual(k, s, m), region)
                if once.escaped:
                    continue
                twice = delta(once, region)
                if twice.escaped:
                    continue
                if twice:
                    return False
    return True


def continuous_minimum(graph: PlumbingGraph, base):
    """Real minimizer and minimum of the relative weight, for definite forms."""
    m = intersection_matrix(graph)
    n = graph.n
    if n == 0:
        return [], Fraction(0)
    two_m = [[2 * m[i][j] for j in range(n)] for i in range(n)]
    xbar = exact.solve_fraction(two_m, [-b for b in base])
    wbar = -(sum(Fraction(base[i]) * xbar[i] for i in range(n))
             + sum(xbar[i] * m[i][j] * xbar[j] for i in range(n) for j in range(n))) / 2
    return xbar, wbar


def _descend(graph: PlumbingGraph, base, start=None, cap=1_000_000):
    """Single-coordinate descent of the relative weight.

    Cycles the vertices in declaration order, trying -1 then +1, moving
    while the weight strictly decreases.  Deterministic; raises
    DescentError when the step budget is exhausted (non-definite forms).
    """
    eng = get_engine(graph)
    n = graph.n
    x = [0] * n if start is None else list(start)
    w = eng.rel_weight(base, x)
    steps = 0
    improved = True
    while improved:
        improved = False
        for j in range(n):
            for sign in (-1, 1):
                while True:
                    steps += 1
                    if steps > cap:
                        raise DescentError(
                            "weight descent did not terminate; pass explicit bounds")
                    trial = list(x)
                    trial[j] += sign
                    wt = eng.rel_weight(base, trial)
                    if wt < w:
                        x, w = trial, wt
                        improved = True
                    else:
                        break
    return tuple(x), w


def truncation_region(graph: PlumbingGraph, spinc_or_base, mcap: int,
                      hard_halfwidth: int = 1000) -> Region:
    """Finite region guaranteed to contain every cube of relative weight up
    to ``mcap`` plus a safety margin.

    Runs the coordinate descent, then bounds the sublevel set
    {x : w(x) - w* <= mcap + n + maxvar} where maxvar is the largest
    single-step weight change at the minimizer.  For definite forms the
    bound is the exact bounding box of the corresponding ellipsoid; the
    result is intersected with a hard bounding box either way.
    """
    if mcap < 0:
        raise ValueError("mcap must be nonnegative")
    base = coords_of(getattr(spinc_or_base, "base", spinc_or_base))
    eng = get_engine(graph)
    eng.check_characteristic(base)
    n = graph.n
    if n == 0:
        return Region(graph, base, (), (), mcap)
    neg = [[-x for x in row] for row in intersection_matrix(graph)]
    definite = is_negative_definite(graph).form_negative_definite

    # Plain coordinate descent can stall far above the minimum on strongly
    # correlated definite forms; seeding it at the rounded continuous
    # minimizer fixes that without changing the non-definite error paths.
    start = None
    if definite:
        xbar, wbar = continuous_minimum(graph, base)
        start = tuple(int(c.__floor__() + (1 if c - c.__floor__() > Fraction(1, 2)
                                           else 0)) for c in xbar)
    xstar, wstar = _descend(graph, base, start=start)
    maxvar = max(abs(eng.rel_weight(base, tuple(xi + (sign if i == j else 0)
                                                for i, xi in enumerate(xstar)))
                     - wstar)
                 for j in range(n) for sign in (-1, 1))
    threshold = mcap + n + maxvar

    if definite:
        budget = 2 * (Fraction(wstar) + threshold - wbar)
        det_neg = exact.det_bareiss(neg)
        adj = exact.adjugate(neg)
        xmin, xmax = [], []
        for j in range(n):
            rad_sq = budget * Fraction(adj[j][j], det_neg)
            lo, hi = exact.int_interval(xbar[j], rad_sq)
            xmin.append(max(lo, -hard_halfwidth))
            xmax.append(min(hi, hard_halfwidth))
        return Region(graph, base, tuple(xmin), tuple(xmax), mcap)

    # Non-definite fallback: flood out the sublevel set from the descent
    # point, bounded by the hard box and a cell cap.
    seen = {xstar}
    frontier = [xstar]
    cap = 200_000
    while frontier:
        nxt = []
        for x in frontier:
            for j in range(n):
                for sign in (-1, 1):
                    y = tuple(xi + (sign if i == j else 0) for i, xi in enumerate(x))
                    if y in seen:
                        continue
                    if eng.rel_weight(base, y) - wstar <= threshold:
                        if any(abs(t) >= hard_halfwidth for t in y) or len(seen) >= cap:
                            raise DescentError(
                                "sublevel set is unbounded or too large to box; "
                                "pass explicit bounds")
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    xmin = tuple(min(x[j] for x in seen) for j in range(n))
    xmax = tuple(max(x[j] for x in seen) for j in range(n))
    return Region(graph, base, xmin, xmax, mcap)
