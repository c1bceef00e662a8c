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
and the homology engine share, as plain functions of the graph:
``relative_weight``, ``lattice_point`` (base + 2Mx), ``cube_weights`` (a
memoised cube-weight function of one base), ``offset_cube_weight`` (the
weight of a cube (x, S) given point weights at offsets x) and ``cofaces``
(the coboundary rule).  Each fault hook on them has its single site here.
Values are immutable; the only state is a cube-weight memo, owned by the
window, cell bank or call that fills it, and the coface fans of ``delta``,
owned by one call of ``delta`` or of ``delta_squared_failures`` because they
hold fault-applied values.  No cache is keyed by a graph.
Read top down, a memo also records the cubes found to have no weight; a
cell bank fills its memo bottom up with its admissible cubes only, so it
holds no miss.
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
class Chain:
    """GF(2) combination of dual generators, one (K, S, m) triple per term.

    ``escaped`` collects image terms that left the truncation region during
    an operator application; verification code only trusts results whose
    escaped set is empty.
    """

    terms: frozenset
    escaped: frozenset = field(default_factory=frozenset)

    def __bool__(self):
        return bool(self.terms)

    def times_u(self):
        return Chain(frozenset((k, s, m - 1) for k, s, m in self.terms if m >= 1),
                     self.escaped)

    @staticmethod
    def dual(k, s: int, m: int = 0) -> "Chain":
        return Chain(frozenset([(tuple(k), s, m)]))


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


def check_characteristic(graph: PlumbingGraph, k):
    """Raise unless k_i = m(i) mod 2 at every vertex i."""
    for i, w in enumerate(graph.weights):
        if (k[i] - w) % 2:
            raise LatcohError("vector %r is not characteristic" % (k,))


def relative_weight(graph: PlumbingGraph, base, x) -> int:
    """q(base + 2Mx) - q(base) for a characteristic base and an integer
    offset x: -(base(x) + (x, x)) / 2, an exact integer."""
    total = 0
    m = intersection_matrix(graph)
    for i, xi in enumerate(x):
        if xi:
            row = m[i]
            acc = base[i]
            for j, xj in enumerate(x):
                if xj:
                    acc += row[j] * xj
            total += xi * acc
    assert total % 2 == 0, "characteristic parity violated"
    return -total // 2


def lattice_point(graph: PlumbingGraph, base, x) -> tuple:
    """The characteristic vector base + 2Mx."""
    k = list(base)
    m = intersection_matrix(graph)
    for j, xj in enumerate(x):
        if xj:
            for i, mij in enumerate(m[j]):
                k[i] += 2 * xj * mij
    return tuple(k)


def cube_weights(graph: PlumbingGraph, base):
    """Cube weights (x, S) -> weight relative to ``base`` of the cube at
    base + 2Mx, memoised in a dict owned by the returned function."""
    return functools.partial(offset_cube_weight,
                             functools.partial(relative_weight, graph, base), {})


def offset_cube_weight(point_weight, memo: dict, cube: tuple):
    """Weight of the cube (x, S) in offset coordinates: the largest
    ``point_weight`` over its corners x + 1_T, T inside S, or None when some
    corner has no weight.

    Cubes are (x, S) keys, as in ``CellBank.cells``.  ``memo`` belongs to
    the caller and holds fault-free values, so it stays valid whichever
    faults are active; a caller may fill it beforehand with the same
    two-face rule (``engine._admissible_cubes`` does), and then a cube in
    it is read without recursion.
    """
    val = memo.get(cube, _UNSEEN)
    if val is _UNSEEN:
        val = _corner_max(point_weight, memo, cube)
    if (val is not None and faults.is_active("cube-weight-parity-offset")
            and bin(cube[1]).count("1") % 2):
        val += 1
    return val


_UNSEEN = object()


def _corner_max(point_weight, memo, cube):
    """Fill ``memo`` at a cube it lacks, reading each face before recursing."""
    x, s = cube
    if s:
        j = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        face = (x, rest)
        val = memo.get(face, _UNSEEN)
        if val is _UNSEEN:
            val = _corner_max(point_weight, memo, face)
        if val is not None:
            face = (x[:j] + (x[j] + 1,) + x[j + 1:], rest)
            other = memo.get(face, _UNSEEN)
            if other is _UNSEEN:
                other = _corner_max(point_weight, memo, face)
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
    gap is None where it has none.  The fault flags are read once per call.
    """
    w_here = cube_weight((x, s))
    sign = 1 if faults.is_active("delta-coface-shift-sign") else -1
    strict = not faults.any_active()
    for w in range(n):
        if s >> w & 1:
            continue
        up = s | 1 << w
        for y in (x, x[:w] + (x[w] + sign,) + x[w + 1:]):
            w_up = cube_weight((y, up))
            if w_up is None:
                yield y, up, None
                continue
            gap = w_up - w_here
            if gap < 0 and strict:
                raise MonotonicityError("weight monotonicity violated at %r"
                                        % ((y, up),))
            yield y, up, gap


def absolute_q(graph: PlumbingGraph, k) -> Fraction:
    """q(K) = -(K, K)/8 with (K, K) through the inverse form; exact rational.

    Only defined for nondegenerate forms; use relative weights otherwise.
    """
    coords = tuple(k)
    m = intersection_matrix(graph)
    if exact.det_bareiss(m) == 0:
        raise DegenerateFormError("absolute weights need a nondegenerate form")
    y = exact.solve_fraction(m, coords)
    return -sum(Fraction(c) * yi for c, yi in zip(coords, y)) / 8


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
        check_characteristic(self.graph, self.base)
        if self.mcap < 0:
            raise ValueError("mcap must be nonnegative")
        if any(a > b for a, b in zip(self.xmin, self.xmax)):
            raise ValueError("empty offset interval")

    @functools.cached_property
    def cube_weights(self):
        """Cube weights (x, S) of this class relative to the base, memoised
        for the lifetime of the region."""
        return cube_weights(self.graph, self.base)

    @functools.cached_property
    def _offset_map(self) -> dict:
        """Characteristic vector -> first offset reaching it in the box: the
        one way this window turns K into an offset, for every form."""
        out = {}
        for x in self.iter_offsets():
            out.setdefault(self.point(x), x)
        return out

    def frame(self, k):
        """(offset of K, cube weights of the class), or None when K lies
        outside the window.

        The first call builds the window's offset map, so a box of volume
        above ``BASIS_CAP`` raises ``BasisCapError`` here.  Windows that
        reach this stay small (the verification suites, the tests and the
        demos use at most a few hundred offsets); large boxes such as the
        truncation box of E8 are only ever asked ``contains_offset``.
        """
        x = self.offset_of(k)
        return None if x is None else (x, self.cube_weights)

    def offset_of(self, k):
        """Lattice offset x in the box with K = base + 2Mx, or None when K
        is not such a vector (outside the box, another class or parity)."""
        return self._offset_map.get(tuple(k))

    def contains(self, k) -> bool:
        return self.offset_of(k) is not None

    def contains_offset(self, x) -> bool:
        return all(a <= xi <= b for xi, a, b in zip(x, self.xmin, self.xmax))

    def point(self, x) -> tuple:
        return lattice_point(self.graph, self.base, x)

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

    def to_json(self) -> dict:
        return {"base": list(self.base), "xmin": list(self.xmin),
                "xmax": list(self.xmax), "mcap": self.mcap}


def delta(e: Chain, region, fans=None) -> Chain:
    """The coboundary on finitely supported duals.

    Each dual U^{-m} (K, S)^v maps to the sum over cofaces (K, S+w) and
    (K - 2E_w, S+w), w outside S, of U^{-(m - d)} (coface)^v with d the
    weight gap; terms with d > m vanish in the target module.  Image terms
    whose base corner leaves the region are reported in ``escaped``.
    ``region`` is a Region or any window with the same ``frame``,
    ``contains`` and ``mcap``: ``frame(K)`` gives K's offset x and the cube
    weights it is read against, and a coface at offset y has base corner
    K + 2M(y - x).

    The fan of (K, S), its cofaces as (base corner, mask, gap, inside), is
    built once per call, or once per caller that passes one ``fans`` dict
    to several calls on one window; fans hold fault-applied values, so that
    dict must not outlive the caller's call.
    """
    graph = region.graph
    fans = {} if fans is None else fans
    inside, out = set(), set()
    for k, s, m in e.terms:
        fan = fans.get((k, s))
        if fan is None:
            frame = region.frame(k)
            if frame is None:
                raise OutsideRegionError("term %r lies outside the region" % ((k, s, m),))
            x, weight = frame
            fan = fans[k, s] = []
            for y, up, gap in cofaces(weight, x, s, graph.n):
                k2 = k if y is x else lattice_point(graph, k, map(operator.sub, y, x))
                fan.append((k2, up, gap, region.contains(k2)))
        for k2, up, gap, in_window in fan:
            if gap > m:
                continue
            ok = in_window and m - gap <= region.mcap
            (inside if ok else out).symmetric_difference_update([(k2, up, m - gap)])
    return Chain(frozenset(inside), frozenset(out))


def weight_monotonicity_check(region: Region, offsets=None) -> bool:
    """Every cube must weigh at least as much as each of its faces, so all
    U-exponents in the coboundary are nonnegative.  True when that holds
    for every face with base corner at one of ``offsets`` (by default all of
    the region's) and each of its cofaces, read through the region's memo."""
    n = region.graph.n
    offsets = region.iter_offsets() if offsets is None else offsets
    try:
        return all(gap >= 0 for x in offsets for s in range(1 << n)
                   for _, _, gap in cofaces(region.cube_weights, x, s, n))
    except MonotonicityError:
        return False


def delta_squared_failures(region: Region, ks, levels):
    """Apply the coboundary twice to every dual U^{-m} (K, S)^v with K in
    ``ks``, S any mask and m in ``levels``.  Yields (K, S, m, check) for each
    dual that fails: check is "interior-escape" when the first image leaves
    the region, "delta-squared" when the second does or is nonzero.  Both
    applications share one dict of coface fans, dropped with this call."""
    fans = {}
    for k in ks:
        for s in range(1 << region.graph.n):
            for m in levels:
                once = delta(Chain.dual(k, s, m), region, fans)
                if once.escaped:
                    yield k, s, m, "interior-escape"
                    continue
                twice = delta(once, region, fans)
                if twice.escaped or twice:
                    yield k, s, m, "delta-squared"


def delta_squared_check(region: Region, mcaps=None) -> bool:
    """True when the coboundary applied twice vanishes, without leaving the
    region, on every dual whose base corner sits at least two steps above
    the bottom of the box."""
    interior = [k for k, x in region._offset_map.items()
                if all(a + 2 <= xi for xi, a in zip(x, region.xmin))]
    levels = range(region.mcap + 1) if mcaps is None else mcaps
    return not any(delta_squared_failures(region, interior, levels))


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


def _descend(graph: PlumbingGraph, base, start):
    """Single-coordinate descent of the relative weight from ``start``.

    Cycles the vertices in declaration order, trying -1 then +1, moving
    while the weight strictly decreases.  Deterministic; it terminates
    because a definite form has finitely many offsets below any weight.
    """
    n = graph.n
    x = list(start)
    w = relative_weight(graph, base, x)
    improved = True
    while improved:
        improved = False
        for j in range(n):
            for sign in (-1, 1):
                while True:
                    trial = list(x)
                    trial[j] += sign
                    wt = relative_weight(graph, base, trial)
                    if wt < w:
                        x, w = trial, wt
                        improved = True
                    else:
                        break
    return tuple(x), w


def truncation_region(graph: PlumbingGraph, spinc_or_base, mcap: int,
                      hard_halfwidth: int = 1000) -> Region:
    """Finite region guaranteed to contain every cube of relative weight up
    to ``mcap`` plus a safety margin, for negative definite forms.

    Runs the coordinate descent, then bounds the sublevel set
    {x : w(x) - w* <= mcap + n + maxvar} where maxvar is the largest
    single-step weight change at the minimizer: the exact bounding box of
    the corresponding ellipsoid, intersected with a hard bounding box.
    Other forms have unbounded sublevel sets and raise DescentError.
    """
    if mcap < 0:
        raise ValueError("mcap must be nonnegative")
    base = tuple(getattr(spinc_or_base, "base", spinc_or_base))
    check_characteristic(graph, base)
    n = graph.n
    if n == 0:
        return Region(graph, base, (), (), mcap)
    if not is_negative_definite(graph):
        raise DescentError("the form is not negative definite, so its "
                           "sublevel sets are unbounded; pass explicit bounds")
    neg = [[-x for x in row] for row in intersection_matrix(graph)]

    # Plain coordinate descent can stall far above the minimum on strongly
    # correlated definite forms, so it starts at the rounded continuous
    # minimizer.
    xbar, wbar = continuous_minimum(graph, base)
    start = tuple(int(c.__floor__() + (1 if c - c.__floor__() > Fraction(1, 2)
                                       else 0)) for c in xbar)
    xstar, wstar = _descend(graph, base, start)
    maxvar = max(abs(relative_weight(graph, base,
                                     tuple(xi + (sign if i == j else 0)
                                           for i, xi in enumerate(xstar)))
                     - wstar)
                 for j in range(n) for sign in (-1, 1))
    budget = 2 * (Fraction(wstar) + mcap + n + maxvar - wbar)
    xmin, xmax = [], []
    for j in range(n):
        # The ellipsoid's half-width along x_j is sqrt(budget * (-M)^-1_jj).
        inv_jj = exact.solve_fraction(neg, [int(i == j) for i in range(n)])[j]
        lo, hi = exact.int_interval(xbar[j], budget * inv_jj)
        xmin.append(max(lo, -hard_halfwidth))
        xmax.append(min(hi, hard_halfwidth))
    return Region(graph, base, tuple(xmin), tuple(xmax), mcap)
