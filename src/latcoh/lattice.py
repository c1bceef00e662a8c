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

Inside the kernel an offset x is one packed int: coordinate j sits in a
``FIELD``-bit field as x_j + ``BIAS``, coordinate 0 most significant, so
that a step by e_w is one addition of ``1 << FIELD*(n-1-w)``.  The cube
(x, S) is the int ``x << n | S`` (its cube key), and the numeric order of
keys is the lexicographic order of (x, S).  Offsets are packed where they
enter (``pack``, which raises ``OffsetRangeError`` beyond
``OFFSET_LIMIT``) and unpacked only where they leave as tuples
(``unpack``): the ``Region`` box, JSON, and the characteristic vector
``lattice_point`` returns.  A point kept within the limit leaves one unit
of field on each side, so no step of the kernel, by -1 or by +1, carries
into the next coordinate.

This module is also the one kernel of the complex that the chain checks and
the homology engine share, as plain functions of the graph:
``relative_weight``, ``lattice_point`` (base + 2Mx), ``cube_weights`` (a
memoised cube-weight function of one base), ``offset_cube_weight`` and
``point_table`` (the reads of a cube and of a point's table from a memo,
which fill the point on a miss), ``coface_steps`` (the coboundary rule as
data: per mask, the key steps to the cofaces, as precomputed neighbour
offsets in cubical persistence codes, and their transpose to the faces),
``coface_keys`` (those steps added to a key) and ``cofaces`` (the same keys
with their weight gaps).  Each fault hook on them has its single site here.
``sublevel_points`` is the one enumeration of a definite class's sublevel
set, ``Region.bounding`` the one box around packed offsets, and
``retraction_box`` the box every sublevel set of a class retracts onto.
A ``Region`` turns K into an offset through its offset map, the box form of
``lattice_point``, summed a column of 2M at a time.  Values are immutable;
the only state is a cube-weight memo and the coface fans of ``delta``.  A
memo holds fault-free values and is owned by the one object that fills it:
a ``Region`` (its class), a cell bank, a triangle's context (one memo per
side and K, which its K-box windows, the corner gap r and the exponent by
definition, a point table a side, all read) or a single call.  Fans hold
fault-applied values, so they are owned by one call: of ``delta``, of
``delta_squared_failures``, or of ``triangle.chain_map_trials`` (one dict
per window).  No cache is keyed by a graph; the codec, the packed origin,
the key steps, the mask pairs and parities and the coface steps of each
vertex count n are small constant tables, cached for the process (the
coface steps per fault state, filled per mask on first use).  A memo maps a
packed offset x to its point table, the weights of the cubes (x, T) listed
in mask order; a cell bank's memo maps cube keys to its admissible cubes
only.
"""

import functools
import itertools
import operator
import struct
from dataclasses import dataclass, field
from fractions import Fraction

from . import exact, faults
from .graph import (DegenerateFormError, LatcohError, PlumbingGraph,
                    intersection_matrix, is_negative_definite)


class OutsideRegionError(LatcohError):
    pass


class DescentError(LatcohError):
    """``truncation_region`` on a form that is not negative definite, whose
    sublevel sets are unbounded.  (The name is older than the exact
    enumeration: it once reported a coordinate descent.)"""


class RegionTooSmallError(LatcohError):
    """A window too small for its margins, which a larger U cap widens."""
    hint = "wider --bounds or a smaller --max-depth"


class BasisCapError(LatcohError):
    pass


class OffsetRangeError(LatcohError):
    """An offset coordinate beyond ``OFFSET_LIMIT``, which the packed field
    cannot hold with room for a step."""


BASIS_CAP = 5_000_000

# The packed offset field.  These are fixed: ``_codec`` reads a field as a
# big-endian int16, so FIELD is 16 and BIAS is 2^15, and the limit leaves
# one unit on each side for the steps by e_w.
FIELD = 16
BIAS = 1 << (FIELD - 1)
OFFSET_LIMIT = BIAS - 2


@functools.cache
def _codec(n: int):
    """(int16 struct of n fields, mask flipping every field's top bit).
    Flipping the top bit turns x_j + BIAS into x_j in two's complement."""
    return (struct.Struct(">%dh" % n),
            sum(BIAS << FIELD * j for j in range(n)))


def check_offset(x, label="offset") -> None:
    """Raise ``OffsetRangeError``, naming the first coordinate of the
    integer tuple ``x`` beyond ``OFFSET_LIMIT`` and the limit, unless the
    packed field holds all of them."""
    if x and not -OFFSET_LIMIT <= min(x) <= max(x) <= OFFSET_LIMIT:
        j = next(j for j, xj in enumerate(x) if abs(xj) > OFFSET_LIMIT)
        raise OffsetRangeError(
            "%s coordinate %d is %d, outside the packed offset range "
            "[-%d, %d]" % (label, j, x[j], OFFSET_LIMIT, OFFSET_LIMIT))


def pack(x) -> int:
    """The packed offset of the integer tuple ``x`` (``check_offset``
    first)."""
    check_offset(x)
    fmt, flip = _codec(len(x))
    return int.from_bytes(fmt.pack(*x), "big") ^ flip


def unpack(x: int, n: int) -> tuple:
    """The integer tuple of the packed offset ``x`` of n coordinates."""
    fmt, flip = _codec(n)
    return fmt.unpack((x ^ flip).to_bytes(2 * n, "big"))


@functools.cache
def origin(n: int) -> int:
    """The packed offset 0 of n coordinates."""
    return pack((0,) * n)


def split_key(key: int, n: int) -> tuple:
    """(x, S) of a cube key, with x an integer tuple."""
    return unpack(key >> n, n), key & ((1 << n) - 1)


@functools.cache
def key_steps(n: int) -> tuple:
    """(bit of w, step of a cube key by e_w) for each direction w."""
    return tuple((1 << w, 1 << (FIELD * (n - 1 - w) + n)) for w in range(n))


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
    """q(base + 2Mx) - q(base) for a characteristic base and a sequence x
    of integer offsets: -(base(x) + (x, x)) / 2, an exact integer.  (x, x)
    is read off the weights and the edges, not the matrix."""
    total = 0
    for xi, bi, mi in zip(x, base, graph.weights):
        if xi:
            total += xi * (bi + mi * xi)
    cross = 0
    for i, j, sign in graph.edges:
        cross += sign * x[i] * x[j]
    total += 2 * cross
    assert total % 2 == 0, "characteristic parity violated"
    return -total // 2


def lattice_point(graph: PlumbingGraph, base, x) -> tuple:
    """The characteristic vector base + 2Mx for integer offsets x (any
    iterable), with Mx read off the weights and the edges."""
    x = tuple(x)
    k = [b + 2 * mi * xi for b, mi, xi in zip(base, graph.weights, x)]
    for i, j, sign in graph.edges:
        k[i] += 2 * sign * x[j]
        k[j] += 2 * sign * x[i]
    return tuple(k)


def cube_weights(graph: PlumbingGraph, base):
    """Cube weights, cube key -> weight relative to ``base`` (LatcohError
    unless characteristic) of the cube at base + 2Mx: ``offset_cube_weight``
    on (fill, memo, n), its memo a dict of point tables that it alone owns;
    ``point_table(*weight.args, x)`` reads the table of x from it."""
    check_characteristic(graph, base)
    memo = {}
    return functools.partial(offset_cube_weight,
                             functools.partial(_fill_point, graph, base, memo),
                             memo, graph.n)


def parity_offsets(n: int):
    """What the parity fault adds to the weight of a cube (x, T) in n
    coordinates, |T| mod 2, as a list in mask order; None when it is off.
    This is the one site of ``cube-weight-parity-offset``, and every read
    of a weight applies what it returns."""
    on = faults.is_active("cube-weight-parity-offset")
    return _parities(n) if on else None


@functools.cache
def _parities(n: int) -> list:
    return [t.bit_count() % 2 for t in range(1 << n)]


def offset_cube_weight(fill, memo: dict, n: int, key: int):
    """Weight of the cube with key ``key`` (in n coordinates): the largest
    relative weight over its corners x + 1_T, T inside S.

    ``memo`` belongs to the caller and holds fault-free values, so it stays
    valid whichever faults are active.  It maps a packed offset x to its
    point table, and ``fill(x)`` makes the table on a miss; with ``fill``
    None, ``memo`` is a cell bank's, by cube key, which
    ``engine._admissible_cubes`` fills beforehand so that it never misses.
    """
    val = memo[key] if fill is None else (
        memo.get(key >> n) or fill(key >> n))[key & ((1 << n) - 1)]
    odd = parity_offsets(n)
    return val if odd is None else val + odd[key & ((1 << n) - 1)]


def point_table(fill, memo: dict, n: int, x: int) -> list:
    """The weights of the 2^n cubes (x, T) in mask order, as
    ``offset_cube_weight`` reads one: with no fault active, the memo's own
    list, which the caller must not change."""
    table = memo.get(x) or fill(x)
    odd = parity_offsets(n)
    return table if odd is None else list(map(operator.add, table, odd))


def _fill_point(graph, base, memo, x):
    """Store and return the point table of x.  With K = base + 2Mx and p the
    weight of x, the corner x + 1_T weighs p - sum_{i in T} (K_i + m_i)/2 -
    sum_{i<j in T} M_ij, an int as K is characteristic, and the cube weights
    are the subset maxima of the corners, one pass per bit."""
    n = graph.n
    point = unpack(x, n)
    corners = [relative_weight(graph, base, point)]
    for k, m in zip(lattice_point(graph, base, point), graph.weights):
        half = (k + m) // 2
        corners += [c - half for c in corners]
    corners = [c - q for c, q in zip(corners, graph.pair_sums)]
    for lower, upper in _mask_pairs(n):
        for s, t in zip(lower, upper):
            if corners[s] > corners[t]:
                corners[t] = corners[s]
    memo[x] = corners
    return corners


@functools.cache
def _mask_pairs(n: int) -> tuple:
    """(masks without bit w, the same masks with it) for each direction w."""
    low = [[s for s in range(1 << n) if not s >> w & 1] for w in range(n)]
    return tuple((lo, [s | 1 << w for s in lo]) for w, lo in enumerate(low))


class _PerMask(dict):
    """mask -> entry, each built by ``make`` the first time it is read, so
    a table holds only the masks its readers reach (at most 2^n, and far
    fewer in a cell bank of many vertices)."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, s):
        entry = self[s] = self.make(s)
        return entry


def coface_steps(n: int) -> _PerMask:
    """The coboundary rule in n coordinates, as data: for each mask S the
    tuple of steps d, one per coface, that take a cube key (x, S) to the
    keys (x, S + w) and (x - e_w, S + w) of its cofaces, for every
    direction w outside S in turn; its ``faces``, the transpose, has the d
    of each w in T with key - d the faces of (x, T).  The table is cached
    per n and fault state; this is the one site of the shift-sign fault."""
    return _coface_table(n, faults.is_active("delta-coface-shift-sign"))


@functools.cache
def _coface_table(n: int, wrong_way: bool) -> _PerMask:
    pairs = [(bit, bit + unit if wrong_way else bit - unit)
             for bit, unit in key_steps(n)]

    def steps(inside):
        return _PerMask(lambda s: tuple(d for w, pair in enumerate(pairs)
                                        if s >> w & 1 == inside for d in pair))
    table = steps(0)
    table.faces = steps(1)
    return table


def coface_keys(key: int, n: int) -> list:
    """The keys of the cofaces of the cube with key ``key``, in n
    coordinates, in the order of ``coface_steps``."""
    return [key + d for d in coface_steps(n)[key & ((1 << n) - 1)]]


def cofaces(cube_weight, key: int, n: int):
    """Yields (coface key, gap) for each of ``coface_keys(key, n)``, where
    gap, the weight of the coface minus that of the cube, is the U-power
    the coboundary lowers by.  ``cube_weight`` maps a cube key to a weight,
    like ``CellBank.cells.get``; gap is None where it has none.  A cube
    weighs the largest of its corners, so no gap is negative unless a fault
    corrupts the weights; ``weight_monotonicity_check`` tests it by tables.
    """
    w_here = cube_weight(key)
    for y in coface_keys(key, n):
        w_up = cube_weight(y)
        yield y, None if w_up is None else w_up - w_here


def absolute_q(graph: PlumbingGraph, k) -> Fraction:
    """q(K) = -(K, K)/8 with (K, K) through the inverse form; exact rational.

    Only defined for nondegenerate forms; use relative weights otherwise.
    """
    coords = tuple(k)
    try:
        y = exact.solve_fraction(intersection_matrix(graph), coords)
    except ValueError as err:  # a singular form
        raise DegenerateFormError("absolute weights need a nondegenerate "
                                  "form") from err
    return -sum(Fraction(c) * yi for c, yi in zip(coords, y)) / 8


@dataclass(frozen=True)
class Region:
    """Finite window of one spin-c class: lattice offsets x in a box, with
    K = base + 2Mx, plus a cap on U-powers.  The box is given by integer
    tuples; the offsets the window takes and hands out are packed."""

    graph: PlumbingGraph
    base: tuple
    xmin: tuple
    xmax: tuple
    mcap: int

    @classmethod
    def bounding(cls, graph, base, offsets, mcap: int) -> "Region":
        """The least box holding the packed ``offsets`` (at least one)."""
        corners = list(zip(*(unpack(x, graph.n) for x in offsets)))
        return cls(graph, base, tuple(map(min, corners)),
                   tuple(map(max, corners)), mcap)

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
        """Cube weights (by cube key) of this class relative to the base,
        memoised a point table at a time for the lifetime of the region."""
        return cube_weights(self.graph, self.base)

    @functools.cached_property
    def _offset_map(self) -> dict:
        """Characteristic vector -> first packed offset reaching it in the
        box, for every form: the box form of ``lattice_point``, summed from
        the lower corner a column of 2M (and a packed step) at a time,
        coordinate 0 outermost, so the offsets come in ``iter_offsets``
        order.  It raises as a build by ``iter_offsets`` would:
        ``BasisCapError`` on the volume, ``OffsetRangeError`` at the first
        offset past the limit (the lower corner, or it with its last
        coordinate that passes the limit set just past it)."""
        first = next(self.iter_offsets())   # checks the volume first
        over = [j for j, b in enumerate(self.xmax) if b > OFFSET_LIMIT]
        if over:
            check_offset(self.xmin[:over[-1]] + (OFFSET_LIMIT + 1,))
        n, cols = self.graph.n, intersection_matrix(self.graph)  # symmetric
        points = [(self.point(first), first)]
        for w, (a, b) in enumerate(zip(self.xmin, self.xmax)):
            steps = [(tuple(2 * j * c for c in cols[w]),
                      j << FIELD * (n - 1 - w)) for j in range(b - a + 1)]
            points = [(tuple(map(operator.add, k, dk)), x + dx)
                      for k, x in points for dk, dx in steps]
        out = {}
        for k, x in points:
            out.setdefault(k, x)
        return out

    def frame(self, k):
        """(packed offset of K, cube weights of the class), or None when K
        lies outside the window.

        The first call builds the window's offset map, so a box of volume
        above ``BASIS_CAP`` raises ``BasisCapError`` here.  Windows that
        reach this stay small (the verification suites, the tests and the
        demos use at most a few hundred offsets); larger boxes, such as a
        ``--bounds`` box a cell bank is filtered by, are only ever asked
        ``contains_offset``.
        """
        x = self.offset_of(k)
        return None if x is None else (x, self.cube_weights)

    def offset_of(self, k):
        """Packed lattice offset x in the box with K = base + 2Mx, or None
        when K is not such a vector (outside the box, another class or
        parity)."""
        return self._offset_map.get(tuple(k))

    def contains(self, k) -> bool:
        return self.offset_of(k) is not None

    def contains_offset(self, x: int) -> bool:
        return all(a <= xi <= b for xi, a, b in
                   zip(unpack(x, self.graph.n), self.xmin, self.xmax))

    def point(self, x: int) -> tuple:
        """The characteristic vector at the packed offset ``x``."""
        return lattice_point(self.graph, self.base, unpack(x, self.graph.n))

    def iter_offsets(self):
        """The packed offsets of the box, in (lexicographic) order."""
        if self.volume() > BASIS_CAP:
            raise BasisCapError("region volume %d exceeds the basis cap" % self.volume())
        ranges = [range(a, b + 1) for a, b in zip(self.xmin, self.xmax)]
        return map(pack, itertools.product(*ranges))

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
    ``contains`` and ``mcap``: ``frame(K)`` gives K's packed offset x and
    the cube weights it is read against, and a coface at offset x - e_w has
    base corner K - 2 Me_w.

    The fan of (K, S), its cofaces as (base corner, mask, gap, inside), is
    built once per call, or once per caller that passes one ``fans`` dict
    to several calls on one window; fans hold fault-applied values, so that
    dict must not outlive the caller's call.
    """
    graph, mcap = region.graph, region.mcap
    n, rows = graph.n, intersection_matrix(graph)
    full = (1 << n) - 1
    fans = {} if fans is None else fans
    inside, out = set(), set()
    for k, s, m in e.terms:
        fan = fans.get((k, s))
        if fan is None:
            frame = region.frame(k)
            if frame is None:
                raise OutsideRegionError("term %r lies outside the region" % ((k, s, m),))
            x, weight = frame
            key = x << n | s
            fan = fans[k, s] = []
            for up, gap in cofaces(weight, key, n):
                shift = (up >> n) - x
                if shift:
                    # The coface sits at x -+ e_w: K moves by -+2 row w of M.
                    two = 2 if shift > 0 else -2
                    row = rows[((up ^ key) & full).bit_length() - 1]
                    k2 = tuple(a + two * b for a, b in zip(k, row))
                else:
                    k2 = k
                fan.append((k2, up & full, gap, region.contains(k2)))
        for k2, up, gap, in_window in fan:
            if gap > m:
                continue
            term = (k2, up, m - gap)
            bag = inside if in_window and m - gap <= mcap else out
            if term in bag:
                bag.remove(term)
            else:
                bag.add(term)
    return Chain(frozenset(inside), frozenset(out))


def weight_monotonicity_check(region: Region, offsets=None) -> bool:
    """Every cube must weigh at least as much as each of its faces, so all
    U-exponents in the coboundary are nonnegative.  True when that holds
    for every face with base corner at one of the packed ``offsets`` (by
    default all of the region's) and each of its cofaces, compared per
    direction w in the point tables of x and of x - e_w (by ``coface_steps``)
    from the region's memo."""
    n = region.graph.n
    table = functools.partial(point_table, *region.cube_weights.args)
    steps = coface_steps(n)[0]      # (x, 0) to (x, w) and (x - e_w, w)
    dirs = [(lower, upper, steps[2 * w + 1] >> n)
            for w, (lower, upper) in enumerate(_mask_pairs(n))]
    offsets = region.iter_offsets() if offsets is None else offsets
    for x in offsets:
        here = table(x)
        for lower, upper, shift in dirs:
            faces = list(map(here.__getitem__, lower))
            for there in (here, table(x + shift)):
                if not all(map(operator.le, faces,
                               map(there.__getitem__, upper))):
                    return False
    return True


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
    n = region.graph.n
    interior = [k for k, x in region._offset_map.items()
                if all(a + 2 <= xi
                       for xi, a in zip(unpack(x, n), region.xmin))]
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


def sublevel_points(graph: PlumbingGraph, base, mcap: int,
                    limit: int = BASIS_CAP) -> dict:
    """The sublevel set of the class of ``base`` at U cap ``mcap``, for
    definite forms: every lattice offset of relative weight at most
    wmin + ``mcap``, packed, mapped to its relative weight, with wmin the
    least weight of an offset.

    One exact solve gives the real minimum.  Levels from its ceiling up,
    by doubling steps, are enumerated until one holds a point, whose least
    weight is wmin.  An offset beyond the packed range raises
    ``OffsetRangeError``, and more than ``limit`` points in one enumeration
    raise ``BasisCapError``.
    """
    neg = [[-x for x in row] for row in intersection_matrix(graph)]
    xbar, wbar = continuous_minimum(graph, base)

    def below(level):
        out = {}
        try:
            for x in exact.enumerate_sublevel(neg, xbar, 2 * (level - wbar),
                                              limit=limit):
                out[pack(x)] = relative_weight(graph, base, x)
        except RuntimeError as err:  # the enumeration's point limit
            raise BasisCapError(str(err)) from err
        return out

    level, step = wbar.__ceil__(), 1
    pts = below(level)
    while not pts:
        level += step
        step *= 2
        pts = below(level)
    return below(min(pts.values()) + mcap)


def retraction_box(graph: PlumbingGraph, base) -> tuple:
    """Offsets (lo, hi) of a box onto which every sublevel set S_L of the
    class of ``base`` deformation retracts, for a definite form: the cubes
    of the box have the bars of the whole class, however high they end.

    Flip the sign of some coordinates so that no entry of M off the
    diagonal is negative (a tree always allows it; a graph that does not
    raises ``LatcohError``), and let g_k(c) = w(c) - w(c - e_k).  A point
    y <= c with y_k = c_k has (My)_k <= (Mc)_k, so w(y) - w(y - e_k) >=
    g_k(c); where g_k(c) >= 0, sliding the face y_k = c_k of {y <= c} down
    by e_k retracts S_L within {y <= c} onto S_L within {y <= c - e_k},
    through cubes no heavier than those it moves, for every L at once.
    Let hi be the least point with g >= -1 (the condition is closed under
    coordinatewise minimum).  For c >= hi, c != hi, as -M is definite,
    some k with c_k > hi_k has g_k(c) - g_k(hi) = (-M(c - hi))_k >= 1: from
    a corner above the finite S_L the slides reach hi.  Likewise with
    h_k(c) = w(c) - w(c + e_k), S_L within {y <= hi} retracts onto the box
    from lo, the greatest point <= hi with h >= -1.  These equivalences
    commute with the inclusions S_L in S_L', so the persistence modules
    agree.  Each corner is found by Laufer's walk, raising (or lowering)
    one coordinate at a time where the bound fails, which never passes it
    (the monotonicity above); hi's walk starts from the floor of m +
    (-M)^-1 (diag(-M) / 2 - 1), m the real minimiser, below hi as
    (-M)^-1 >= 0.
    """
    n, mat = graph.n, intersection_matrix(graph)
    sign = [0] * n
    for root in range(n):
        if not sign[root]:
            sign[root], todo = 1, [root]
            while todo:
                i = todo.pop()
                for j in range(n):
                    if j != i and mat[i][j] and not sign[j]:
                        sign[j] = sign[i] * (1 if mat[i][j] > 0 else -1)
                        todo.append(j)
    if any(sign[i] * sign[j] * mat[i][j] < 0
           for i in range(n) for j in range(i)):
        raise LatcohError(
            "graph %r: no flip of coordinates leaves the form without a "
            "negative entry off the diagonal, so no box is known to hold its "
            "bars" % (graph.vertices,))

    def weight(y):
        return relative_weight(graph, base, [s * yi for s, yi in zip(sign, y)])

    def walk(c, step):
        k = 0
        while k < n:
            back = list(c)
            back[k] -= step
            if weight(c) - weight(back) < -1:
                c[k] += step
                k = 0
            else:
                k += 1
        return c

    xbar, _ = continuous_minimum(graph, base)
    flipped = [[sign[i] * sign[j] * -mat[i][j] for j in range(n)]
               for i in range(n)]
    twice = exact.solve_fraction(flipped, [-mat[i][i] - 2 for i in range(n)])
    hi = walk([(s * x + d / 2).__floor__()
               for s, x, d in zip(sign, xbar, twice)], 1)
    lo = walk(list(hi), -1)
    return (tuple(s * (a if s > 0 else b) for s, a, b in zip(sign, lo, hi)),
            tuple(s * (b if s > 0 else a) for s, a, b in zip(sign, lo, hi)))


def truncation_region(graph: PlumbingGraph, spinc_or_base, mcap: int) -> Region:
    """The bounding box of the class's ``sublevel_points`` at U cap
    ``mcap``: the ``region`` that ``engine.stabilize`` reports for the
    class without bounds.  A form that is not negative definite has
    unbounded sublevel sets and raises ``DescentError``."""
    if mcap < 0:
        raise ValueError("mcap must be nonnegative")
    base = tuple(getattr(spinc_or_base, "base", spinc_or_base))
    check_characteristic(graph, base)
    if not is_negative_definite(graph):
        raise DescentError("the form is not negative definite, so its "
                           "sublevel sets are unbounded; pass explicit bounds")
    return Region.bounding(graph, base, sublevel_points(graph, base, mcap),
                           mcap)
