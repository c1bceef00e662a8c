"""Exact cohomology of the lattice complex of one spin-c class.

The points of a class are its exact sublevel set for definite forms
(``lattice.sublevel_points``, an integer lattice-point enumeration), or
the points of an explicit box under the cap otherwise.  Cubes are then
built from the faces up over either point map: a cube is admissible iff
its corners are all points, and admissible cubes are downward closed.
Points and cubes are keyed by the lattice kernel's packed offsets and
cube keys (``lattice.pack``) and map to their relative weights, so a
step to a neighbouring cube is one addition and the numeric order of
keys is the (x, S) order every sort relies on.

By Nemethi's definition H^q of a class is the persistence module of its
sublevel filtration, with U acting as restriction, so
``module_presentation`` reads its towers and torsions off one reduction of
the cell bank's coboundary in filtration order.  The long-exact-sequence
check needs cycle representatives instead, so it splits the complex into
finite GF(2) pieces by degree and grading (``GradedGF2Complex``), within a
window sized from those bars (``les_check``).  A cube weighs the largest
of its corners, so no coface is lighter than its face and no code here
checks it; nothing here reads the fault flags either, which act only at
their sites in ``lattice`` and ``triangle``.  Every elimination runs over
bitset columns in a fixed order, so rerunning an input gives
byte-identical output.
"""

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from itertools import product

from . import gf2
from .graph import (LatcohError, PlumbingGraph, bad_vertices, graph_hash,
                    is_negative_definite, is_tree, spinc_representatives)
from .lattice import (BASIS_CAP, BasisCapError, Region, bits,
                      check_characteristic, coface_keys, coface_steps,
                      key_steps, lattice_point, offset_cube_weight,
                      relative_weight, retraction_box, sublevel_points,
                      unpack)
from .triangle import SesReport, TriangleContext, _a_targets, _b_targets


class NonStabilizingError(LatcohError):
    hint = "a larger --max-depth or wider bounds"


class BarsAboveCapError(NonStabilizingError):
    """Bars that may end above the U cap, in a box too large to read them
    from; at a cap as high as they may end, the cap's bank holds them."""
    hint = "a larger --max-depth"


class NoPieceError(Exception):
    """A dual (cube key, U-power) that no piece of a ``ComplexHomology``
    holds."""


class InvariantError(LatcohError):
    """A computed answer that breaks a law every cell bank obeys, so the
    computation itself went wrong and enlarging the window cannot help."""


@dataclass
class CellBank:
    """Enumerated cells of one class window.

    Cells are keyed by lattice offset, the honest index even when the form
    degenerates: ``points`` maps a packed offset x to its relative weight
    (the long-exact-sequence check alone reads characteristic vectors, and
    computes them with ``lattice_point``) and ``cells`` maps the cube key
    x << n | S to the cube's relative weight.  ``complete_to`` is the
    relative weight up to which the bank provably contains every cube of
    the infinite lattice (None when the box clipped the sublevel set or no
    weight cap was applied).  ``dropped`` lists the keys of the cubes with
    every corner in ``points`` that weigh more than the cap; a cube weighs
    the largest of its corners, so it is empty unless a fault corrupts the
    weights.

    ``cells`` holds exactly the cubes whose corners are all in ``points``
    and whose weight is within the cap.  They are built layer by layer
    from their faces (``_admissible_cubes``), never by trying every mask
    at every point; the memo that builds them holds nothing else and
    becomes ``cells`` in place.
    """

    graph: PlumbingGraph
    base: tuple
    points: dict
    cells: dict
    wmin: int
    complete_to: int = None
    dropped: tuple = ()


def _admissible_cubes(pts, n):
    """Weights of every cube (x, S) whose corners are all in ``pts``, by
    cube key, in the fault-free memo form ``offset_cube_weight`` reads.

    Admissible cubes are downward closed: the corners of (x, S + j) are
    those of its faces (x, S) and (x + e_j, S), and it weighs the larger
    of the two.  So masks grow one popcount layer at a time, (x, S) is
    extended only by directions j above the highest bit of S (each mask is
    built once), and only when (x + e_j, S) is already present; no miss is
    stored.  Raises ``BasisCapError`` once more than ``BASIS_CAP`` cubes
    are built.
    """
    memo = {x << n: w for x, w in pts.items()}
    steps, full = key_steps(n), (1 << n) - 1
    steps_above = [steps[top:] for top in range(n + 1)]   # by S's top bit
    layer = list(memo)
    while layer:
        grown = []
        for key in layer:
            w = memo[key]
            for bit, unit in steps_above[(key & full).bit_length()]:
                other = memo.get(key + unit)
                if other is not None:
                    up = key | bit
                    memo[up] = w if w >= other else other
                    grown.append(up)
            if len(memo) > BASIS_CAP:
                raise BasisCapError("cell bank exceeded %d cubes" % BASIS_CAP)
        layer = grown
    return memo


def class_cells(graph: PlumbingGraph, spinc_or_base, mcap: int,
                box: Region = None) -> CellBank:
    """Enumerate the cubes of one class up to relative weight wmin + mcap:
    the exact sublevel set for definite forms (restricted to ``box`` when
    given), the points of ``box`` otherwise."""
    base = tuple(getattr(spinc_or_base, "base", spinc_or_base))
    check_characteristic(graph, base)
    n = graph.n
    complete = None
    if is_negative_definite(graph):
        unfiltered = sublevel_points(graph, base, mcap)
        wcap = min(unfiltered.values()) + mcap
        if box is not None:
            pts = {x: w for x, w in unfiltered.items() if box.contains_offset(x)}
            complete = wcap if len(pts) == len(unfiltered) else None
        else:
            pts = unfiltered
            complete = wcap
    else:
        if box is None:
            raise LatcohError("the form is not negative definite, so its "
                              "sublevel sets are not finite: pass --bounds")
        # ``iter_offsets`` enforces the basis cap on the box volume.
        pts = {x: relative_weight(graph, base, unpack(x, n))
               for x in box.iter_offsets()}
        wcap = min(pts.values()) + mcap
        pts = {x: w for x, w in pts.items() if w <= wcap}

    if not pts:
        raise NonStabilizingError("no lattice points under the weight cap")
    return _bank(graph, base, pts, wcap, complete)


def _bank(graph, base, pts, wcap, complete):
    """The bank of the cubes with every corner in ``pts`` and weight at
    most ``wcap``.

    Every admissible cube is read once through the kernel's weight
    routine, which adds the active faults to the memo's fault-free value.
    A cube in the memo is read without touching any other entry, so the
    memo becomes the bank in place and the two are never held in full.
    Every corner of a cube weighs at most ``wcap``, so a cube dropped here
    is one whose weight a fault raised; the bank records it in
    ``dropped``."""
    n = graph.n
    cells = _admissible_cubes(pts, n)
    point_weight = pts.get
    dropped = []
    for key in list(cells):
        w = offset_cube_weight(point_weight, cells, n, key)
        if w <= wcap:
            cells[key] = w
        else:
            del cells[key]
            dropped.append(key)
    return CellBank(graph, base, pts, cells, min(pts.values()), complete,
                    tuple(dropped))


class GradedGF2Complex:
    """Bases and coboundary matrices of one class, split by (degree,
    grading), for the long-exact-sequence check only.

    A dual U^{-m} (x, S)^v has grading g = 2m + 2(w - wmin) and the
    coboundary keeps g, so with U cap mcap the piece (q, 2L) is the
    relative cochain complex C^q(S_L, S_{L-mcap-1}) of two sublevel sets
    (levels relative to wmin): ``bases[(q, 2L)]`` maps each degree-q cube
    key of relative weight w in [L - mcap, L], in bank order, to its
    position, and the cube's U-power there is L - w.  L runs up to
    complete_to - wmin, the level the bank certifies; above mcap the pieces
    are U-truncated.  Only complete banks are accepted: in a box-clipped
    bank a missing coface may be a cube the box cut off.  Every cell is
    taken to weigh within [wmin, complete_to], as ``class_cells`` builds
    them.

    The bases are filled in one pass over the bank: a cube of relative
    weight w goes into the maps of levels w to min(w + mcap, top), a slice
    of its degree's list of per-level maps taken once per (degree, w).
    """

    def __init__(self, bank: CellBank, mcap: int):
        if bank.complete_to is None:
            raise ValueError("the cell bank is not complete: a box clipped "
                             "its sublevel set")
        self.bank = bank
        n, wmin = bank.graph.n, bank.wmin
        top = bank.complete_to - wmin
        full = (1 << n) - 1
        levels = [[{} for _ in range(top + 1)] for _ in range(n + 1)]
        fills = [[per[w:min(w + mcap, top) + 1] for w in range(top + 1)]
                 for per in levels]
        count = 0
        for key, w in bank.cells.items():
            fill = fills[(key & full).bit_count()][w - wmin]
            for piece in fill:
                piece[key] = len(piece)
            count += len(fill)
            if count > BASIS_CAP:
                raise BasisCapError("basis exceeded %d triples" % BASIS_CAP)
        self.bases = {(deg, 2 * level): piece
                      for deg, per in enumerate(levels)
                      for level, piece in enumerate(per) if piece}

    def pieces(self):
        return sorted(self.bases)

    def dim(self, deg, g) -> int:
        return len(self.bases.get((deg, g), ()))

    def delta_matrix(self, deg, g, fans=None):
        """Columns over the (deg, g) basis with rows in the (deg+1, g) basis:
        the coboundary of the pair of sublevel sets, so a cube's column has
        the row of each of its cofaces that the target piece holds.

        A cube's fan, its cofaces in the bank, is read once off the
        ``coface_steps`` of its mask and kept in ``fans`` for every level:
        a fresh dict unless the caller passes one (``ComplexHomology`` does,
        for one build).  Fans hold fault-applied values, so that dict must
        not outlive the caller's call.
        """
        cells, n = self.bank.cells, self.bank.graph.n
        full = (1 << n) - 1
        steps = coface_steps(n)
        row = self.bases.get((deg + 1, g), {}).get
        fans = {} if fans is None else fans
        cols = []
        for key in self.bases.get((deg, g), ()):
            fan = fans.get(key)
            if fan is None:
                fan = fans[key] = [up for d in steps[key & full]
                                   if (up := key + d) in cells]
            # The cofaces of one cube are distinct, so no two rows cancel.
            col = 0
            for r in map(row, fan):
                if r is not None:
                    col |= 1 << r
            cols.append(col)
        return cols


class ComplexHomology:
    """Homology of every (degree, grading) piece, for the long-exact-sequence
    check only.

    ``pieces`` maps (degree, grading) to (quotient of the cycles by the
    boundaries, representative cycles), so chain maps can be pushed to
    homology exactly.  Each coboundary is eliminated once: pieces run in
    (degree, grading) order, and the one reduction of δ_q by
    ``gf2.kernel_basis`` gives the cycles of piece (q, g) and the staircase
    of the boundaries of piece (q + 1, g).  The fans live as long as it.
    """

    def __init__(self, cx: GradedGF2Complex):
        self.cx = cx
        self.pieces = {}
        fans = {}
        images = {}
        for deg, g in cx.pieces():
            cycles, images[(deg, g)] = gf2.kernel_basis(
                cx.delta_matrix(deg, g, fans))
            quotient = gf2.Quotient(images.pop((deg - 1, g), None)
                                    or gf2.Basis())
            reps = [v for v in cycles if quotient.add(v)]
            self.pieces[(deg, g)] = (quotient, reps)

    @property
    def dims(self):
        return {pg: len(reps) for pg, (_, reps) in self.pieces.items() if reps}

    def reduce_chain(self, terms) -> dict:
        """Homology coordinates of a cycle given by (cube key, U-power)
        duals, split by (degree, grading) piece.  A dual that no piece
        holds raises ``NoPieceError``, and a chain that is not a cycle
        ValueError (``gf2.Quotient.coords``)."""
        bank, bases = self.cx.bank, self.cx.bases
        full = (1 << bank.graph.n) - 1
        grouped = {}
        for key, m in terms:
            # A key outside the bank is in no piece, whatever its weight.
            pg = ((key & full).bit_count(),
                  2 * (m + bank.cells.get(key, 0) - bank.wmin))
            pos = bases.get(pg, {}).get(key)
            if pos is None:
                raise NoPieceError(key, m)
            grouped[pg] = grouped.get(pg, 0) ^ (1 << pos)
        return {pg: self.pieces[pg][0].coords(vec)
                for pg, vec in grouped.items()}


@dataclass(frozen=True)
class DegreeModule:
    """Summands of one cube degree: tower bottoms and (bottom, length)
    torsion pieces, gradings relative to the class minimum."""

    towers: tuple
    torsions: tuple


def _column(hits, base):
    """The GF(2) sum of the rows ``hits`` (None, a coface outside the bank,
    is skipped) as a bitset shifted down to row ``base``: a row hit twice
    cancels."""
    col = 0
    for row in hits:
        if row is not None:
            col ^= 1 << (row - base)
    return col


def _low(col, base):
    """The earliest row of a column shifted down to row ``base``, or None
    when the column is zero."""
    return base + (col & -col).bit_length() - 1 if col else None


def module_presentation(bank: CellBank) -> dict:
    """Decompose the class's cohomology into cyclic U-summands per degree.

    H^q is the persistence module of the sublevel filtration, with U the
    restriction map, so its summands are the bars of one reduction of the
    bank's coboundary in filtration order: the cohomology form with
    clearing (de Silva, Morozov and Vejdemo-Johansson 2011; Chen and
    Kerber 2011).  Within a degree the cells are cube keys sorted by
    (weight, cube key), and rows are indexed per degree, which keeps the
    columns short.  Degree d is reduced before d + 1, its columns from last
    to first, each pivoting at its earliest row; a degree-(d+1) cell that
    was a pivot row of degree d is already paired, so its column is
    skipped.  A column is the rows of the cell's cofaces, read off the
    ``coface_steps`` of its mask (a coface is in the bank iff it has a
    row).  A cube weighs at least as much as each of its faces, so the
    earliest row of a column is never lighter than its cell.

    Pivots are implicit, as in Ripser (Bauer 2021): almost every column
    needs no addition, and such a pivot keeps only its cell's position and
    is rebuilt from ``coface_keys`` when a later column collides with it.
    Only a column that took additions is stored, as a bitset shifted down
    to its low row, so no pivot costs bits below its earliest row.

    A pair (sigma, tau) is torsion of bottom 2(w(sigma) - wmin) and length
    w(tau) - w(sigma); a pair of equal weights is no summand.  An unpaired
    cell is a summand that reaches the top grading, reported as a tower
    (exactly so when ``stabilize`` certifies the answer).
    """
    cells, n, wmin = bank.cells, bank.graph.n, bank.wmin
    full = (1 << n) - 1
    steps = coface_steps(n)
    layers = {}
    for key in cells:
        layers.setdefault((key & full).bit_count(), []).append(key)
    for keys in layers.values():
        keys.sort()
        keys.sort(key=cells.__getitem__)   # stable, so in (weight, key) order
    out = {}
    cleared = set()
    order = layers.get(0, [])
    below = [cells[key] for key in order]
    for deg in range(len(layers)):
        upper = layers.get(deg + 1, [])
        above = [cells[key] for key in upper]
        rows = dict(zip(upper, range(len(upper))))
        get = rows.get
        pivots = {}     # low row -> position of the cell pivoting there
        reduced = {}    # low row -> pivot column that took additions,
                        # shifted down to that row
        towers, torsions = [], []
        for pos in range(len(order) - 1, -1, -1):
            if pos in cleared:
                continue
            w = below[pos]
            key = order[pos]
            hits = [row for d in steps[key & full]
                    if (row := get(key + d)) is not None]
            base = low = min(hits) if hits else None
            col = None
            if hits.count(low) > 1:
                # A row hit twice cancels, so the sum decides the low.
                col = _column(hits, base)
                low = _low(col, base)
            if low is not None:
                if col is None and low not in pivots:
                    pivots[low] = pos
                else:
                    if col is None:
                        col = _column(hits, base)
                    while low is not None:
                        other = pivots.get(low)
                        if other is None:
                            pivots[low] = pos
                            reduced[low] = col >> (low - base)
                            break
                        add = reduced.get(low)
                        if add is None:
                            add = _column(map(get,
                                              coface_keys(order[other], n)),
                                          low)
                        col ^= add << (low - base)
                        low = _low(col, base)
            if low is None:
                towers.append(2 * (w - wmin))
            elif above[low] > w:
                torsions.append((2 * (w - wmin), above[low] - w))
        if towers or torsions:
            out[deg] = DegreeModule(tuple(sorted(towers)),
                                    tuple(sorted(torsions)))
        cleared = set(pivots)
        order, below = upper, above
    return out


@dataclass(frozen=True)
class GradedModulePresentation:
    """Per-class output of the lattice cohomology computation."""

    graph_hash: str
    class_index: int
    base: tuple
    degrees: dict
    stabilized: bool
    region: dict

    def to_json(self) -> list:
        records = []
        for deg in sorted(self.degrees) or [0]:
            mod = self.degrees.get(deg, DegreeModule((), ()))
            records.append({
                "graph_hash": self.graph_hash,
                "class_index": self.class_index,
                "degree": deg,
                "towers": [{"bottom": b} for b in mod.towers],
                "torsions": [{"bottom": b, "length": k} for b, k in mod.torsions],
                "stabilized": self.stabilized,
                "region": self.region,
            })
        return records


def _one_tower(degrees: dict) -> bool:
    """Whether the summands reaching the top grading are exactly the
    towers a negative definite lattice has.

    For a negative definite lattice H^0 has exactly one tower and H^q is
    finite for q >= 1 (Nemethi's structure theorem).  A summand that reaches
    grading 2 mcap may still be torsion longer than the window, so the
    presentation is exact only when exactly one degree-0 summand and no
    summand of higher degree reaches it."""
    towers = {deg: len(mod.towers) for deg, mod in degrees.items()}
    return towers.pop(0, 0) == 1 and not any(towers.values())


def _presentation_data(bank, mcap):
    """Graded homology of one class's complete ``bank`` in every grading up
    to twice its level, for the long-exact-sequence check."""
    return ComplexHomology(GradedGF2Complex(bank, mcap))


def _check_laws(bank, degrees, where):
    """Raise ``InvariantError``, naming ``where`` and the law, when the
    presentation ``degrees`` of ``bank`` breaks a law of every correct one:
    the lightest point is never paired (the elder rule), so degree 0 has a
    tower at bottom 0.  On a complete bank of a connected tree with nu bad
    vertices H^q = 0 for q >= max(nu, 1) (Laszlo and Nemethi's reduction
    theorem), so no such degree has a summand; and with nu = 0 the whole
    answer is the one tower at bottom 0.  Last, the bank is a subcomplex:
    no cell lacks a face, which only a cube in ``bank.dropped`` can break,
    so a bank that dropped none costs nothing here."""
    towers = degrees.get(0, DegreeModule((), ())).towers
    if 0 not in towers:
        raise InvariantError(
            "%s: degree 0 has tower bottoms %s but no tower at bottom 0, "
            "which the lightest point always gives" % (where, list(towers)))
    if bank.complete_to is not None and is_tree(bank.graph):
        nu = len(bad_vertices(bank.graph))
        above = [deg for deg in degrees if deg >= max(nu, 1)]
        if above:
            raise InvariantError(
                "%s: degree %d has summands, but a tree with %d bad vertices "
                "has none in degree >= %d" % (where, min(above), nu,
                                              max(nu, 1)))
        if not nu and degrees != {0: DegreeModule((0,), ())}:
            raise InvariantError(
                "%s: degree 0 has towers %s and torsions %s, but a tree with "
                "no bad vertices has one tower at bottom 0 and nothing else"
                % (where, list(towers), list(degrees[0].torsions)))
    n = bank.graph.n
    for face in bank.dropped:
        for bit, unit in key_steps(n):
            if face & bit:
                continue
            for cell in (face | bit, (face | bit) - unit):
                if cell in bank.cells:
                    raise InvariantError(
                        "%s: cell %s is in the bank but its face %s is not, "
                        "and a bank holds every face of its cells"
                        % (where, _cube_text(bank.graph, cell),
                           _cube_text(bank.graph, face)))


def _cube_text(graph, key):
    """The cube of ``key`` as (offset, vertices of its mask), for errors."""
    n = graph.n
    return "(x=%s, S=%s)" % (list(unpack(key >> n, n)),
                             [graph.vertices[j]
                              for j in bits(key & ((1 << n) - 1))])


def stabilize(graph: PlumbingGraph, spinc_or_base, mcap: int,
              bounds: Region = None) -> GradedModulePresentation:
    """Compute the presentation of one class once, in every grading up to
    twice the U cap.

    Without ``bounds`` the cells are the exact sublevel set of the class
    (definite forms only); with them, the cells inside ``bounds`` rebased
    onto the class.  The answer is flagged stable exactly when the cell
    bank is certified to hold every cube of the infinite lattice up to the
    cap (``CellBank.complete_to``, which only definite forms reach) and
    the summands at the top grading are the single degree-0 tower the
    structure theorem allows (``_one_tower``); otherwise a torsion summand
    may be reported as a tower.  ``region`` is the bounding box of the
    enumerated offsets at this U cap; passing it back as ``bounds``
    reproduces the answer.  An answer that breaks a law of every correct
    one raises ``InvariantError`` (``_check_laws``)."""
    base = tuple(getattr(spinc_or_base, "base", spinc_or_base))
    index = spinc_or_base.index if hasattr(spinc_or_base, "base") else -1
    box = None if bounds is None else replace(bounds, base=base)
    bank = class_cells(graph, base, mcap, box=box)
    region = Region.bounding(graph, base, bank.points, mcap)
    degrees = module_presentation(bank)
    _check_laws(bank, degrees, "class %d (base %s)" % (index, list(base)))
    return GradedModulePresentation(
        graph_hash=graph_hash(graph), class_index=index, base=base,
        degrees=degrees,
        stabilized=bank.complete_to is not None and _one_tower(degrees),
        region=region.to_json())


# ---------------------------------------------------------------------------
# Long exact sequence of the surgery triangle on homology.


@dataclass(frozen=True)
class LesReport:
    """Exactness bookkeeping for the homology triangle."""

    graph_hash: str
    vertex: str
    mcap: int
    grading_pad: int
    dims: dict          # side -> {(degree, grading): dim}
    rows: tuple         # per-degree rank table (dicts)
    exact: bool

    def to_json(self) -> dict:
        return {
            "graph_hash": self.graph_hash, "vertex": self.vertex,
            "mcap": self.mcap, "grading_pad": self.grading_pad,
            "dims": {side: {"%d,%d" % pg: d for pg, d in sorted(vals.items())}
                     for side, vals in self.dims.items()},
            "table": [dict(row) for row in self.rows],
            "exact": self.exact,
        }


class _Side:
    """One side of a triangle check: the homology of every spin-c class of
    ``graph`` on its bank in ``banks`` (in class order), indexed in the
    pass that builds it.

    ``lookup`` maps raw characteristic vectors to (class index, packed
    offset shifted to a cube key with empty mask), injective because the
    sides are definite.  ``offsets`` maps each (class, degree, grading)
    piece with homology to its offset inside H^degree of the side, in
    (class, grading) order; ``dims`` and ``degree_dims`` sum the dimensions
    over the classes by (degree, grading) and by degree.
    """

    def __init__(self, graph, mcap, banks):
        self.homs, self.lookup, self.offsets = [], {}, {}
        self.dims, self.degree_dims = {}, Counter()
        for cls, bank in zip(spinc_representatives(graph), banks):
            hom = _presentation_data(bank, mcap)
            for x in bank.points:
                k = lattice_point(graph, cls.base, unpack(x, graph.n))
                self.lookup[k] = (cls.index, x << graph.n)
            for (deg, g), d in hom.dims.items():   # in piece order
                self.offsets[(cls.index, deg, g)] = self.degree_dims[deg]
                self.degree_dims[deg] += d
                self.dims[(deg, g)] = self.dims.get((deg, g), 0) + d
            self.homs.append(hom)


def _side_banks(graph, level):
    """The banks at U cap ``level`` of the classes of ``graph``, in class
    order."""
    return [class_cells(graph, cls.base, level)
            for cls in spinc_representatives(graph)]


def _map_columns(src, image_terms, dst):
    """Matrix columns, by degree, of a chain map on homology from side
    ``src`` to side ``dst``.  Returns (cols, broken).

    Each representative of ``src`` is pushed once, in (class, degree,
    grading) order, so each degree's columns follow the offsets of ``src``.
    The image terms carry raw characteristic vectors (the chain maps know
    nothing about class decompositions); each is routed to its class in
    ``dst``, and the classes are reduced in the order the terms first reach
    them.  An image that is not a cycle, or has a term that no piece of
    ``dst`` holds, is a zero column and sets the flag: in the window
    ``les_check`` certifies, only a corrupted map gives either.
    """
    cols, broken = {}, False
    for hom in src.homs:
        bank = hom.cx.bank
        n = bank.graph.n
        for deg, g in hom.dims:
            keys = list(hom.cx.bases[(deg, g)])
            for rep in hom.pieces[(deg, g)][1]:
                terms = set()
                for pos in bits(rep):
                    key = keys[pos]
                    m = g // 2 - (bank.cells[key] - bank.wmin)
                    k = lattice_point(bank.graph, bank.base,
                                      unpack(key >> n, n))
                    for t in image_terms(k, key & ((1 << n) - 1), m):
                        terms.symmetric_difference_update([t])
                grouped, col = {}, 0
                try:
                    for k, s, m in terms:
                        if k not in dst.lookup:
                            raise NoPieceError(k, m)
                        ci, corner = dst.lookup[k]
                        grouped.setdefault(ci, []).append((corner | s, m))
                    for ci, part in grouped.items():
                        reduced = dst.homs[ci].reduce_chain(part)
                        for pg, coords in reduced.items():
                            if coords:
                                col ^= coords << dst.offsets[(ci, *pg)]
                except (NoPieceError, ValueError):
                    col, broken = 0, True
                cols.setdefault(deg, []).append(col)
    return cols, broken


def _box_bars(graph, base, box):
    """The presentation of the bank of every cube of the offset box
    (lo, hi), weighed as ``class_cells`` weighs them; a box of more than
    ``BASIS_CAP`` offsets raises ``BasisCapError``."""
    pts = {x: relative_weight(graph, base, unpack(x, graph.n))
           for x in Region(graph, base, *box, 0).iter_offsets()}
    return module_presentation(_bank(graph, base, pts, max(pts.values()),
                                     None))


def _certified_banks(name, graph, mcap):
    """The banks at U cap ``mcap`` of the classes of one side, in class
    order, and the largest finite bar endpoint of the side, in levels
    above wmin: a tower's bottom or a torsion's top.

    Each class must obey ``_check_laws`` at the cap (else
    ``InvariantError``).  Its bars are then read whole: its sublevel sets
    retract onto the cubes of ``lattice.retraction_box``, so no bar ends
    above the box's heaviest corner, and when that lies above the cap the
    bars are those of the box's bank (``BarsAboveCapError`` if it is too
    large).  The filtration ends contractible, so the bars must hold the
    one degree-0 tower of ``_one_tower`` (else ``InvariantError``)."""
    if not is_negative_definite(graph):
        raise NonStabilizingError(
            "graph %r is not negative definite; the truncation does not "
            "stabilize" % (graph.vertices,))
    banks, last = [], 0
    for cls, bank in zip(spinc_representatives(graph),
                         _side_banks(graph, mcap)):
        bars = module_presentation(bank)
        where = "%s class %d (base %s)" % (name, cls.index, list(cls.base))
        _check_laws(bank, bars, where)
        box = retraction_box(graph, cls.base)
        top = max(relative_weight(graph, cls.base, corner)
                  for corner in product(*zip(*box))) - bank.wmin
        if top > mcap:
            try:
                bars = _box_bars(graph, cls.base, box)
            except BasisCapError as err:
                raise BarsAboveCapError(
                    "%s: its bars may end as high as level %d, above the U "
                    "cap %d, and the box %s that holds them is too large: %s"
                    % (where, top, mcap, list(box), err)) from err
        if not _one_tower(bars):
            raise InvariantError(
                "%s: its bars end in towers %s, but its sublevel sets end "
                "contractible, with one degree-0 tower"
                % (where, {deg: list(mod.towers) for deg, mod in bars.items()}))
        banks.append(bank)
        for mod in bars.values():
            last = max(last, *(b // 2 for b in mod.towers),
                       *(b // 2 + k for b, k in mod.torsions))
    return banks, last


def les_check(ctx: TriangleContext, mcap: int, ses: SesReport) -> LesReport:
    """Verify the exact triangle on homology at every cube degree.

    Computes the three truncated cohomologies, pushes A and B to homology,
    and checks per degree: the image of A* equals the kernel of B*,
    B* A* = 0, and the connecting rank inferred at the bottom node matches
    the kernel of A* one degree up.  The induced maps exist only if A and B
    are chain maps, which ``ses`` (the caller's ``verify_ses`` report for
    the same triangle) samples; its verdict is folded into ``exact``, as
    the ranks alone cannot see a corrupted map.

    The grading window is computed once, from every bar of every class
    of the three sides (``_certified_banks``).  With E the largest finite
    bar endpoint, the piece C^q(S_L, S_{L-mcap-1}) has homology only if an
    endpoint lies in (L - mcap - 1, L] (the exact sequence of the pair), so
    the pieces are built to grading 2 (mcap + E), on the certified banks
    when E = 0 and on banks at level mcap + E otherwise; ``grading_pad``
    is E.
    """
    if (ses.graph_hash, ses.vertex) != (graph_hash(ctx.graph), ctx.v):
        raise ValueError("the SES report belongs to another triangle")
    graphs = ctx.plus, ctx.graph, ctx.minus
    certified = [_certified_banks(name, graph, mcap)
                 for name, graph in zip(("G+", "G", "G-v"), graphs)]
    pad = max(last for _, last in certified)
    banks = [side_banks if not pad else _side_banks(graph, mcap + pad)
             for (side_banks, _), graph in zip(certified, graphs)]
    del certified       # banks at level mcap: no use once pad > 0
    rep = _les_attempt(ctx, mcap, banks)
    return replace(rep, exact=rep.exact and ses.chain_maps_ok)


def _les_attempt(ctx, mcap, banks):
    """``les_check``'s report on ``banks``, one list per side (G+, G, G-v)
    of complete banks of one level, whose pieces it builds."""
    sides = plus, mid, minus = [
        _Side(graph, mcap, side_banks) for graph, side_banks
        in zip((ctx.plus, ctx.graph, ctx.minus), banks)]
    a_cols, bad_a = _map_columns(
        plus, lambda k, s, m: _a_targets(ctx, k, s, m)[m], mid)
    b_cols, bad_b = _map_columns(mid, partial(_b_targets, ctx), minus)
    rank_a = Counter({deg: gf2.rank(cols) for deg, cols in a_cols.items()})
    top = max((deg for side in sides for deg in side.degree_dims), default=0)
    rows = []
    exact = not (bad_a or bad_b)
    for deg in range(-1, top + 2):
        a, b = a_cols.get(deg, []), b_cols.get(deg, [])
        rank_b = gf2.rank(b)
        middle = (rank_a[deg] == mid.degree_dims[deg] - rank_b
                  and not any(gf2.matmul(b, a)))
        rank_conn = minus.degree_dims[deg] - rank_b
        ends = rank_conn == plus.degree_dims[deg + 1] - rank_a[deg + 1]
        exact = exact and middle and ends
        if deg >= 0:
            rows.append({"degree": deg, "dim_plus": plus.degree_dims[deg],
                         "dim_g": mid.degree_dims[deg],
                         "dim_minus": minus.degree_dims[deg],
                         "rank_A": rank_a[deg], "rank_B": rank_b,
                         "rank_connecting": rank_conn,
                         "exact_middle": middle, "exact_ends": ends})

    return LesReport(graph_hash=graph_hash(ctx.graph), vertex=ctx.v,
                     mcap=mcap, grading_pad=(banks[0][0].complete_to
                                             - banks[0][0].wmin - mcap),
                     dims={"plus": plus.dims, "g": mid.dims,
                           "minus": minus.dims},
                     rows=tuple(rows), exact=exact)
