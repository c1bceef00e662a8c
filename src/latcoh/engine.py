"""Exact homology of truncated lattice complexes.

The complex of one spin-c class splits by cube degree s and by the integer
grading g = 2m + 2(w - wmin): the coboundary preserves g, the U action drops
it by two.  Each (s, g) piece is a finite GF(2) complex, and a piece is the
literal truth about the infinite lattice whenever the enumerated cells cover
the full sublevel set of weight g/2 + wmin, which is how regions are sized.
Cells are enumerated exactly by rational lattice-point enumeration for
definite forms, or by scanning an explicit box otherwise.

Homology is computed by plain Gaussian elimination over bitset rows, basis
order fixed by (offset, mask, U-power), so rerunning an input gives
byte-identical output.  Distinct (class, degree) pieces are independent and
could be processed concurrently; this implementation keeps them sequential
and deterministic.
"""

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

from . import exact, faults, gf2
from .graph import (LatcohError, PlumbingGraph, graph_hash,
                    intersection_matrix, is_negative_definite,
                    spinc_representatives)
from .lattice import (BASIS_CAP, BasisCapError, Region, bits, cofaces,
                      continuous_minimum, coords_of, get_engine,
                      offset_cube_weight, truncation_region)
from .triangle import TriangleContext, _a_targets


class NonStabilizingError(LatcohError):
    pass


@dataclass
class CellBank:
    """Enumerated cells of one class window.

    Cells are keyed by lattice offset, the honest index even when the form
    degenerates: ``points`` maps an offset x to (characteristic vector,
    relative weight) and ``cells`` maps (x, S-mask) to the cube's relative
    weight.  ``complete_to`` is the relative weight up to which the bank
    provably contains every cube of the infinite lattice (None when the box
    clipped the sublevel set or no weight cap was applied).
    """

    graph: PlumbingGraph
    base: tuple
    points: dict
    cells: dict
    wmin: int
    complete_to: int = None


def _sublevel_points(graph, base, wcap_rel, limit=BASIS_CAP):
    """All lattice offsets with relative weight <= wcap_rel (definite forms)."""
    eng = get_engine(graph)
    neg = [[-x for x in row] for row in intersection_matrix(graph)]
    xbar, wbar = continuous_minimum(graph, base)
    bound = 2 * (Fraction(wcap_rel) - wbar)
    out = {}
    if bound < 0:
        return out
    try:
        for x in exact.enumerate_sublevel(neg, xbar, bound, limit=limit):
            out[x] = eng.rel_weight(base, x)
    except RuntimeError as err:  # the enumeration's point limit
        raise BasisCapError(str(err)) from err
    return out


def _box_points(graph, base, box: Region):
    """Relative weights of every box offset; ``iter_offsets`` enforces the
    basis cap on the box volume."""
    eng = get_engine(graph)
    return {x: eng.rel_weight(base, x) for x in box.iter_offsets()}


def class_cells(graph: PlumbingGraph, spinc_or_base, mcap: int,
                box: Region = None, wcap_extra: int = 0,
                full_box: bool = False) -> CellBank:
    """Enumerate the cubes of one class up to relative weight
    wmin + mcap + wcap_extra, or everything in ``box`` when full_box."""
    base = coords_of(getattr(spinc_or_base, "base", spinc_or_base))
    eng = get_engine(graph)
    eng.check_characteristic(base)
    n = graph.n

    wcap = None
    complete = None
    if full_box:
        if box is None:
            raise ValueError("full_box needs an explicit box")
        pts = _box_points(graph, base, box)
    elif is_negative_definite(graph).form_negative_definite:
        _, wbar = continuous_minimum(graph, base)
        probe = wbar.__ceil__()
        step = 1
        pts = _sublevel_points(graph, base, probe)
        while not pts:
            probe += step
            step *= 2
            pts = _sublevel_points(graph, base, probe)
        wmin = min(pts.values())
        wcap = wmin + mcap + wcap_extra
        unfiltered = _sublevel_points(graph, base, wcap)
        if box is not None:
            pts = {x: w for x, w in unfiltered.items() if box.contains_offset(x)}
            complete = wcap if len(pts) == len(unfiltered) else None
        else:
            pts = unfiltered
            complete = wcap
    else:
        if box is None:
            raise NonStabilizingError("non-definite form: supply explicit bounds")
        pts = _box_points(graph, base, box)
        if pts:
            wmin = min(pts.values())
            wcap = wmin + mcap + wcap_extra
            pts = {x: w for x, w in pts.items() if w <= wcap}

    if not pts:
        raise NonStabilizingError("no lattice points under the weight cap")
    wmin = min(pts.values())

    points = {x: (eng.point(base, x), pts[x]) for x in sorted(pts)}

    # A cube (x, S) is admissible iff every corner offset is an enumerated
    # point, so holes in the point map have no weight.
    weight = functools.partial(offset_cube_weight, pts.get, {})
    cells = {}
    full = (1 << n) - 1
    for x in points:
        for s in range(full + 1):
            w = weight((x, s))
            if w is not None and (wcap is None or w <= wcap):
                cells[(x, s)] = w
    return CellBank(graph, base, points, cells, wmin, complete)


class GradedGF2Complex:
    """Bases and matrices of one class window, split by (degree, grading).

    Basis triples are ordered lexicographically by (offset, mask, U-power);
    the coboundary and the U action are exact sparse GF(2) matrices between
    pieces.  ``escaped`` lists pieces whose coboundary was clipped by the
    window; pieces at gradings covered by the cell bank never are.
    """

    def __init__(self, bank: CellBank, mcap: int, grading_cap: int = None):
        self.bank = bank
        self.graph = bank.graph
        self.mcap = mcap
        self.grading_cap = grading_cap
        self.wmin = bank.wmin
        self.trusted_cap = (None if bank.complete_to is None
                            else 2 * (bank.complete_to - bank.wmin))
        self.bases = {}
        self.index = {}
        self.escaped = set()
        count = 0
        for x, s in sorted(bank.cells):
            w = bank.cells[(x, s)] - self.wmin
            deg = bin(s).count("1")
            for m in range(mcap + 1):
                g = 2 * m + 2 * w
                if grading_cap is not None and g > grading_cap:
                    continue
                piece = self.bases.setdefault((deg, g), [])
                self.index[(x, s, m)] = (deg, g, len(piece))
                piece.append((x, s, m))
                count += 1
                if count > BASIS_CAP:
                    raise BasisCapError("basis exceeded %d triples" % BASIS_CAP)

    def pieces(self):
        return sorted(self.bases)

    def dim(self, deg, g) -> int:
        return len(self.bases.get((deg, g), ()))

    def delta_triple(self, x, s, m):
        """In-window coboundary image of one dual; clipped targets flag the
        source piece as escaped.

        A coface missing from a sublevel-complete bank has weight above the
        cap, so it is a legal drop whenever w + m stays under the cap; only
        box-clipped banks can actually lose terms here.
        """
        bank = self.bank
        cells = bank.cells
        deg, g, _ = self.index[(x, s, m)]
        certain = (bank.complete_to is not None
                   and cells[(x, s)] + m <= bank.complete_to)
        out = set()
        for y, up, gap in cofaces(cells.get, x, s, self.graph.n):
            if gap is None:
                if not certain:
                    self.escaped.add((deg, g))
            elif gap <= m:
                triple = (y, up, m - gap)
                if triple in self.index:
                    out.symmetric_difference_update([triple])
                else:
                    self.escaped.add((deg, g))
        return out

    def delta_matrix(self, deg, g):
        """Columns over the (deg, g) basis with rows in the (deg+1, g) basis."""
        src = self.bases.get((deg, g), ())
        cols = []
        for x, s, m in src:
            vec = 0
            for x2, s2, m2 in self.delta_triple(x, s, m):
                d2, g2, pos = self.index[(x2, s2, m2)]
                if (d2, g2) != (deg + 1, g):
                    raise LatcohError("coboundary broke the grading")
                vec ^= 1 << pos
            cols.append(vec)
        return cols

    def u_matrix(self, deg, g):
        """Columns of the U action from (deg, g) into (deg, g-2)."""
        src = self.bases.get((deg, g), ())
        cols = []
        for x, s, m in src:
            if m == 0:
                cols.append(0)
                continue
            pos = self.index[(x, s, m - 1)][2]
            cols.append(1 << pos)
        return cols


def build_complex(graph: PlumbingGraph, spinc_or_base, region: Region,
                  grading_cap: int = None) -> GradedGF2Complex:
    """Assemble the complex over a region box.

    With ``grading_cap`` set, enumeration is restricted to cells that can
    appear in gradings up to the cap, which keeps large windows tractable;
    without it every box point contributes a full stack of duals.
    """
    if grading_cap is None:
        bank = class_cells(graph, spinc_or_base, region.mcap,
                           box=region, full_box=True)
    else:
        bank = class_cells(graph, spinc_or_base, region.mcap, box=region,
                           wcap_extra=grading_cap // 2 - region.mcap)
    return GradedGF2Complex(bank, region.mcap, grading_cap)


class PieceHomology:
    def __init__(self, boundary_cols, cycle_vectors):
        self.quotient = gf2.Quotient(gf2.Basis(boundary_cols))
        self.reps = []
        for v in cycle_vectors:
            if self.quotient.add(v):
                self.reps.append(v)

    @property
    def dim(self):
        return self.quotient.dim

    def coords(self, vec) -> int:
        return self.quotient.coords(vec)


class ComplexHomology:
    """Homology of every (degree, grading) piece, with the induced U maps.

    Representative cycles are kept so chain maps can be pushed to homology
    exactly.
    """

    def __init__(self, cx: GradedGF2Complex):
        self.cx = cx
        self.pieces = {}
        deltas = {pg: cx.delta_matrix(*pg) for pg in cx.pieces()}
        for deg, g in cx.pieces():
            cycles = gf2.kernel_basis(deltas[(deg, g)])
            boundary = [v for v in deltas.get((deg - 1, g), ()) if v]
            self.pieces[(deg, g)] = PieceHomology(boundary, cycles)

    @property
    def dims(self):
        return {pg: h.dim for pg, h in self.pieces.items() if h.dim}

    def piece(self, deg, g) -> PieceHomology:
        return self.pieces.get((deg, g))

    def u_on_homology(self, deg, g):
        """Columns of U: H(deg, g) -> H(deg, g-2) on homology coordinates."""
        here = self.pieces.get((deg, g))
        if here is None or here.dim == 0:
            return []
        below = self.pieces.get((deg, g - 2))
        if below is None or below.dim == 0:
            return [0] * here.dim
        return [below.coords(img)
                for img in gf2.matmul(self.cx.u_matrix(deg, g), here.reps)]

    def reduce_chain(self, terms) -> dict:
        """Homology coordinates of a cycle given by offset-indexed dual
        triples, split by (degree, grading) piece."""
        grouped = {}
        for x, s, m in terms:
            deg, g, pos = self.cx.index[(x, s, m)]
            grouped[(deg, g)] = grouped.get((deg, g), 0) ^ (1 << pos)
        return {pg: self.pieces[pg].coords(vec) for pg, vec in grouped.items()}


def homology_ranks(cx: GradedGF2Complex) -> ComplexHomology:
    """Kernel-mod-image of every piece, plus the induced U action."""
    return ComplexHomology(cx)


@dataclass(frozen=True)
class DegreeModule:
    """Summands of one cube degree: tower bottoms and (bottom, length)
    torsion pieces, gradings relative to the class minimum."""

    towers: tuple
    torsions: tuple


def module_presentation(hom: ComplexHomology, mcap: int = None) -> dict:
    """Decompose graded homology into cyclic U-summands per degree.

    Interval multiplicities come from composite U-ranks; a summand whose
    chain reaches the grading of the U cap is reported as a tower
    (provisionally; the stabilization rule arbitrates).
    """
    if mcap is None:
        mcap = hom.cx.mcap
    degrees = sorted({deg for deg, _ in hom.dims})
    out = {}
    for deg in degrees:
        grades = sorted(g for d, g in hom.dims if d == deg)
        dim = {g: hom.dims.get((deg, g), 0) for g in grades}
        ucols = {g: hom.u_on_homology(deg, g) for g in grades}

        def composite_rank(top, bot, _deg=deg, _dim=dim, _ucols=ucols):
            if top < bot or not _dim.get(top):
                return 0
            cols = [1 << i for i in range(_dim[top])]
            g = top
            while g > bot:
                if not _dim.get(g - 2):
                    return 0
                cols = gf2.matmul(_ucols[g], cols)
                g -= 2
            return gf2.rank(cols)

        towers, torsions = [], []
        for bot in grades:
            for top in (g for g in grades if g >= bot):
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


@dataclass(frozen=True)
class GradedModulePresentation:
    """Per-class output of the lattice cohomology computation."""

    graph_hash: str
    class_index: int
    base: tuple
    degrees: dict
    dims: dict
    stabilized: bool
    region: dict
    prior: dict = None

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


def _presentation_data(graph, base, mcap, box):
    bank = class_cells(graph, base, mcap, box=box)
    cx = GradedGF2Complex(bank, mcap, grading_cap=2 * mcap)
    hom = homology_ranks(cx)
    urk = {pg: gf2.rank(hom.u_on_homology(*pg)) for pg in sorted(hom.dims)}
    return hom, dict(hom.dims), urk


def stabilize(graph: PlumbingGraph, spinc_or_base, mcap: int,
              bounds: Region = None, rounds: int = 3) -> GradedModulePresentation:
    """Compute the presentation on a region and again on the region grown
    by two in every direction; answers stable in all gradings up to twice
    the U cap are flagged, others are retried up to ``rounds`` times and
    returned unstabilized with the previous answer attached."""
    base = coords_of(getattr(spinc_or_base, "base", spinc_or_base))
    index = getattr(spinc_or_base, "index", -1)
    if bounds is None:
        box = truncation_region(graph, base, mcap)
    else:
        # Offsets are always taken against the class's own base; say so.
        box = replace(bounds, base=base)
    hom, dims, urk = _presentation_data(graph, base, mcap, box)
    prior = None
    stabilized = False
    for _ in range(rounds):
        box2 = box.enlarged(2)
        hom2, dims2, urk2 = _presentation_data(graph, base, mcap, box2)
        if dims == dims2 and urk == urk2:
            stabilized = True
            hom, box = hom2, box2
            break
        prior = {"dims": {"%d,%d" % k: v for k, v in sorted(dims.items())},
                 "region": box.to_json()}
        hom, dims, urk, box = hom2, dims2, urk2, box2
    # No stabilization theorem backs non-definite forms: never claim
    # a stable answer for them, however the windows happened to agree.
    stabilized = stabilized and is_negative_definite(graph).form_negative_definite
    degrees = module_presentation(hom, mcap)
    return GradedModulePresentation(
        graph_hash=graph_hash(graph), class_index=index, base=base,
        degrees=degrees, dims=dims, stabilized=stabilized,
        region=box.to_json(), prior=prior)


# ---------------------------------------------------------------------------
# Long exact sequence of the surgery triangle on homology.


class _NeedEnlarge(Exception):
    pass


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


def _side_homology(graph, mcap, capg):
    """Homology of every spin-c class of one graph, cells to grading capg.

    ``lookup`` maps raw characteristic vectors to (class index, offset);
    injective because the sides of a triangle check are definite.
    """
    if not is_negative_definite(graph).form_negative_definite:
        raise NonStabilizingError(
            "graph %r is not negative definite; the truncation does not "
            "stabilize" % (graph.vertices,))
    homs = []
    lookup = {}
    for cls in spinc_representatives(graph):
        bank = class_cells(graph, cls.base, mcap, wcap_extra=capg // 2 - mcap)
        cx = GradedGF2Complex(bank, mcap, grading_cap=capg)
        hom = ComplexHomology(cx)
        for x, (k, _) in bank.points.items():
            lookup[k] = (cls.index, x)
        homs.append(hom)
    return homs, lookup


def _global_index(homs, deg):
    """Offsets of every (class, grading) piece inside H^deg of one side."""
    offsets = {}
    total = 0
    for ci, hom in enumerate(homs):
        for (d, g), dimv in sorted(hom.dims.items()):
            if d == deg:
                offsets[(ci, g)] = total
                total += dimv
    return offsets, total


def _push_chain(terms, homs, lookup, offsets):
    """Homology coordinates of a cycle in the direct sum over classes.

    ``terms`` carry raw characteristic vectors (the chain maps know nothing
    about class decompositions); each is routed to its class and converted
    to offset indexing.
    """
    grouped = {}
    for k, s, m in terms:
        hit = lookup.get(k)
        if hit is None:
            raise _NeedEnlarge()
        ci, x = hit
        grouped.setdefault(ci, set()).symmetric_difference_update([(x, s, m)])
    vec = 0
    for ci, part in grouped.items():
        hom = homs[ci]
        for triple in part:
            if triple not in hom.cx.index:
                raise _NeedEnlarge()
        for (_, g), coords in hom.reduce_chain(part).items():
            if coords:
                vec ^= coords << offsets[(ci, g)]
    return vec


def _side_map_columns(deg, src_homs, image_terms, dst_homs, dst_lookup,
                      dst_offsets):
    """Matrix columns of a chain map on homology.  Returns (cols, broken);
    an image that fails to be a cycle (possible only under fault injection)
    contributes a zero column and sets the flag."""
    cols = []
    broken = False
    for hom in src_homs:
        points = hom.cx.bank.points
        for (d, g) in sorted(hom.dims):
            if d != deg:
                continue
            piece = hom.piece(d, g)
            basis = hom.cx.bases[(d, g)]
            for rep in piece.reps:
                terms = set()
                for pos in bits(rep):
                    x, s, m = basis[pos]
                    for t in image_terms(points[x][0], s, m):
                        terms.symmetric_difference_update([t])
                try:
                    cols.append(_push_chain(terms, dst_homs, dst_lookup,
                                            dst_offsets))
                except ValueError:
                    if not faults.any_active():
                        raise
                    cols.append(0)
                    broken = True
    return cols, broken


def les_check(ctx: TriangleContext, mcap: int, pad: int = 4,
              rounds: int = 4) -> LesReport:
    """Verify the exact triangle on homology at every cube degree.

    Computes the three truncated cohomologies, pushes A and B to homology,
    and checks per degree: the image of A* equals the kernel of B*,
    B* A* = 0, and the connecting rank inferred at the bottom node matches
    the kernel of A* one degree up.  Raises NonStabilizingError when a side
    cannot stabilize; grows the grading window when homology or map images
    touch its top.
    """
    for attempt in range(rounds):
        capg = 2 * mcap + 2 * pad * (attempt + 1)
        try:
            return _les_attempt(ctx, mcap, capg, pad)
        except _NeedEnlarge:
            continue
    raise NonStabilizingError("triangle homology did not fit any window; "
                              "raise the grading pad")


def _les_attempt(ctx, mcap, capg, pad):
    homs_p, lookup_p = _side_homology(ctx.plus, mcap, capg)
    homs_g, lookup_g = _side_homology(ctx.graph, mcap, capg)
    homs_m, lookup_m = _side_homology(ctx.minus, mcap, capg)

    # The induced maps only exist if A and B are chain maps; spot-check the
    # hypothesis so a corrupted map cannot masquerade through homology.
    from .triangle import _chain_map_sample, default_region
    _, cm_failures = _chain_map_sample(ctx, default_region(ctx, mcap))
    broken_hypothesis = cm_failures > 0

    # Homology in the top pad zone means the window may be clipping
    # genuine classes above the cap: enlarge.
    for homs in (homs_p, homs_g, homs_m):
        for hom in homs:
            if any(g > capg - 2 * pad for (_, g) in hom.dims):
                raise _NeedEnlarge()

    dims = {"plus": {}, "g": {}, "minus": {}}
    for side, homs in (("plus", homs_p), ("g", homs_g), ("minus", homs_m)):
        for hom in homs:
            for pg, d in hom.dims.items():
                dims[side][pg] = dims[side].get(pg, 0) + d

    top = max((d for side in dims.values() for d, _ in side), default=0)

    def a_terms(k, s, m):
        return _a_targets(ctx, k, s, m)

    def b_terms(k, s, m):
        if ctx.has_v(s):
            return ()
        return ((ctx.restrict_coords(k), ctx.restrict_mask(s), m),)

    a_cols, b_cols = {}, {}
    broken = False
    for deg in range(0, top + 2):
        off_g, _ = _global_index(homs_g, deg)
        off_m, _ = _global_index(homs_m, deg)
        a_cols[deg], bad_a = _side_map_columns(deg, homs_p, a_terms,
                                               homs_g, lookup_g, off_g)
        b_cols[deg], bad_b = _side_map_columns(deg, homs_g, b_terms,
                                               homs_m, lookup_m, off_m)
        broken = broken or bad_a or bad_b

    def degdim(side, deg):
        return sum(d for (dd, _), d in dims[side].items() if dd == deg)

    rows = []
    exact = True
    for deg in range(-1, top + 2):
        dim_g = degdim("g", deg)
        dim_m = degdim("minus", deg)
        rank_a = gf2.rank(a_cols.get(deg, []))
        rank_b = gf2.rank(b_cols.get(deg, []))
        mid = (rank_a == dim_g - rank_b) and not any(
            gf2.matmul(b_cols.get(deg, []), a_cols.get(deg, [])))
        rank_conn = dim_m - rank_b
        rank_a_next = gf2.rank(a_cols.get(deg + 1, []))
        ends = (rank_conn == degdim("plus", deg + 1) - rank_a_next)
        if not (mid and ends):
            exact = False
        if deg >= 0:
            rows.append({"degree": deg, "dim_plus": degdim("plus", deg),
                         "dim_g": dim_g, "dim_minus": dim_m,
                         "rank_A": rank_a, "rank_B": rank_b,
                         "rank_connecting": rank_conn,
                         "exact_middle": mid, "exact_ends": ends})
        elif not ends:
            exact = False

    return LesReport(graph_hash=graph_hash(ctx.graph), vertex=ctx.v,
                     mcap=mcap, grading_pad=(capg - 2 * mcap) // 2,
                     dims=dims, rows=tuple(rows),
                     exact=exact and not broken and not broken_hypothesis)
