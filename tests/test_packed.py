"""Packed offsets and cube keys: the codec's properties, its range guard,
and the packed kernel against the tuple-keyed kernel it replaced."""

import contextlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcoh import (OFFSET_LIMIT, BasisCapError, LatcohError,
                    OffsetRangeError, Region, characteristic_base,
                    class_cells, determinant, faults, is_negative_definite,
                    make_graph, parse_graph, relative_weight,
                    spinc_representatives, stabilize)
from latcoh.engine import _admissible_cubes
from latcoh.lattice import (BASIS_CAP, BIAS, FIELD, coface_keys, coface_steps,
                            cofaces, cube_weights, key_steps, lattice_point,
                            pack, point_table, split_key, unpack,
                            weight_monotonicity_check)
from latcoh.suites import random_graph

from conftest import (chain, cube_key, reference_cube_weight,
                      reference_monotonicity)

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

EDGES = (-OFFSET_LIMIT, -OFFSET_LIMIT + 1, -1, 0, 1, OFFSET_LIMIT - 1,
         OFFSET_LIMIT)
coordinate = st.one_of(st.integers(-OFFSET_LIMIT, OFFSET_LIMIT),
                       st.sampled_from(EDGES))
offsets = st.integers(0, 8).flatmap(
    lambda n: st.lists(coordinate, min_size=n, max_size=n).map(tuple))


def test_field_constants():
    # The codec reads each field as a big-endian int16.
    assert (FIELD, BIAS, OFFSET_LIMIT) == (16, 1 << 15, (1 << 15) - 2)


@settings(max_examples=300, deadline=None)
@given(offsets)
def test_unpack_inverts_pack(x):
    assert unpack(pack(x), len(x)) == x


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    *[st.tuples(st.lists(coordinate, min_size=n, max_size=n).map(tuple),
                st.integers(0, (1 << n) - 1))] * 2)))
def test_key_order_is_offset_then_mask_order(cubes):
    (x, s), (y, t) = cubes
    a, b = cube_key(x, s), cube_key(y, t)
    assert (a < b) == ((x, s) < (y, t))
    assert (a == b) == ((x, s) == (y, t))
    assert split_key(a, len(x)) == (x, s)


@settings(max_examples=300, deadline=None)
@given(offsets.filter(bool), st.data())
def test_a_packed_step_is_the_stepped_tuple(x, data):
    n = len(x)
    w = data.draw(st.integers(0, n - 1))
    unit = 1 << FIELD * (n - 1 - w)
    for sign in (1, -1):
        stepped = x[:w] + (x[w] + sign,) + x[w + 1:]
        # One unit of field is left beyond the limit on each side, so the
        # step never carries into coordinate w - 1, even at the edge.
        assert unpack(pack(x) + sign * unit, n) == stepped
        if abs(stepped[w]) <= OFFSET_LIMIT:
            assert pack(x) + sign * unit == pack(stepped)


@pytest.mark.parametrize("x, j", [((OFFSET_LIMIT + 1,), 0),
                                  ((0, -OFFSET_LIMIT - 1, 5), 1),
                                  ((3, 0, 1 << 40), 2)])
def test_pack_refuses_offsets_beyond_the_limit(x, j):
    msg = (r"offset coordinate %d is %d, outside the packed offset range "
           r"\[-%d, %d\]" % (j, x[j], OFFSET_LIMIT, OFFSET_LIMIT))
    with pytest.raises(OffsetRangeError, match=msg):
        pack(x)


def test_a_box_beyond_the_limit_raises_when_enumerated():
    # A degenerate form takes its points from the box, so the box's own
    # offsets are packed.
    g = make_graph(([("a", 0)], []))
    box = Region(g, (0,), (OFFSET_LIMIT - 1,), (OFFSET_LIMIT + 1,), 1)
    with pytest.raises(OffsetRangeError, match="coordinate 0 is %d"
                       % (OFFSET_LIMIT + 1)):
        class_cells(g, (0,), 1, box=box)


def test_a_box_at_the_edge_of_the_field_computes_as_at_the_origin():
    # Two degenerate vertices weigh every point 0, so a 3 x 3 box gives the
    # same module wherever it sits; at the far corners of the field every
    # step of the kernel uses the spare unit beyond the limit.
    g = make_graph(([("a", 0), ("b", 0)], []))
    base = (0, 0)
    lo, hi = OFFSET_LIMIT - 2, OFFSET_LIMIT

    def degrees(xmin, xmax):
        return stabilize(g, base, 2, bounds=Region(g, base, xmin, xmax, 2)
                         ).degrees

    at_origin = degrees((0, 0), (2, 2))
    assert at_origin
    assert degrees((lo, -hi), (hi, -lo)) == at_origin
    assert degrees((-hi, lo), (-lo, hi)) == at_origin


def _per_offset_map(box):
    """K -> first offset, by one ``lattice_point`` per offset of
    ``iter_offsets``: the build the column sums replaced."""
    out = {}
    for x in box.iter_offsets():
        out.setdefault(lattice_point(box.graph, box.base,
                                     unpack(x, box.graph.n)), x)
    return out


def _degenerate_boxes():
    zero = make_graph(([("a", 0)], []))
    pair = make_graph(([("a", -1), ("b", -1)], [("a", "b")]))
    yield Region(zero, (0,), (-2,), (3,), 1)
    yield Region(pair, characteristic_base(pair), (-1, -2), (2, 1), 1)


@pytest.mark.parametrize("seed", range(6))
def test_offset_map_by_columns_matches_the_per_offset_build(seed):
    # Random trees with weights up to 1, and two degenerate forms (a
    # weight-0 vertex, and -1 -- -1) whose boxes hold several offsets of
    # one K; the map keeps the first, in box order.
    rng = random.Random(seed)
    boxes, degenerate = list(_degenerate_boxes()), 0
    for _ in range(12):
        g = random_graph(rng, 5, weights=(-3, 1))
        lo = tuple(rng.randint(-2, 1) for _ in range(g.n))
        hi = tuple(a + rng.randint(0, 2) for a in lo)
        boxes.append(Region(g, characteristic_base(g), lo, hi, 1))
    for box in boxes:
        want = _per_offset_map(box)
        assert list(box._offset_map.items()) == list(want.items())
        degenerate += len(want) < box.volume()
    assert degenerate >= 2


OVER_THE_LIMIT = {
    "upper corner, one coordinate": ((OFFSET_LIMIT - 1,), (OFFSET_LIMIT + 1,)),
    "lower corner": ((0, -OFFSET_LIMIT - 1, 5), (1, 0, 6)),
    "lower corner before upper": ((-OFFSET_LIMIT - 2, 0, 0),
                                  (-OFFSET_LIMIT, 0, OFFSET_LIMIT + 2)),
    "upper corner, the last coordinate over": (
        (0, OFFSET_LIMIT - 1, OFFSET_LIMIT), (1, OFFSET_LIMIT + 1,
                                              OFFSET_LIMIT + 3)),
    "upper corner, an inner coordinate over": (
        (0, OFFSET_LIMIT, OFFSET_LIMIT - 2), (1, OFFSET_LIMIT + 3,
                                              OFFSET_LIMIT)),
    "over the basis cap first": ((0, 0, OFFSET_LIMIT), (0, BASIS_CAP,
                                                        OFFSET_LIMIT + 1)),
}


@pytest.mark.parametrize("lo, hi", list(OVER_THE_LIMIT.values()),
                         ids=list(OVER_THE_LIMIT))
def test_offset_map_by_columns_raises_as_the_per_offset_build(lo, hi):
    # The same error type and message, from the lower corner, the first
    # offset past the limit or the volume.
    g = make_graph(([(c, 0) for c in "abc"[:len(lo)]], []))
    box = Region(g, (0,) * g.n, lo, hi, 1)
    with pytest.raises(LatcohError) as want:
        _per_offset_map(box)
    with pytest.raises(LatcohError) as got:
        box.frame((0,) * g.n)
    assert want.type in (OffsetRangeError, BasisCapError)
    assert (got.type, str(got.value)) == (want.type, str(want.value))


# --- the tuple-keyed kernel the packed one replaced ------------------------

def _reference_cofaces(cube_weight, x, s, n):
    """``cofaces`` on (x, S) pairs with tuple offsets."""
    w_here = cube_weight((x, s))
    sign = 1 if faults.is_active("delta-coface-shift-sign") else -1
    for w in range(n):
        if s >> w & 1:
            continue
        up = s | 1 << w
        for y in (x, x[:w] + (x[w] + sign,) + x[w + 1:]):
            w_up = cube_weight((y, up))
            yield y, up, None if w_up is None else w_up - w_here


def _reference_admissible_cubes(pts, n):
    """``_admissible_cubes`` on (x, S) pairs with tuple offsets."""
    memo = {(x, 0): w for x, w in pts.items()}
    layer = list(memo)
    while layer:
        grown = []
        for cube in layer:
            x, s = cube
            w = memo[cube]
            for j in range(s.bit_length(), n):
                other = memo.get((x[:j] + (x[j] + 1,) + x[j + 1:], s))
                if other is not None:
                    up = (x, s | 1 << j)
                    memo[up] = max(w, other)
                    grown.append(up)
        layer = grown
    return memo


def _kernel_cases():
    """Every demo graph and seeded random graphs, definite ones by their
    sublevel sets and the others by a small box, with a U cap each."""
    cases = []
    for name, mcap in (("s3.graph", 3), ("rp3.graph", 3), ("chain22.graph", 3),
                       ("star232.graph", 2), ("twonode.graph", 1),
                       ("e8.graph", 1)):
        cases.append(pytest.param(parse_graph((DATA / name).read_text()),
                                  mcap, id=name))
    rng = random.Random(31)
    for i in range(6):
        cases.append(pytest.param(random_graph(rng, max_vertices=4,
                                               weights=(-4, 1)),
                                  2, id="seeded%d" % i))
    return cases


def _banks(g, mcap):
    """The cell banks of every class of ``g`` (one box class when the form
    is not definite)."""
    if is_negative_definite(g):
        return [class_cells(g, c, mcap) for c in spinc_representatives(g)]
    base = tuple(g.weights)
    box = Region(g, base, (-1,) * g.n, (1,) * g.n, mcap)
    return [class_cells(g, base, mcap, box=box)]


def _fault_state(fault):
    return contextlib.nullcontext() if fault is None else faults.injected(fault)


def _reference_weights(g, base):
    """The tuple kernel's memoised cube weights of one base."""
    memo = {}

    def weight(cube):
        return reference_cube_weight(
            lambda x: relative_weight(g, base, x), memo, cube)
    return weight


@pytest.mark.parametrize("fault", (None,) + faults.FAULTS)
@pytest.mark.parametrize("g, mcap", _kernel_cases())
def test_packed_kernel_matches_the_tuple_kernel(g, mcap, fault):
    n = g.n
    checked = 0
    with _fault_state(fault):
        for bank in _banks(g, mcap):
            pts = dict(bank.points)
            tuple_pts = {unpack(x, n): w for x, w in pts.items()}
            # The face-up memo, cube for cube and in the same order.
            memo, _ = _admissible_cubes(pts, n)
            assert ([split_key(key, n) for key in memo]
                    == list(_reference_admissible_cubes(tuple_pts, n)))
            # The coboundary rule over the bank, and over the top-down memo
            # of a window around its points.
            tuple_cells = {split_key(key, n): w
                           for key, w in bank.cells.items()}
            weights = cube_weights(g, bank.base)
            ref_weights = _reference_weights(g, bank.base)
            for key in bank.cells:
                x, s = split_key(key, n)
                for packed_weight, tuple_weight in (
                        (bank.cells.get, tuple_cells.get),
                        (weights, ref_weights)):
                    got = [(split_key(up, n), gap)
                           for up, gap in cofaces(packed_weight, key, n)]
                    want = [((y, up), gap) for y, up, gap in
                            _reference_cofaces(tuple_weight, x, s, n)]
                    assert got == want
                    checked += 1
    assert checked


@pytest.mark.parametrize("fault", (None,) + faults.FAULTS)
@pytest.mark.parametrize("g, mcap", _kernel_cases())
def test_coface_keys_match_the_tuple_rule(g, mcap, fault):
    # Every coface the tuple rule names, present or not, in its order.
    n = g.n
    checked = 0
    with _fault_state(fault):
        for bank in _banks(g, mcap):
            weights = _reference_weights(g, bank.base)
            for key in bank.cells:
                x, s = split_key(key, n)
                got = [split_key(up, n) for up in coface_keys(key, n)]
                want = [(y, up) for y, up, _ in
                        _reference_cofaces(weights, x, s, n)]
                assert got == want
                assert len(got) == 2 * (n - s.bit_count())
                checked += 1
    assert checked


def _reference_coface_keys(key, n):
    """The coboundary rule as a loop over the directions, as it stood
    before ``coface_keys`` read the step table."""
    wrong_way = faults.is_active("delta-coface-shift-sign")
    out = []
    for bit, unit in key_steps(n):
        if not key & bit:
            up = key | bit
            out.append(up)
            out.append(up + unit if wrong_way else up - unit)
    return out


SHIFT_SIGN = (None, "delta-coface-shift-sign")


@pytest.mark.parametrize("fault", SHIFT_SIGN)
@pytest.mark.parametrize("n", range(1, 9))
def test_coface_keys_match_the_direction_loop_on_every_mask(n, fault):
    x = tuple(range(-(n // 2), n - n // 2))
    with _fault_state(fault):
        for s in range(1 << n):
            key = cube_key(x, s)
            assert coface_keys(key, n) == _reference_coface_keys(key, n)
            assert len(coface_steps(n)[s]) == 2 * (n - s.bit_count())


@pytest.mark.parametrize("fault", SHIFT_SIGN)
@pytest.mark.parametrize("n", range(1, 7))
def test_the_face_table_is_the_transpose_of_the_coface_table(n, fault):
    # A step d takes a cube (x, S) to a coface exactly when it takes that
    # coface back to (x, S): the direction of d is its bit below the
    # offset field, in S + w and not in S.  On keys, the cube is among the
    # faces of each of its cofaces, and each face has the cube as a coface.
    x = tuple(range(-(n // 2), n - n // 2))
    full = (1 << n) - 1
    with _fault_state(fault):
        steps = coface_steps(n)
        up = {(s, s | d & full, d) for s in range(1 << n) for d in steps[s]}
        down = {(t & ~(d & full), t, d) for t in range(1 << n)
                for d in steps.faces[t]}
        assert up == down
        for t in range(1 << n):
            assert len(steps.faces[t]) == 2 * t.bit_count()
        for s in range(1 << n):
            key = cube_key(x, s)
            for coface in coface_keys(key, n):
                faces = [coface - d for d in steps.faces[coface & full]]
                assert key in faces
                assert all(coface in coface_keys(face, n) for face in faces)


@settings(max_examples=300, deadline=None)
@given(offsets.filter(bool), st.data(), st.sampled_from(SHIFT_SIGN))
def test_coface_keys_match_the_direction_loop_at_the_field_edges(x, data,
                                                                 fault):
    n = len(x)
    key = cube_key(x, data.draw(st.integers(0, (1 << n) - 1)))
    with _fault_state(fault):
        assert coface_keys(key, n) == _reference_coface_keys(key, n)


def test_the_shift_sign_fault_flips_a_rule_read_before_it():
    # The step table is cached per fault state, so a table built with no
    # fault active does not hide the fault once it is turned on.
    n = 3
    key = cube_key((0, 0, 0), 0)
    clean = coface_keys(key, n)
    with faults.injected("delta-coface-shift-sign"):
        flipped = coface_keys(key, n)
    assert [split_key(up, n) for up in clean[1::2]] == \
        [((-1, 0, 0), 1), ((0, -1, 0), 2), ((0, 0, -1), 4)]
    assert [split_key(up, n) for up in flipped[1::2]] == \
        [((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 4)]
    assert flipped[::2] == clean[::2]
    assert coface_keys(key, n) == clean


def test_a_class_of_many_vertices_fills_only_the_masks_it_reads():
    # The table and its transpose have 2^n masks; a class of A_20 at cap 1
    # reads a few hundred, and only those are built.
    n = 20
    g = make_graph(([("v%d" % i, -2) for i in range(n)],
                    [("v%d" % i, "v%d" % (i + 1)) for i in range(n - 1)]))
    bank = class_cells(g, spinc_representatives(g)[0].base, 1)
    assert stabilize(g, spinc_representatives(g)[0], 1).degrees
    masks = {key & ((1 << n) - 1) for key in bank.cells}
    assert set(coface_steps(n)) <= masks
    assert set(coface_steps(n).faces) <= masks
    assert len(masks) < 2 ** n // 1000


# --- the point fill ---------------------------------------------------------

def _fill_cases():
    """Seeded random graphs, three of each vertex count 1..6, among them
    indefinite and degenerate forms and multi-edges, each with a seeded
    characteristic base."""
    rng = random.Random(29)
    cases = {n: [] for n in range(1, 7)}
    while any(len(got) < 3 for got in cases.values()):
        g = random_graph(rng, max_vertices=6, weights=(-4, 1), extra_edge=0.5)
        if len(cases[g.n]) < 3:
            base = tuple(m + 2 * rng.randint(-2, 2) for m in g.weights)
            cases[g.n].append((g, base))
    return [case for got in cases.values() for case in got]


def test_point_fill_cases_cover_every_kind_of_form():
    graphs = [g for g, _ in _fill_cases()]
    assert any(determinant(g) == 0 for g in graphs)
    assert any(determinant(g) and not is_negative_definite(g)
               for g in graphs)
    assert any(is_negative_definite(g) for g in graphs)
    assert any(len({(i, j) for i, j, _ in g.edges}) < len(g.edges)
               for g in graphs)


@pytest.mark.parametrize("g, base", _fill_cases())
def test_point_fill_matches_the_corner_max_by_brute_force(g, base):
    # Every mask at the points of a small box, read in a shuffled order: a
    # cube weighs the largest relative weight of its corners x + 1_T.
    n = g.n
    hi = 1 if n <= 3 else 0
    box = list(itertools.product(range(-1, hi + 1), repeat=n))
    point = {y: relative_weight(g, base, y)
             for y in itertools.product(range(-1, hi + 2), repeat=n)}
    cubes = [(x, s) for x in box for s in range(1 << n)]
    random.Random(n).shuffle(cubes)
    weight = cube_weights(g, base)
    for x, s in cubes:
        corners = [tuple(xi + (t >> i & 1) for i, xi in enumerate(x))
                   for t in range(1 << n) if t & s == t]
        assert weight(cube_key(x, s)) == max(map(point.get, corners))
    # Whole points only: one table per box point, of 2^n entries.
    memo = weight.args[1]
    assert sorted(memo) == sorted(map(pack, box))
    assert {len(table) for table in memo.values()} == {1 << n}


@pytest.mark.parametrize("g, base", _fill_cases()[::3])
def test_point_fill_keeps_the_memo_fault_free(g, base):
    n = g.n
    keys = [cube_key(x, s) for x in itertools.product((-1, 0, 1), repeat=n)
            for s in range(1 << n)]
    clean, faulted = cube_weights(g, base), cube_weights(g, base)
    with faults.injected("cube-weight-parity-offset"):
        got = [faulted(key) for key in keys]
        tables = {x: point_table(*faulted.args, x) for x in faulted.args[1]}
    assert got == [clean(key) + (key & ((1 << n) - 1)).bit_count() % 2
                   for key in keys]
    assert faulted.args[1] == clean.args[1]
    assert [faulted(key) for key in keys] == [clean(key) for key in keys]
    # The table read applies the fault as the single read does, to a copy;
    # with no fault it hands out the memo's own list.
    mask = (1 << n) - 1
    assert got == [tables[key >> n][key & mask] for key in keys]
    assert all(point_table(*faulted.args, x) is table
               for x, table in faulted.args[1].items())


def test_cube_weights_refuse_a_base_that_is_not_characteristic():
    # The fill floors (K_i + m_i) / 2, so a base of the wrong parity would
    # read wrong weights ([0, 1, 1, 1] at the origin of chain22 for (1, 0))
    # where a Region refuses it.
    g = chain(-2, -2)
    with pytest.raises(LatcohError,
                       match=r"vector \(1, 0\) is not characteristic"):
        cube_weights(g, (1, 0))
    assert cube_weights(g, (0, 0))(cube_key((0, 0), 0)) == 0


def test_point_fill_runs_once_per_point_and_memo_in_verify(monkeypatch):
    # One verify pass reads 63,395 single cubes and 24,324 point tables
    # through its memos, each of which fills a point only on its first miss
    # there.  The c-formula suite reads two tables per (K, i), 9,792 in
    # all, through the ``lattice.point_table`` patched here.
    from latcoh import lattice, suites
    real_read, real_table = lattice.offset_cube_weight, lattice.point_table
    real_fill = lattice._fill_point
    reads, tables, fills, refills = [0], [0], [0], []

    def read(*args):
        reads[0] += 1
        return real_read(*args)

    def table(*args):
        tables[0] += 1
        return real_table(*args)

    def fill(graph, base, memo, x):
        fills[0] += 1
        if x in memo:
            refills.append((graph, base, x))
        return real_fill(graph, base, memo, x)

    monkeypatch.setattr(lattice, "offset_cube_weight", read)
    monkeypatch.setattr(lattice, "point_table", table)
    monkeypatch.setattr(lattice, "_fill_point", fill)
    assert suites.run_all(42, 48)["passed"]
    assert refills == []
    assert (reads[0], tables[0], fills[0]) == (63_395, 24_324, 15_546)


# --- the monotonicity check, a point table at a time -------------------------

MONOTONICITY_FAULTS = (None, "cube-weight-parity-offset",
                       "delta-coface-shift-sign")


@pytest.mark.parametrize("fault", MONOTONICITY_FAULTS)
def test_table_check_matches_the_per_cube_loop(fault):
    # On the spot {0,1}^n the suite checks and on the whole box [-1,1]^n,
    # each side with a memo of its own.
    got, want = [], []
    with _fault_state(fault):
        for g, base in _fill_cases():
            n = g.n
            box = (g, base, (-1,) * n, (1,) * n, 1)
            for spot in (list(map(pack, itertools.product((0, 1), repeat=n))),
                         None):
                got.append(weight_monotonicity_check(Region(*box), spot))
                want.append(reference_monotonicity(Region(*box), spot))
    assert got == want
    assert set(got) == ({True} if fault is None else {True, False})


@pytest.mark.parametrize("g, base", [case for case in _fill_cases()
                                     if case[0].n in (2, 3)])
def test_table_check_catches_one_raised_entry(g, base):
    # Fill the memo of a window over [-1,1]^n, then raise the weight of one
    # face (x, T) just past one of its cofaces, (x, T + w) or (x - e_w,
    # T + w), for every x of the box, every T and every coface in turn.
    n = g.n
    region = Region(g, base, (-1,) * n, (1,) * n, 1)
    assert weight_monotonicity_check(region)
    memo, weight = region.cube_weights.args[1], region.cube_weights
    only_here = only_there = 0
    for x in region.iter_offsets():
        table = memo[x]
        for t in range(1 << n):
            key = x << n | t
            up = [(c >> n == x, weight(c)) for c in coface_keys(key, n)]
            for _, w_up in up:
                old, table[t] = table[t], w_up + 1
                assert old < table[t]
                assert not weight_monotonicity_check(region)
                table[t] = old
                here = any(w <= w_up for same, w in up if same)
                there = any(w <= w_up for same, w in up if not same)
                only_here += here and not there
                only_there += there and not here
            assert weight_monotonicity_check(region)
    # Some raises pass every coface at x, or every one at the neighbours,
    # so each of the two comparisons is the only one to see some raise.
    assert only_here and only_there
