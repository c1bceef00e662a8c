import contextlib
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcoh import (Chain, DegenerateFormError, DescentError,
                    OutsideRegionError, Region, absolute_q,
                    characteristic_base, cube_weights, delta,
                    delta_squared_check, faults, intersection_matrix,
                    is_negative_definite, lattice, make_graph, parse_graph,
                    relative_weight, spinc_representatives, stabilize,
                    truncation_region, weight_monotonicity_check)
from latcoh.lattice import (bits, delta_squared_failures, lattice_point, pack,
                            unpack)
from latcoh.suites import graph_spec, random_graph, suite_delta_squared

from conftest import chain, cube_key, e8, vertex


# --- relative and absolute weights -----------------------------------------

def test_relative_weight_closed_forms(rp3):
    # base 0 on the -2 vertex: w(x) = x^2; base 2: w(x) = x^2 - x.
    for x in range(-4, 5):
        assert relative_weight(rp3, (0,), (x,)) == x * x
        assert relative_weight(rp3, (2,), (x,)) == x * x - x
    assert relative_weight(rp3, (2,), (0,)) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relative_weight_parity_always_even(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=4)
    base = tuple(w + 2 * rng.randint(-3, 3) for w in g.weights)
    x = tuple(rng.randint(-3, 3) for _ in range(g.n))
    # relative_weight asserts internally that base(x) + (x,x) is even.
    relative_weight(g, base, x)


def test_absolute_q(rp3):
    assert absolute_q(rp3, (0,)) == 0
    assert absolute_q(rp3, (2,)) == Fraction(1, 4)
    with pytest.raises(Exception):
        absolute_q(vertex(0), (0,))


def test_absolute_q_differences_match_relative_weight():
    from latcoh import determinant
    rng = random.Random(9)
    for _ in range(15):
        g = random_graph(rng, max_vertices=4)
        m = intersection_matrix(g)
        if determinant(g) == 0:
            continue
        base = tuple(g.weights)
        x = tuple(rng.randint(-2, 2) for _ in range(g.n))
        shifted = list(base)
        for j in range(g.n):
            for i in range(g.n):
                shifted[i] += 2 * m[i][j] * x[j]
        lhs = absolute_q(g, tuple(shifted)) - absolute_q(g, base)
        assert lhs == relative_weight(g, base, x)


# --- cubes ------------------------------------------------------------------

def test_cube_weight_examples(rp3):
    assert cube_weights(rp3, (0,))(cube_key((0,), 1)) == 1   # max{0, 1}
    assert cube_weights(rp3, (0,))(cube_key((0,), 0)) == 0   # single corner
    assert cube_weights(rp3, (2,))(cube_key((0,), 1)) == 0   # max{0, 0}


def test_boundary_of_boundary_has_even_multiplicities():
    # Raw face-of-face enumeration is the oracle: every codimension-2 face
    # must occur an even number of times.
    rng = random.Random(21)
    for _ in range(15):
        g = random_graph(rng, max_vertices=4)
        n = g.n
        if n < 2:
            continue
        base = tuple(g.weights)
        full = (1 << n) - 1
        s = rng.randrange(1, full + 1)
        counts = {}
        for w in range(n):
            if not (s >> w) & 1:
                continue
            rest = s & ~(1 << w)
            e_w = [int(i == w) for i in range(n)]
            for k1 in ((base, rest), (lattice_point(g, base, e_w), rest)):
                for w2 in range(n):
                    if not (k1[1] >> w2) & 1:
                        continue
                    rest2 = k1[1] & ~(1 << w2)
                    e_w2 = [int(i == w2) for i in range(n)]
                    for k2 in ((k1[0], rest2),
                               (lattice_point(g, k1[0], e_w2), rest2)):
                        counts[k2] = counts.get(k2, 0) + 1
        assert all(c % 2 == 0 for c in counts.values())


# --- the coboundary ---------------------------------------------------------

def region_for(graph, base, half, mcap):
    n = graph.n
    return Region(graph, base, (-half,) * n, (half,) * n, mcap)


def test_delta_examples(rp3):
    reg = region_for(rp3, (0,), 3, 3)
    assert not delta(Chain.dual((0,), 0, 0), reg)  # both cofaces cost 1
    img = delta(Chain.dual((0,), 0, 1), reg)
    assert img.terms == {((0,), 1, 0), ((4,), 1, 0)}
    # Top-dimensional duals have no cofaces.
    assert not delta(Chain.dual((0,), 1, 2), reg)


def test_delta_raises_outside_region(rp3):
    reg = region_for(rp3, (0,), 2, 3)
    with pytest.raises(OutsideRegionError):
        delta(Chain.dual((20,), 0, 0), reg)


def test_delta_records_escapes(rp3):
    reg = region_for(rp3, (0,), 2, 5)
    # x = -2 sits at the edge; the shifted coface lands at x = -3 with a
    # weight gap of 5, visible at m = 5.
    img = delta(Chain.dual((8,), 0, 5), reg)
    assert img.escaped


def test_delta_degree_bookkeeping_and_u_equivariance():
    g = chain(-2, -3)
    reg = region_for(g, (0, -1), 3, 4)
    rng = random.Random(4)
    for _ in range(30):
        x = tuple(rng.randint(-1, 1) for _ in range(2))
        k = reg.point(pack(x))
        s = rng.randrange(4)
        m = rng.randint(1, 4)
        e = Chain.dual(k, s, m)
        img = delta(e, reg)
        if img.escaped:
            continue
        degs = {bin(s2).count("1") for _, s2, _ in img.terms}
        assert degs <= {bin(s).count("1") + 1}
        lhs = delta(e.times_u(), reg)
        rhs = delta(e, reg).times_u()
        assert lhs.terms == rhs.terms


def test_delta_squared_on_single_vertex(rp3):
    assert delta_squared_check(region_for(rp3, (0,), 3, 3))


def test_delta_squared_on_random_graphs():
    rng = random.Random(17)
    done = 0
    while done < 6:
        g = random_graph(rng, max_vertices=3)
        if g.n != 3:
            continue
        done += 1
        base = tuple(g.weights)
        assert delta_squared_check(region_for(g, base, 1, 5), mcaps=(0, 3, 5))


def test_delta_squared_catches_corrupted_weights():
    g = chain(-2, -2)
    reg = region_for(g, (0, 0), 3, 3)
    assert delta_squared_check(reg, mcaps=(1, 3))
    with faults.injected("cube-weight-parity-offset"):
        assert not delta_squared_check(reg, mcaps=(1, 3))


def test_delta_squared_check_counts_an_escape_as_a_failure():
    # With the coface shifted the wrong way, the first image of an interior
    # dual leaves the box; that alone must fail the check.
    g = chain(-2, -3)
    reg = region_for(g, (0, 1), 2, 3)
    assert delta_squared_check(reg)
    with faults.injected("delta-coface-shift-sign"):
        interior = [reg.point(x) for x in reg.iter_offsets()
                    if min(unpack(x, g.n)) >= 0]
        found = list(delta_squared_failures(reg, interior, range(4)))
        assert found and {check for *_, check in found} == {"interior-escape"}
        assert not delta_squared_check(reg)


def test_monotonicity_check():
    g = chain(-2, -2)
    reg = region_for(g, (0, 0), 2, 2)
    assert weight_monotonicity_check(reg)
    with faults.injected("cube-weight-parity-offset"):
        assert not weight_monotonicity_check(reg)


def test_monotonicity_random_graphs():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(rng, max_vertices=4)
        base = tuple(g.weights)
        assert weight_monotonicity_check(region_for(g, base, 1, 3))


# --- the delta-squared suite against its pre-fan loop ------------------------

def _reference_cofaces(cube_weight, x, s, n):
    """The coboundary rule as it stood before ``cofaces`` walked its free
    bits inline and read the fault flags once per call, on tuple offsets:
    ``cube_weight`` takes an (x, S) pair."""
    w_here = cube_weight((x, s))
    sign = 1 if faults.is_active("delta-coface-shift-sign") else -1
    for w in bits(((1 << n) - 1) & ~s):
        up = s | (1 << w)
        for y in (x, x[:w] + (x[w] + sign,) + x[w + 1:]):
            w_up = cube_weight((y, up))
            yield y, up, None if w_up is None else w_up - w_here


def _reference_delta(e, region):
    """The coboundary with no fan memo: every term walks its cofaces and
    recomputes each coface's base corner and window membership."""
    graph = region.graph
    inside, out = set(), set()
    for k, s, m in e.terms:
        frame = region.frame(k)
        if frame is None:
            raise OutsideRegionError("term %r lies outside the region" % ((k, s, m),))
        x, weight = _tuple_frame(frame, graph.n)
        for y, up, gap in _reference_cofaces(weight, x, s, graph.n):
            if gap > m:
                continue
            k2 = k if y is x else lattice_point(graph, k, map(operator.sub, y, x))
            ok = m - gap <= region.mcap and region.contains(k2)
            (inside if ok else out).symmetric_difference_update([(k2, up, m - gap)])
    return Chain(frozenset(inside), frozenset(out))


def _tuple_frame(frame, n):
    """A window's frame (packed offset, cube weights by key) read with tuple
    offsets and (x, S) cubes."""
    x, weight = frame
    return unpack(x, n), lambda cube: weight(cube_key(*cube))


def _reference_delta_squared_failures(region, ks, levels):
    for k in ks:
        for s in range(1 << region.graph.n):
            for m in levels:
                once = _reference_delta(Chain.dual(k, s, m), region)
                if once.escaped:
                    yield k, s, m, "interior-escape"
                    continue
                twice = _reference_delta(once, region)
                if twice.escaped or twice:
                    yield k, s, m, "delta-squared"


def _reference_monotonicity(region):
    n = region.graph.n
    frames = [_tuple_frame((x, region.cube_weights), n)
              for x in region.iter_offsets()]
    return all(gap >= 0 for x, weight in frames for s in range(1 << n)
               for _, _, gap in _reference_cofaces(weight, x, s, n))


def _suite_windows(seed, graphs, mcap):
    """(graph, base, window) of each class ``suite_delta_squared`` visits,
    in its order."""
    rng = random.Random(seed)
    for _ in range(graphs):
        g = random_graph(rng, 5)
        try:
            bases = [c.base for c in spinc_representatives(g)][:16]
        except DegenerateFormError:
            bases = [characteristic_base(g)]
        for base in bases:
            yield g, base, region_for(g, base, 1, mcap)


def _reference_suite_delta_squared(seed, graphs, mcap):
    """``suite_delta_squared`` with the monotonicity spot as its own
    ``Region`` (a second cube-weight memo) and the loops above."""
    checked, failures = 0, []
    for g, base, region in _suite_windows(seed, graphs, mcap):
        n = g.n
        spot = Region(g, base, (0,) * n, (1,) * n, mcap)
        if not _reference_monotonicity(spot):
            failures.append({"check": "monotonicity",
                             "graph": graph_spec(g), "base": list(base)})
            continue
        checked += (1 << n) * (mcap + 1)
        for k, s, m, check in _reference_delta_squared_failures(
                region, [region.point(pack((1,) * n))], range(mcap + 1)):
            failures.append({"check": check, "graph": graph_spec(g),
                             "base": list(base), "element": [list(k), s, m]})
    return checked, failures


def _fault_state(fault):
    return contextlib.nullcontext() if fault is None else faults.injected(fault)


@pytest.mark.parametrize("fault", (None,) + faults.FAULTS)
def test_delta_squared_suite_equals_the_reference_loop(fault):
    for seed in (42, 7):
        with _fault_state(fault):
            got = suite_delta_squared(seed, 8, mcap=4)
            want = _reference_suite_delta_squared(seed, 8, 4)
        assert (got.checked, got.failures) == want


@pytest.mark.parametrize("fault", ["cube-weight-parity-offset",
                                   "delta-coface-shift-sign"])
def test_delta_squared_failures_equal_the_reference_loop_under_faults(fault):
    # The suite stops at the monotonicity check under these faults, so the
    # delta-squared loop is compared on its windows without that gate.
    found = 0
    with faults.injected(fault):
        for seed in (42, 7):
            for g, _, region in _suite_windows(seed, 8, 4):
                centre = [region.point(pack((1,) * g.n))]
                got = list(delta_squared_failures(region, centre, range(5)))
                assert got == list(
                    _reference_delta_squared_failures(region, centre, range(5)))
                found += len(got)
    assert found


def test_delta_squared_builds_each_fan_once(monkeypatch):
    # One delta_squared_failures call walks the cofaces of each (offset,
    # mask) at most once, across both applications of delta.
    walked = Counter()
    real = lattice.cofaces

    def counted(cube_weight, key, n):
        walked[key] += 1
        return real(cube_weight, key, n)

    monkeypatch.setattr(lattice, "cofaces", counted)
    g = chain(-2, -3, -2)
    reg = region_for(g, (0, 1, 0), 1, 4)
    found = list(delta_squared_failures(reg, [reg.point(pack((1, 1, 1)))],
                                        range(5)))
    assert not found
    assert walked and max(walked.values()) == 1
    assert len(walked) > 1 << g.n  # the second application reached further


def test_delta_squared_suite_weighs_each_offset_once(monkeypatch):
    # The monotonicity spot and the delta-squared window of one class share
    # one cube-weight memo, so each offset's point weight is computed once.
    weighed = Counter()
    graphs = []
    real = lattice.relative_weight

    def counted(graph, base, x):
        graphs.append(graph)  # keeps each id distinct while counting
        weighed[id(graph), tuple(base), tuple(x)] += 1
        return real(graph, base, x)

    monkeypatch.setattr(lattice, "relative_weight", counted)
    res = suite_delta_squared(42, 6, mcap=2)
    assert res.checked and weighed
    assert max(weighed.values()) == 1


def test_delta_fans_do_not_outlive_a_fault():
    # The per-call fans hold fault-applied values; a Region reused clean,
    # under each fault and clean again must give what a fresh Region gives.
    g = chain(-2, -3)
    half, mcap = 2, 3

    def results(reg):
        interior = [reg.point(x) for x in reg.iter_offsets()
                    if min(unpack(x, g.n)) >= 0]
        return (list(delta_squared_failures(reg, interior, range(mcap + 1))),
                weight_monotonicity_check(reg))

    reused = region_for(g, (0, 1), half, mcap)
    clean = results(region_for(g, (0, 1), half, mcap))
    assert results(reused) == clean
    faulted = []
    for fault in faults.FAULTS:
        with faults.injected(fault):
            faulted.append(results(reused))
            assert faulted[-1] == results(region_for(g, (0, 1), half, mcap))
    assert results(reused) == clean
    assert any(got != clean for got in faulted)


# --- regions ----------------------------------------------------------------

def test_truncation_region_degenerate_errors():
    with pytest.raises(DescentError):
        truncation_region(vertex(0), (0,), 2)


DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def _definite_graphs():
    """The definite demos, the definite ``random_graph`` seeds 0 to 19 and
    the graph with no vertex."""
    for path in sorted(DATA.glob("*.graph")):
        g = parse_graph(path.read_text())
        if is_negative_definite(g):
            yield pytest.param(g, id=path.stem)
    for seed in range(20):
        g = random_graph(random.Random(seed))
        if is_negative_definite(g):
            yield pytest.param(g, id="random%d" % seed)
    yield pytest.param(make_graph(([], [])), id="empty")


@pytest.mark.parametrize("g", _definite_graphs())
def test_truncation_region_is_the_reported_sublevel_box(g):
    # The box is the class's reported region, and for small graphs the
    # bounding box of its sublevel set found by scanning a grid two wider.
    for cls in spinc_representatives(g):
        for mcap in range(3 if g.n >= 7 else 4):
            reg = truncation_region(g, cls, mcap)
            assert reg.to_json() == stabilize(g, cls, mcap).region
            if g.n > 4:
                continue
            grid = itertools.product(*(range(a - 2, b + 3) for a, b in
                                       zip(reg.xmin, reg.xmax)))
            weights = {x: relative_weight(g, cls.base, x) for x in grid}
            cap = min(weights.values()) + mcap
            below = [x for x, w in weights.items() if w <= cap]
            assert reg.xmin == tuple(map(min, zip(*below)))
            assert reg.xmax == tuple(map(max, zip(*below)))


def test_region_membership_and_offsets(rp3):
    reg = region_for(rp3, (0,), 2, 3)
    assert reg.contains((0,)) and reg.contains((4,)) and reg.contains((-8,))
    assert not reg.contains((12,))   # offset 3
    assert not reg.contains((1,))    # wrong parity, not in the class
    assert unpack(reg.offset_of((4,)), 1) == (-1,)  # K = 0 + 2*(-2)*x


def test_region_membership_degenerate_form():
    g = vertex(0)
    reg = Region(g, (0,), (-2,), (2,), 1)
    # All offsets give the same vector: the class is a single point.
    assert reg.contains((0,))
    assert not reg.contains((2,))


def test_chain_algebra():
    a = Chain(frozenset([((0,), 0, 1)]))
    assert a.times_u().terms == {((0,), 0, 0)}
    assert Chain(frozenset([((0,), 0, 0)])).times_u().terms == set()
