import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcoh import (Chain, DescentError, OutsideRegionError, Region,
                    absolute_q, cube_weights, delta, delta_squared_check,
                    faults, intersection_matrix, relative_weight,
                    truncation_region, weight_monotonicity_check)
from latcoh.lattice import delta_squared_failures, lattice_point
from latcoh.suites import random_graph

from conftest import chain, e8, vertex


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
    assert cube_weights(rp3, (0,))(((0,), 1)) == 1   # max{0, 1}
    assert cube_weights(rp3, (0,))(((0,), 0)) == 0   # single corner
    assert cube_weights(rp3, (2,))(((0,), 1)) == 0   # max{0, 0}


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
        k = reg.point(x)
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
        interior = [reg.point(x) for x in reg.iter_offsets() if min(x) >= 0]
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


# --- regions ----------------------------------------------------------------

def test_truncation_region_single_vertex(rp3):
    reg = truncation_region(rp3, (0,), 2)
    # Threshold is 2 + 1 + 1 = 4 and w(x) = x^2, so the box is [-2, 2].
    assert (reg.xmin, reg.xmax) == ((-2,), (2,))
    assert reg.to_json() == {"base": [0], "xmin": [-2], "xmax": [2], "mcap": 2}


def test_truncation_region_degenerate_errors():
    with pytest.raises(DescentError):
        truncation_region(vertex(0), (0,), 2)


def test_truncation_region_e8_fixture():
    # Regression fixture: exact bounding box of the threshold ellipsoid for
    # the U cap 2 (threshold 2 + 8 + maxvar at the descent minimum).  The
    # sublevel set sits far from the origin for this base vector.
    reg = truncation_region(e8(), tuple([-2] * 8), 2)
    assert reg.xmin == (-35, -68, -100, -130, -160, -108, -55, -81)
    assert reg.xmax == (-23, -46, -68, -90, -110, -74, -37, -55)
    assert reg == truncation_region(e8(), tuple([-2] * 8), 2)  # deterministic


def test_region_membership_and_offsets(rp3):
    reg = region_for(rp3, (0,), 2, 3)
    assert reg.contains((0,)) and reg.contains((4,)) and reg.contains((-8,))
    assert not reg.contains((12,))   # offset 3
    assert not reg.contains((1,))    # wrong parity, not in the class
    assert reg.offset_of((4,)) == (-1,)  # K = 0 + 2*(-2)*x


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
