import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from latcoh import exact


def gauss_det(mat):
    """Independent determinant oracle: textbook fraction elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def test_bareiss_matches_gauss_oracle():
    mats = [
        [[-2]],
        [[-2, 1], [1, -2]],
        [[0, 0], [0, 0]],
        [[-2, 1, 0], [1, -1, 1], [0, 1, -2]],
        [[3, 1, 4], [1, 5, 9], [2, 6, 5]],
    ]
    for m in mats:
        assert exact.det_bareiss(m) == gauss_det(m)


def test_empty_matrix_determinant_is_one():
    assert exact.det_bareiss([]) == 1


def test_solve_fraction():
    # [[0, 1], [1, 0]] needs a row swap at the first pivot; the second
    # system is indefinite; the third is singular and must raise.
    for m, rhs in (([[0, 1], [1, 0]], [3, -4]),
                   ([[2, 1], [1, -3]], [5, 10]),
                   ([[1, 2, 0], [2, -1, 1], [0, 1, 4]], [1, 0, -7])):
        x = exact.solve_fraction(m, rhs)
        assert all(type(v) is Fraction for v in x)
        assert [sum(a * v for a, v in zip(row, x)) for row in m] == rhs
    assert exact.solve_fraction([[0, 1], [1, 0]], [3, -4]) == [-4, 3]
    with pytest.raises(ValueError, match="singular"):
        exact.solve_fraction([[1, 1], [1, 1]], [2, 2])


def test_hermite_form_spans_same_lattice():
    m = [[-2, 1], [1, -2]]
    h = exact.hermite_column_form(m)
    assert h[0][1] == 0  # lower triangular
    assert h[0][0] > 0 and h[1][1] > 0
    assert h[0][0] * h[1][1] == abs(exact.det_bareiss(m))
    # Every column of m reduces to zero against h.
    for j in range(2):
        col = tuple(m[i][j] for i in range(2))
        assert exact.reduce_mod_columns(col, h) == (0, 0)


def test_hermite_rejects_singular():
    with pytest.raises(ValueError):
        exact.hermite_column_form([[1, 1], [1, 1]])


def test_reduce_mod_columns_is_canonical():
    h = [[2, 0], [1, 3]]
    seen = set()
    for a in range(-6, 7):
        for b in range(-6, 7):
            r = exact.reduce_mod_columns((a, b), h)
            assert 0 <= r[0] < 2 and 0 <= r[1] < 3
            # Idempotent and stable under lattice translations.
            assert exact.reduce_mod_columns(r, h) == r
            shifted = (a + 2, b + 1)
            assert exact.reduce_mod_columns(shifted, h) == r
            seen.add(r)
    assert len(seen) == 6


def test_enumerate_sublevel_matches_brute_force():
    q = [[2, -1], [-1, 2]]
    center = [Fraction(1, 3), Fraction(-1, 5)]
    bound = Fraction(9)

    def val(x):
        z = [Fraction(xi) - c for xi, c in zip(x, center)]
        return sum(z[i] * q[i][j] * z[j] for i in range(2) for j in range(2))

    brute = {(a, b) for a in range(-6, 7) for b in range(-6, 7)
             if val((a, b)) <= bound}
    got = set(exact.enumerate_sublevel(q, center, bound))
    assert got == brute


def test_enumerate_sublevel_zero_dims():
    assert list(exact.enumerate_sublevel([], [], Fraction(1))) == [()]


def _sublevel_cases():
    """Seeded positive definite integer forms of dimension 1-5: negated
    forms of random definite trees, and dense A^T A + I."""
    from latcoh import intersection_matrix, is_negative_definite
    from latcoh.suites import random_graph
    rng = random.Random(2024)
    forms = []
    while len(forms) < 10:
        g = random_graph(rng, max_vertices=5, weights=(-4, -1), extra_edge=0.3)
        if is_negative_definite(g):
            forms.append([[-v for v in row] for row in intersection_matrix(g)])
    for n in (2, 3, 4, 5):
        a = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        forms.append([[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j)
                       for j in range(n)] for i in range(n)])
    assert {len(q) for q in forms} == {1, 2, 3, 4, 5}
    for q in forms:
        center = [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                  for _ in q]
        yield q, center, rng


def _form_value(q, center, x):
    z = [xi - c for xi, c in zip(x, center)]
    return sum(z[i] * q[i][j] * z[j] for i in range(len(q)) for j in range(len(q)))


def _brute_values(q, center, top):
    """f at every integer point of the bounding box of {f <= top}, by
    (x_i - c_i)^2 <= top (Q^-1)_ii; f is summed in integers (times den^2)."""
    n = len(q)
    den = math.lcm(*(c.denominator for c in center))
    ranges = []
    for i in range(n):
        inv_ii = exact.solve_fraction(q, [int(j == i) for j in range(n)])[i]
        half = math.isqrt((max(top, 0) * inv_ii).__ceil__()) + 1
        ranges.append(range(center[i].__floor__() - half,
                            center[i].__ceil__() + half + 1))
    out = {}
    for x in itertools.product(*ranges):
        y = [den * xi - int(c * den) for xi, c in zip(x, center)]
        out[x] = Fraction(sum(yi * sum(map(operator.mul, row, y))
                              for yi, row in zip(y, q)), den * den)
    return out


def test_enumerate_sublevel_matches_brute_force_seeded():
    for q, center, rng in _sublevel_cases():
        # f at a lattice point near the center puts a point on the boundary.
        near = tuple(round(c) + rng.randint(-1, 1) for c in center)
        edge = _form_value(q, center, near)
        values = _brute_values(q, center, edge)
        for bound in (edge, edge - Fraction(1, 7), Fraction(0), Fraction(-1, 3)):
            got = list(exact.enumerate_sublevel(q, center, bound))
            assert len(got) == len(set(got))
            assert set(got) == {x for x, f in values.items() if f <= bound}
            assert (near in got) == (bound >= edge)
        # At bound 0 an integral center is the only point.
        corner = [c.__floor__() for c in center]
        assert list(exact.enumerate_sublevel(q, corner, 0)) == [tuple(corner)]


def test_enumerate_sublevel_rejects_an_indefinite_form():
    with pytest.raises(ValueError, match="not positive definite"):
        list(exact.enumerate_sublevel([[1, 2], [2, 1]], [0, 0], 1))


def _ldlt(q):
    """L and D of Q = L D L^T in Fractions, straight from the recurrence."""
    n = len(q)
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = []
    for k in range(n):
        diag.append(Fraction(q[k][k])
                    - sum(diag[j] * lower[k][j] ** 2 for j in range(k)))
        for i in range(k + 1, n):
            lower[i][k] = (q[i][k] - sum(diag[j] * lower[i][j] * lower[k][j]
                                         for j in range(k))) / diag[k]
    return lower, diag


def test_bareiss_pivots_are_minors_and_keeps_scaled_ldlt():
    for q, _, _ in _sublevel_cases():
        n = len(q)
        rows, swaps = exact.bareiss(q)
        minors = [gauss_det([row[:k] for row in q[:k]]) for k in range(n + 1)]
        assert swaps == 0
        assert [rows[k][k] for k in range(n)] == minors[1:]
        lower, diag = _ldlt(q)
        assert diag == [Fraction(minors[k + 1], minors[k]) for k in range(n)]
        for i in range(n):
            for j in range(n):
                assert sum(diag[k] * lower[i][k] * lower[j][k]
                           for k in range(n)) == q[i][j]
        for k in range(n):
            for j in range(k + 1, n):
                assert rows[j][k] == minors[k + 1] * lower[j][k]
        assert exact.definite_rows(q) == rows


def test_is_negative_definite_is_sylvesters_criterion():
    # Weights up to +1 give forms with a zero leading minor (the Bareiss
    # elimination then swaps a row) and forms that are indefinite.
    from latcoh import intersection_matrix, is_negative_definite
    from latcoh.suites import random_graph
    rng = random.Random(11)
    seen = {True: 0, False: 0, "zero minor": 0, "swap": 0}
    for _ in range(300):
        g = random_graph(rng, max_vertices=5, weights=(-3, 1), extra_edge=0.3)
        neg = [[-v for v in row] for row in intersection_matrix(g)]
        minors = [gauss_det([row[:k] for row in neg[:k]])
                  for k in range(1, g.n + 1)]
        sylvester = all(d > 0 for d in minors)
        assert is_negative_definite(g) == sylvester
        seen[sylvester] += 1
        if 0 in minors[:-1]:
            seen["zero minor"] += 1
            elim = exact.bareiss(neg)
            if elim is not None and elim[1]:
                seen["swap"] += 1
                assert exact.det_bareiss(neg) == gauss_det(neg)
    assert min(seen.values()) >= 5, seen


def test_enumerate_sublevel_limit_raises_at_the_next_point():
    q, center, _ = next(_sublevel_cases())
    points = list(exact.enumerate_sublevel(q, center, 40))
    assert len(points) >= 3
    assert list(exact.enumerate_sublevel(q, center, 40,
                                         limit=len(points))) == points
    cap = len(points) - 1
    gen = exact.enumerate_sublevel(q, center, 40, limit=cap)
    assert [next(gen) for _ in range(cap)] == points[:cap]
    with pytest.raises(RuntimeError, match="exceeded %d points" % cap):
        next(gen)
