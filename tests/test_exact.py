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
    m = [[2, 1], [1, 3]]
    x = exact.solve_fraction(m, [5, 10])
    assert [sum(Fraction(m[i][j]) * x[j] for j in range(2)) for i in range(2)] == [5, 10]
    assert exact.solve_fraction([[1, 1], [1, 1]], [0, 1]) is None
    assert exact.solve_fraction([[1, 1], [1, 1]], [2, 2]) is not None


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


def test_ldlt_reconstructs():
    m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    lower, diag = exact.ldlt(m)
    n = 3
    for i in range(n):
        for j in range(n):
            s = sum(diag[k] * lower[i][k] * lower[j][k] for k in range(n))
            assert s == m[i][j]
    with pytest.raises(ValueError):
        exact.ldlt([[0]])


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
