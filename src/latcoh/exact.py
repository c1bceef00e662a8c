"""Exact integer and rational linear algebra.

Everything in this module runs over Python ints and ``fractions.Fraction``;
no floating point is used anywhere.  Matrices are small (the number of graph
vertices), so the quadratic/cubic algorithms below are more than fast enough
and keep every result exact.  Lattice-point enumeration uses Fractions only
to set up its integer recursion, whose budgets and bounds are plain ints.
"""

from fractions import Fraction
from math import isqrt, lcm


def det_bareiss(mat) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination.

    The empty matrix has determinant 1.
    """
    n = len(mat)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def leading_minors(mat) -> list:
    """Determinants of the leading principal k-by-k submatrices, k = 1..n."""
    n = len(mat)
    return [det_bareiss([row[:k] for row in mat[:k]]) for k in range(1, n + 1)]


def solve_fraction(mat, rhs):
    """Solve ``mat @ x = rhs`` exactly over the rationals.

    Returns a list of Fractions, or None if the system is inconsistent.
    Free variables, if any, are set to zero.
    """
    n = len(mat)
    if n == 0:
        return []
    m = len(mat[0])
    a = [[Fraction(mat[i][j]) for j in range(m)] + [Fraction(rhs[i])]
         for i in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if a[r][m] != 0:
            return None
    x = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        x[col] = a[r][m]
    return x


def hermite_column_form(mat) -> list:
    """Lower-triangular column basis of the column lattice of ``mat``.

    Requires a nonsingular square integer matrix.  The result H spans the
    same lattice as the columns of ``mat``, has positive diagonal, and is
    lower triangular, which makes coset reduction a single greedy pass.
    """
    n = len(mat)
    if n == 0:
        return []
    cols = [[mat[i][j] for i in range(n)] for j in range(n)]
    for i in range(n):
        while True:
            live = [j for j in range(i, n) if cols[j][i] != 0]
            if not live:
                raise ValueError("matrix is singular")
            if len(live) == 1:
                j = live[0]
                cols[i], cols[j] = cols[j], cols[i]
                break
            a = min(live, key=lambda j: abs(cols[j][i]))
            for b in live:
                if b == a:
                    continue
                q = cols[b][i] // cols[a][i]
                cols[b] = [x - q * y for x, y in zip(cols[b], cols[a])]
        if cols[i][i] < 0:
            cols[i] = [-x for x in cols[i]]
        for j in range(i):
            q = cols[j][i] // cols[i][i]
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def reduce_mod_columns(vec, h) -> tuple:
    """Canonical residue of ``vec`` modulo the column lattice of ``h``.

    ``h`` must be in lower-triangular column form with positive diagonal.
    Residues are least nonnegative coordinatewise against the pivots.
    """
    n = len(vec)
    z = list(vec)
    for i in range(n):
        q = z[i] // h[i][i]
        if q:
            for k in range(i, n):
                z[k] -= q * h[k][i]
    return tuple(z)


def ldlt(mat):
    """L D L^T decomposition of a symmetric positive definite matrix.

    Entries may be ints or Fractions.  Returns (L, D) with L unit lower
    triangular and D the diagonal, all Fractions.  Raises ValueError if a
    pivot fails to be positive.
    """
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for k in range(n):
        d = a[k][k] - sum(diag[j] * lower[k][j] ** 2 for j in range(k))
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag[k] = d
        lower[k][k] = Fraction(1)
        for i in range(k + 1, n):
            s = a[i][k] - sum(diag[j] * lower[i][j] * lower[k][j] for j in range(k))
            lower[i][k] = s / d
    return lower, diag


def enumerate_sublevel(q_form, center, bound, limit=None):
    """All integer points x with (x-center)^T Q (x-center) <= bound.

    ``q_form`` must be symmetric positive definite (ints or Fractions),
    ``center`` a rational point, ``bound`` a rational.  Classic
    lattice-point enumeration (Fincke-Pohst), run in integers: with den the
    common denominator of the center, y = den x - den center and Delta_k
    the leading minors (Delta_0 = 1), the form f(x) satisfies
    den^2 f = sum_k v_k^2 / (Delta_k Delta_{k+1}) where
    v_k = Delta_{k+1} y_k + sum_{j>k} Delta_{k+1} L_jk y_j is an integer
    (L from ``ldlt`` of Q, first scaled to integers when its entries are
    Fractions).  Scaled by T = lcm_k(Delta_k Delta_{k+1}) every
    budget is an int and every coordinate interval comes from ``isqrt``;
    Fractions appear only in this set-up.  Raises RuntimeError if more
    than ``limit`` points are produced.
    """
    n = len(q_form)
    qden = lcm(*(Fraction(v).denominator for row in q_form for v in row))
    q_int = [[int(Fraction(v) * qden) for v in row] for row in q_form]
    center = [Fraction(c) for c in center]
    den = lcm(*(c.denominator for c in center))
    p = [int(c * den) for c in center]
    lower, _ = ldlt(q_int)
    minors = [1] + leading_minors(q_int)
    ell = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1, n):
            v = minors[k + 1] * lower[j][k]
            assert v.denominator == 1, "Delta_{k+1} L_jk is not an integer"
            ell[j][k] = int(v)
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    weight = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    step = [minors[k + 1] * den for k in range(n)]
    budget = (Fraction(bound) * qden * scale * den * den).__floor__()
    if budget < 0:
        return
    if n == 0:
        yield ()
        return
    x = [0] * n
    y = [0] * n
    count = 0

    def rec(k, budget):
        nonlocal count
        # v_k = step_k x_k - b with b collecting the center and the
        # coordinates above k; weight_k v_k^2 <= budget bounds |v_k| by r.
        b = minors[k + 1] * p[k] - sum(ell[j][k] * y[j] for j in range(k + 1, n))
        a = step[k]
        r = isqrt(budget // weight[k])
        lo, hi = -((r - b) // a), (b + r) // a
        if k == 0:
            for t in range(lo, hi + 1):
                count += 1
                if limit is not None and count > limit:
                    raise RuntimeError("sublevel enumeration exceeded %d points"
                                       % limit)
                x[0] = t
                yield tuple(x)
            return
        c = weight[k]
        for t in range(lo, hi + 1):
            x[k] = t
            y[k] = den * t - p[k]
            v = a * t - b
            yield from rec(k - 1, budget - c * v * v)

    yield from rec(n - 1, budget)
