"""Exact integer and rational linear algebra.

Everything in this module runs over Python ints and ``fractions.Fraction``;
no floating point is used anywhere.  Matrices are small (the number of graph
vertices).  One fraction-free elimination, ``bareiss``, yields every fact
about a form: its determinant, Sylvester's definiteness test, the integer
set-up of lattice-point enumeration and the rational solves.
"""

from fractions import Fraction
from math import isqrt, lcm


def bareiss(rows):
    """Fraction-free (Bareiss 1968) elimination of n integer rows; columns
    past the first n are augmented columns, carried along.

    Returns (rows, swaps), or None when the n-by-n part is singular.  A row
    is swapped in only at a zero pivot; ``swaps`` counts the swaps.  Entries
    below the diagonal are kept as they stood when their column was the
    pivot column.  With no swap, pivot k is the leading minor Delta_{k+1},
    and for a symmetric matrix L D L^T the entry left at (j, k), j > k, is
    the integer Delta_{k+1} L_jk.
    """
    a = [list(row) for row in rows]
    n = len(a)
    swaps, prev = 0, 1
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return None
            a[k], a[i] = a[i], a[k]
            swaps += 1
        pivot_row, piv = a[k], a[k][k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * piv - f * pivot_row[j]) // prev
        prev = piv
    return a, swaps


def det_bareiss(mat) -> int:
    """Integer determinant: the sign of the swaps times the last pivot.
    The empty matrix has determinant 1."""
    elim = bareiss(mat)
    if elim is None:
        return 0
    return (-1) ** elim[1] * elim[0][-1][-1] if mat else 1


def definite_rows(mat):
    """The ``bareiss`` rows of a symmetric integer ``mat`` if it is positive
    definite, else None.  Sylvester's criterion: no swap, so the pivots are
    the leading minors, and every pivot positive."""
    elim = bareiss(mat)
    if elim is None or elim[1] or any(row[k] <= 0
                                      for k, row in enumerate(elim[0])):
        return None
    return elim[0]


def solve_fraction(mat, rhs):
    """Solve ``mat @ x = rhs`` exactly for a nonsingular square integer
    ``mat``: ``bareiss`` on [mat | rhs], then back substitution in
    Fractions.  Raises ValueError if ``mat`` is singular."""
    n = len(mat)
    elim = bareiss([list(row) + [b] for row, b in zip(mat, rhs)])
    if elim is None:
        raise ValueError("matrix is singular")
    a, x = elim[0], [Fraction(0)] * n
    for k in reversed(range(n)):
        s = a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / Fraction(a[k][k])
    return x


def hermite_column_form(mat) -> list:
    """Lower-triangular column basis of the column lattice of ``mat``.

    Requires a nonsingular square integer matrix.  The result H spans the
    same lattice as the columns of ``mat``, has positive diagonal, and is
    lower triangular, which makes coset reduction a single greedy pass.
    """
    n = len(mat)
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


def enumerate_sublevel(q_form, center, bound, limit=None):
    """All integer points x with (x-center)^T Q (x-center) <= bound.

    ``q_form`` must be a symmetric positive definite integer matrix (else
    ValueError), ``center`` a rational point, ``bound`` a rational.
    Classic lattice-point enumeration (Fincke-Pohst), run in integers: with
    den the common denominator of the center, y = den x - den center and
    Delta_k the leading minors (Delta_0 = 1), the form f(x) satisfies
    den^2 f = sum_k v_k^2 / (Delta_k Delta_{k+1}) where
    v_k = Delta_{k+1} y_k + sum_{j>k} Delta_{k+1} L_jk y_j is an integer,
    read off the ``bareiss`` rows of Q.  Scaled by
    T = lcm_k(Delta_k Delta_{k+1}) every budget is an int and every
    coordinate interval comes from ``isqrt``.  Raises RuntimeError if more
    than ``limit`` points are produced.
    """
    n = len(q_form)
    rows = definite_rows(q_form)
    if rows is None:
        raise ValueError("the form is not positive definite")
    center = [Fraction(c) for c in center]
    den = lcm(*(c.denominator for c in center))
    p = [int(c * den) for c in center]
    minors = [1] + [row[k] for k, row in enumerate(rows)]
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    weight = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    step = [minors[k + 1] * den for k in range(n)]
    budget = (Fraction(bound) * scale * den * den).__floor__()
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
        b = minors[k + 1] * p[k] - sum(rows[j][k] * y[j] for j in range(k + 1, n))
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
