"""Exact dense linear algebra over rationals (small systems only)."""

from __future__ import annotations

from .rationals import Rat, ZERO, over_common_denominator


def bareiss_det(matrix):
    """Exact determinant via fraction-free (Bareiss) elimination.

    Rows are scaled to integers first (tracking the scaling), so intermediate
    entries stay integral and small.
    """
    n = len(matrix)
    if n == 0:
        return Rat(1)
    scale_den = 1
    m: list[list[int]] = []
    for row in matrix:
        den, ints = over_common_denominator(row)
        scale_den *= den
        m.append(ints)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Rat(sign * m[n - 1][n - 1], scale_den)


def solve_exact(matrix, rhs):
    """Solve a square rational system exactly; raises on a singular matrix."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                for c in range(col, n + 1):
                    a[r][c] -= factor * a[col][c]
    x = [ZERO] * n
    for i in range(n - 1, -1, -1):
        s = a[i][n]
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x


def inverse_exact(matrix):
    """Exact inverse of a square rational matrix (column-by-column solves)."""
    n = len(matrix)
    cols = []
    for j in range(n):
        e = [Rat(1) if i == j else ZERO for i in range(n)]
        cols.append(solve_exact(matrix, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def inf_norm(matrix):
    return max(sum(abs(x) for x in row) for row in matrix)
