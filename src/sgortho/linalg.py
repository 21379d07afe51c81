"""Exact dense linear algebra over rationals (small systems only).

One kernel, `_eliminate`, serves determinants, solves and inverses.  Each
row of the augmented matrix [A | B] is brought to integers over its own
denominator; fraction-free (Bareiss) elimination on the whole augmented row
leaves an integer upper-triangular system whose last pivot D is the
determinant of the integer rows.  Back-substitution then computes D·X, an
integer matrix by Cramer's rule, so each of its divisions is exact; X itself
costs one rational division per entry at the end.
"""

from __future__ import annotations

from .rationals import Rat, ZERO, over_common_denominator


def _eliminate(matrix, columns=()):
    """(det A, X) with A X = B for the right-hand sides `columns` of B, X as
    a list of solution columns; X is None when A is singular."""
    n = len(matrix)
    width = n + len(columns)
    scale = 1
    m: list[list[int]] = []
    for i, row in enumerate(matrix):
        den, ints = over_common_denominator([*row, *(col[i] for col in columns)])
        scale *= den
        m.append(ints)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return ZERO, None
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    det = prev  # 1 for the empty matrix
    solutions = []
    for c in range(n, width):
        y = [0] * n  # y = det * x
        for i in range(n - 1, -1, -1):
            s = det * m[i][c] - sum(m[i][j] * y[j] for j in range(i + 1, n))
            y[i] = s // m[i][i]
        solutions.append([Rat(v, det) for v in y])
    return Rat(sign * det, scale), solutions


def bareiss_det(matrix):
    """Exact determinant of a square rational matrix."""
    return _eliminate(matrix)[0]


def _nonsingular(solutions):
    if solutions is None:
        raise ValueError("singular system")
    return solutions


def solve_exact(matrix, rhs):
    """Solve a square rational system exactly; raises on a singular matrix."""
    return _nonsingular(_eliminate(matrix, [rhs])[1])[0]


def det_and_inverse(matrix):
    """(det A, A^-1) from one elimination; the inverse is None when A is
    singular."""
    n = len(matrix)
    identity = [[Rat(int(i == j)) for i in range(n)] for j in range(n)]
    det, columns = _eliminate(matrix, identity)
    return det, None if columns is None else [list(row) for row in zip(*columns)]


def inverse_exact(matrix):
    """Exact inverse of a square rational matrix; raises when it is singular."""
    return _nonsingular(det_and_inverse(matrix)[1])


def inf_norm(matrix):
    return max(sum(abs(x) for x in row) for row in matrix)
