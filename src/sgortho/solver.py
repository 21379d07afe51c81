"""Exact direct solver for the discrete Dirichlet problem on level grids.

The collocation discretization of Lap(u) = g at level L reads, for every
interior vertex z (degree 4),

    sum_{y ~ z} (u(z) - u(y)) = -(2/3) 5^{-L} g(z),

with the three corner values prescribed.  The hierarchy solves this exactly:
the vertices new at level l are interior to a unique (l-1)-cell and couple
only within it, so they can be eliminated cell by cell.  The local matrix is
5I - ones(3,3) with inverse I/5 + ones/10, giving

    elimination:  corner load  b'(A) = (5/3) b(A)
                                + sum_{cells C owning A} [ (2/3)(b_AB + b_AC)
                                                           + (1/3) b_BC ]
    (the reduced system is again the plain graph Laplacian one level down)

    back-substitution:  x_AB = (2A + 2B + C)/5
                               + (3/10) b_AB + (1/10)(b_BC + b_AC).

With zero loads the back-substitution is exactly the harmonic extension rule.

Integer form.  The kernel `_solve` works on Python ints over one common
denominator per level and never reduces.  Level-L loads are integers over
D; each elimination level multiplies the load denominator by 3, the new
numerators being 5b(A) + sum [2(b_AB + b_AC) + b_BC].  The back-substitution
starts from the corner values over a multiple of D 3^L, so every load
level's denominator divides the value denominator, and each level multiplies
that denominator by 10: 10 x_AB = 4A + 4B + 2C + 3b_AB + b_AC + b_BC.

Vertices are numbered as in `grid` (see its module docstring).

eval_poly_grid drives this for a polynomial: the top of its Laplacian chain is
harmonic (a zero-load solve), then one solve per remaining chain layer with
exact corner data from the boundary tables, its loads -2 V over 3 5^L E from
the previous layer's values V / E.  The whole chain stays in ints; only the
level-m output values become rationals, one reduction each.  Repeated runs
are bit-identical, and the only error against the continuous problem is the
collocation residual itself.
"""

from __future__ import annotations

from math import lcm

from .grid import FieldOnGrid, _corner_table, _vertex_count, build_grid
from .poly import Poly
from .rationals import Rat, over_common_denominator


def _solve(level: int, boundary, loads: list[int], load_den: int):
    """Integer kernel: (values, den) with values[i] / den the solution at
    numbered vertex i, for the corner values `boundary` (rationals) and the
    loads loads[i] / load_den (the corner entries are ignored)."""
    counts = [_vertex_count(l) for l in range(level + 1)]
    tables = [_corner_table(l) for l in range(level)]
    level_loads = [loads]
    b = loads
    for l in range(level, 0, -1):
        m = counts[l - 1]
        reduced = [5 * x for x in b[:m]]
        for a0, a1, a2 in tables[l - 1]:
            b01, b02, b12 = b[m], b[m + 1], b[m + 2]
            t = 2 * (b01 + b02 + b12)
            reduced[a0] += t - b12
            reduced[a1] += t - b02
            reduced[a2] += t - b01
            m += 3
        b = reduced
        level_loads.append(b)
    level_loads.reverse()  # level_loads[l] is over load_den * 3^(level - l)

    boundary = [Rat(v) for v in boundary]
    den = lcm(load_den * 3**level, *(v.denominator for v in boundary))
    values = [v.numerator * (den // v.denominator) for v in boundary]
    values += [0] * (counts[level] - 3)
    for l in range(1, level + 1):
        scale = den // (load_den * 3**(level - l))
        b = level_loads[l]
        m = counts[l - 1]
        for a0, a1, a2 in tables[l - 1]:
            x0, x1, x2 = values[a0], values[a1], values[a2]
            b01, b02, b12 = scale * b[m], scale * b[m + 1], scale * b[m + 2]
            p = 4 * (x0 + x1 + x2) + b01 + b02 + b12
            values[m] = p - 2 * (x2 - b01)
            values[m + 1] = p - 2 * (x1 - b02)
            values[m + 2] = p - 2 * (x0 - b12)
            m += 3
        values[:counts[l - 1]] = [10 * x for x in values[:counts[l - 1]]]
        den *= 10
    return values, den


def dirichlet_solve(level: int, boundary, load) -> FieldOnGrid:
    """Exact solution of the level-`level` discrete Dirichlet problem.

    `boundary` holds the three corner values; `load` maps each vertex address
    to the right-hand side of its interior equation (boundary loads ignored).
    """
    grid = build_grid(level)
    load_den, loads = over_common_denominator(load(v) for v in grid.vertices)
    values, den = _solve(level, boundary, loads, load_den)
    return FieldOnGrid(grid, [Rat(v, den) for v in values])


def _corner_values(f: Poly) -> list:
    return [f.boundary_value(v) for v in (0, 1, 2)]


def eval_poly_grid(f: Poly, m: int, solve_level: int | None = None) -> FieldOnGrid:
    """Convergent evaluation of a polynomial on the level-m grid.

    Solves the collocation chain at `solve_level` (default m + 2: the
    oversampled solution restricted to level m is markedly more accurate) and
    restricts.  Harmonic polynomials come out exact; for higher degrees the
    values converge to the true ones as solve_level grows.
    """
    if solve_level is None:
        solve_level = m + 2
    if solve_level < m:
        raise ValueError("solve level must be at least the output level")
    chain = [f]
    while chain[-1].degree > 0:
        chain.append(chain[-1].laplacian())
    values, den = _solve(solve_level, _corner_values(chain[-1]),
                         [0] * _vertex_count(solve_level), 1)
    for layer in reversed(chain[:-1]):
        values, den = _solve(solve_level, _corner_values(layer),
                             [-2 * v for v in values], 3 * 5**solve_level * den)
    return FieldOnGrid(build_grid(m), [Rat(v, den) for v in values[:_vertex_count(m)]])
