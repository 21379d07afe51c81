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
Everything is rational, so repeated runs are bit-identical and the only error
against the continuous problem is the collocation residual itself.

eval_poly_grid drives this for a polynomial: the top of its Laplacian chain is
harmonic (extended exactly), then one solve per remaining chain layer with
exact corner data from the boundary tables.
"""

from __future__ import annotations

from .addresses import VertexAddress, spine_address
from .grid import FieldOnGrid, build_grid, cell_words, harmonic_extend
from .poly import Poly
from .rationals import Rat, ZERO

_THIRD = Rat(1, 3)
_TWO_THIRDS = Rat(2, 3)
_FIVE_THIRDS = Rat(5, 3)
_FIFTH = Rat(1, 5)
_THREE_TENTHS = Rat(3, 10)
_TENTH = Rat(1, 10)


def _cells_by_level(level: int):
    """For l in 1..level: list of (corner addrs, midpoint addrs) of all (l-1)-cells."""
    out = []
    for l in range(1, level + 1):
        cells = []
        for word in cell_words(l - 1):
            corners = tuple(VertexAddress.make(word, c) for c in (0, 1, 2))
            mids = (VertexAddress.make(word + (0,), 1),   # between corners 0,1
                    VertexAddress.make(word + (0,), 2),   # between corners 0,2
                    VertexAddress.make(word + (1,), 2))   # between corners 1,2
            cells.append((corners, mids))
        out.append(cells)
    return out


def dirichlet_solve(level: int, boundary, load) -> FieldOnGrid:
    """Exact solution of the level-`level` discrete Dirichlet problem.

    `boundary` holds the three corner values; `load` maps each vertex address
    to the right-hand side of its interior equation (boundary loads ignored).
    """
    grid = build_grid(level)
    by_level = _cells_by_level(level)
    loads: dict[VertexAddress, object] = {v: load(v) for v in grid.vertices}
    level_loads = [loads]
    for l in range(level, 0, -1):
        cells = by_level[l - 1]
        reduced: dict[VertexAddress, object] = {}
        for (corners, _mids) in cells:
            for c in corners:
                if c not in reduced:
                    reduced[c] = _FIVE_THIRDS * loads[c]
        for (corners, mids) in cells:
            b01, b02, b12 = loads[mids[0]], loads[mids[1]], loads[mids[2]]
            reduced[corners[0]] += _TWO_THIRDS * (b01 + b02) + _THIRD * b12
            reduced[corners[1]] += _TWO_THIRDS * (b01 + b12) + _THIRD * b02
            reduced[corners[2]] += _TWO_THIRDS * (b02 + b12) + _THIRD * b01
        loads = reduced
        level_loads.append(loads)
    level_loads.reverse()  # level_loads[l] now holds the level-l system's loads

    values: dict[VertexAddress, object] = {
        VertexAddress.make((), c): Rat(boundary[c]) for c in (0, 1, 2)}
    for l in range(1, level + 1):
        b_l = level_loads[l]
        for (corners, mids) in by_level[l - 1]:
            a0, a1, a2 = (values[c] for c in corners)
            b01, b02, b12 = b_l[mids[0]], b_l[mids[1]], b_l[mids[2]]
            values[mids[0]] = ((2 * a0 + 2 * a1 + a2) * _FIFTH
                               + _THREE_TENTHS * b01 + _TENTH * (b02 + b12))
            values[mids[1]] = ((2 * a0 + 2 * a2 + a1) * _FIFTH
                               + _THREE_TENTHS * b02 + _TENTH * (b01 + b12))
            values[mids[2]] = ((2 * a1 + 2 * a2 + a0) * _FIFTH
                               + _THREE_TENTHS * b12 + _TENTH * (b01 + b02))
    return FieldOnGrid(grid, [values[v] for v in grid.vertices])


def residual_check(field: FieldOnGrid, load) -> bool:
    """Verify every interior equation of the discrete system exactly."""
    grid = field.grid
    boundary = set(grid.boundary_indices())
    for i, v in enumerate(grid.vertices):
        if i in boundary:
            continue
        acc = ZERO
        for j in grid.adjacency[i]:
            acc += field.values[i] - field.values[j]
        if acc != load(v):
            return False
    return True


def eval_poly_grid(f: Poly, m: int, solve_level: int | None = None) -> FieldOnGrid:
    """Convergent evaluation of a polynomial on the level-m grid.

    Solves the collocation chain at `solve_level` (default m + 2: the
    oversampled solution restricted to level m is markedly more accurate) and
    restricts.  Harmonic polynomials come out exact; for higher degrees the
    values converge to the true ones as solve_level grows.
    """
    if f.base_point != 0 and f.coeffs:
        raise ValueError("grid evaluation requires base point 0")
    if solve_level is None:
        solve_level = m + 2
    if solve_level < m:
        raise ValueError("solve level must be at least the output level")
    chain = [f]
    while chain[-1].degree > 0:
        chain.append(chain[-1].laplacian())
    top = chain[-1]
    field = harmonic_extend([top.boundary_value(v) for v in (0, 1, 2)], solve_level)
    scale = -_TWO_THIRDS * Rat(1, 5**solve_level)
    grid = build_grid(solve_level)
    for layer in reversed(chain[:-1]):
        rhs_values = field.values

        def load(v, _idx=grid.index, _vals=rhs_values):
            return scale * _vals[_idx[v]]

        field = dirichlet_solve(
            solve_level, [layer.boundary_value(v) for v in (0, 1, 2)], load)
    return field.restrict(m) if m < solve_level else field


def spine_discrepancy(f: Poly, max_depth: int, solve_level: int):
    """Max |grid value - exact| over spine vertices of depth <= max_depth."""
    field = eval_poly_grid(f, max_depth, solve_level)
    worst = ZERO
    for depth in range(max_depth + 1):
        for target in (1, 2):
            approx = field.value_at(spine_address(depth, target))
            err = abs(approx - f.eval_spine(depth, target))
            if err > worst:
                worst = err
    return worst
