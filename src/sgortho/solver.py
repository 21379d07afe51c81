"""Exact collocation on level grids: the Dirichlet solver and grid evaluation.

The collocation discretization of Lap(u) = g at level L reads, for every
interior vertex z (degree 4),

    sum_{y ~ z} (u(z) - u(y)) = -(2/3) 5^{-L} g(z),

with the three corner values prescribed.

dirichlet_solve solves it exactly for any load.  The vertices new at level l
are interior to a unique (l-1)-cell and couple only within it, so they can
be eliminated cell by cell.  The local matrix is 5I - ones(3,3) with inverse
I/5 + ones/10, giving

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

eval_poly_grid collocates the Laplacian chain of a degree-J polynomial f:
the layer u_J is harmonic, and each u_t (t < J) solves the system above
with g = u_{t+1} and the corners Lap^t f(q_i).  With beta = -2/(3 5^L) the
scaled layers U_t = beta^t u_t satisfy (graph Laplacian of U_t) = U_{t+1},
with U_J harmonic and corners beta^t Lap^t f(q_i): L has left the equations.
Cells meet only at their corners, so inside a cell the level-L solution is
fixed by the layers at its corners, and by the same rule in every cell of
the same depth d (a level-n cell has depth L - n).  Layer t at the midpoint
of corners a, b (c opposite) is

    U_t = sum_r W_r (a + b)_{t+r} + V_r c_{t+r},

and eliminating the cell's interior leaves a triangle of unit edges (its
equations times (5/3)^d) and adds

    sum_r S_r a_{t+1+r} + T_r (b + c)_{t+1+r}

to the load of corner a.  So the level-m values follow from a walk over
V_m alone, `grid._walk`, which `multiharmonic_extend` runs with the exact
rule; here it runs with the depth-(L - n) rule at level n.

Depth recursion.  Write each rule as a series in q, the layer offset
(W = sum_r W_r q^r), starting from S = T = 0 at depth 0.  A depth-d cell is
three depth-(d-1) cells around three midpoints; eliminating their interiors
leaves the level-1 system of the midpoints with the loads P (own value) and
Q (each of its four neighbours),

    P = q ((5/3)^(d-1) + 2 S'),  Q = q T'   (primes: depth d-1),

and the one-level elimination and back-substitution above give, with
alpha = P W + Q (1 + W + V) and gamma = P V + 2 Q W,

    W = 2/5 + (4 alpha + gamma)/10,       V = 1/5 + (2 alpha + 3 gamma)/10,
    S = (5/3)(S' + 2 T' W) + (4 alpha + gamma)/(3q),
    T = (5/3) T' (W + V) + (3 alpha + 2 gamma)/(3q).

P and Q start at q, so coefficient r of W and V uses only lower ones.
Integer form (`depth_rules`): w_r = 5 10^r W_r and v_r = 5 10^r V_r, and
s_r, t_r are S_r, T_r times 3^d 5 10^r.  With p_i = 5^d [i = 1] + 2 s'_{i-1}
and q_i = t'_{i-1}, for r >= 1

    a_r = sum_{i=1..r} p_i w_{r-i} + q_i (w_{r-i} + v_{r-i} + 5 [i = r]),
    g_r = sum_{i=1..r} p_i v_{r-i} + 2 q_i w_{r-i},
    w_r = (4 a_r + g_r) / (5 3^(d-1)),   v_r = (2 a_r + 3 g_r) / (5 3^(d-1)),
    s_r = 5 s'_r + 2 sum_j t'_j w_{r-j} + (4 a_{r+1} + g_{r+1}) / 5,
    t_r = sum_j t'_j (w_{r-j} + v_{r-j}) + (3 a_{r+1} + 2 g_{r+1}) / 5,

from w_0 = 2, v_0 = 1.  The divisions are exact: the denominators of W_r
and V_r divide 2^r 5^(r+1), and those of S_r and T_r 3^d 2^r 5^(r+1) (the
tests compare the recursion with Fraction arithmetic to depth 10 and order
8 and run it to depth 30 and order 30); a remainder raises
ConsistencyError.  The rules are memoized per depth and extended in r.
They cost O(L J^2) int operations and the walk O(3^m J^2) for output
level m, so the solve level enters only through the rules.  The level-m
values become rationals, one reduction each.  Repeated runs are
bit-identical, and the only error against the continuous problem is the
collocation residual itself.
"""

from __future__ import annotations

import threading
from math import gcd, lcm

from .errors import ConsistencyError
from .grid import FieldOnGrid, _corner_table, _descend, _vertex_count, build_grid
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


_rules: list[tuple[list[int], list[int], list[int], list[int]]] = [([], [], [], [])]
_rules_lock = threading.Lock()  # extension appends by index


def _exact_quotient(x: int, y: int) -> int:
    q, r = divmod(x, y)
    if r:
        raise ConsistencyError(f"a depth-rule division by {y} leaves {r}")
    return q


def depth_rules(depth: int, size: int) -> tuple:
    """The integer rules (w, v, s, t) of the depth-`depth` cells to order
    size - 1 (module docstring): W_r = w[r] / (5 10^r), V_r likewise, and
    S_r = s[r] / (3^depth 5 10^r), T_r likewise.  Memoized per depth and
    extended in r; depth 0 (no interior) has no rules."""
    with _rules_lock:
        while len(_rules) <= depth:
            _rules.append(([], [], [], []))
        for d in range(1, depth + 1):
            w, v, s, t = _rules[d]
            s0, t0 = _rules[d - 1][2:] if d > 1 else ([0] * size,) * 2

            def sums(r):
                a = g = 0
                for k in range(r):
                    p = 2 * s0[r - k - 1] + (5**d if k == r - 1 else 0)
                    q = t0[r - k - 1]
                    a += p * w[k] + q * (w[k] + v[k] + (5 if k == 0 else 0))
                    g += p * v[k] + 2 * q * w[k]
                return a, g

            for r in range(len(w), size):
                if r == 0:
                    w.append(2)
                    v.append(1)
                else:
                    a, g = sums(r)
                    w.append(_exact_quotient(4 * a + g, 5 * 3 ** (d - 1)))
                    v.append(_exact_quotient(2 * a + 3 * g, 5 * 3 ** (d - 1)))
                a, g = sums(r + 1)
                s.append(5 * s0[r] + 2 * sum(t0[j] * w[r - j] for j in range(r + 1))
                         + _exact_quotient(4 * a + g, 5))
                t.append(sum(t0[j] * (w[r - j] + v[r - j]) for j in range(r + 1))
                         + _exact_quotient(3 * a + 2 * g, 5))
        return tuple(tuple(x[:size]) for x in _rules[depth])


def _collocation_rule(depth: int, size: int) -> tuple:
    """The depth rule (W_r, V_r) as the walk takes it: (d, ws, vs) over
    one reduced denominator d."""
    w, v, _, _ = depth_rules(depth, size)
    den = 5 * 10 ** (size - 1)
    ws = [x * 10 ** (size - 1 - r) for r, x in enumerate(w)]
    vs = [x * 10 ** (size - 1 - r) for r, x in enumerate(v)]
    g = gcd(den, *ws, *vs)
    return den // g, [x // g for x in ws], [x // g for x in vs]


def eval_poly_grid(f: Poly, m: int, solve_level: int | None = None) -> FieldOnGrid:
    """Convergent evaluation of a polynomial on the level-m grid.

    The level-m values of the collocation chain at `solve_level` (default
    m + 2: the oversampled solution restricted to level m is markedly more
    accurate), by the walk with the depth rules.  Harmonic polynomials
    come out exact; for higher degrees the values converge to the true ones
    as solve_level grows.
    """
    if solve_level is None:
        solve_level = m + 2
    if solve_level < m:
        raise ValueError("solve level must be at least the output level")
    beta = Rat(-2, 3 * 5**solve_level)
    data = [[beta**t * x for t, x in enumerate(lap)] for lap in f.dirichlet_data()]

    def rule(level, size):  # a level-n cell has depth solve_level - n
        return _collocation_rule(solve_level - level, size)
    return _descend(data, m, rule)
