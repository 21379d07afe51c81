"""Level-m graph approximations of the gasket and exact fields on them.

The level-m graph has the n_m = 3(3^m+1)/2 canonical vertices of all
m-cells.  Fields store one exact rational per vertex; decimal output is a
rendering choice only.

Numbering.  This module alone fixes the vertex order.  Vertices are numbered
hierarchically: the level-l vertices are the prefix [0, n_l) with n_0 = 3
(the corners q0, q1, q2) and n_l = n_{l-1} + 3^l, because the (l-1)-cell
with word index j owns the level-l midpoints n_{l-1} + 3j + (0, 1, 2),
between its corners (0, 1), (0, 2) and (1, 2).  `_corner_table` derives the
corner indices of every level-l cell from those of level l-1 and memoizes
them under a lock; they are plain ints.  Vertex i of a level-m field is
`values[i]`, and restricting a field to a coarser level is taking a prefix.
Addresses and planar coordinates are made only on demand: for a lookup
(`FieldOnGrid.value_at`), a load callback (`LevelGrid.vertices`) or the
walk (`_walk`, in address order).

Exact polynomial values.  A polynomial u of degree J is fixed by its
iterated Laplacian data Lap^t u (t <= J) at the three corners, and the
exact midpoint rule (`midpoint_weights`) gives the data at each midpoint of
a level-l cell from the data at its corners, with the pairs (w_s, v_s)
scaled by 5^(-s l).  One walk, `_walk`, applies a midpoint rule cell by
cell, depth first in address order, and yields each vertex with its index,
address, position and value.  `multiharmonic_extend` runs it with this
exact rule, `solver.eval_poly_grid` with the collocation rule of each cell
depth (the scaled layers and the depth recursion are in the solver's module
docstring), and `FieldOnGrid.csv_rows` with no layers.  Planar coordinates
are dyadic ints; y carries a factor sqrt(3) and is rendered, correctly
rounded, by `isqrt`.
"""

from __future__ import annotations

import threading
from itertools import accumulate, product
from math import isqrt
from operator import add, mul

from .addresses import VertexAddress
from .errors import ConsistencyError
from .linalg import solve_exact
from .poly import Poly
from .rationals import (ZERO, Rat, over_common_denominator, rat_decimal,
                        ratio_decimal)


def cell_words(m: int):
    """All length-m cell words in lexicographic order."""
    return product((0, 1, 2), repeat=m)


def _vertex_count(level: int) -> int:
    """n_level = 3(3^level + 1)/2, the size of the level-`level` prefix."""
    return 3 * (3**level + 1) // 2


_corner_tables: list[list[tuple[int, int, int]]] = [[(0, 1, 2)]]
_corner_tables_lock = threading.Lock()  # extension appends by index


def _corner_table(level: int) -> list[tuple[int, int, int]]:
    """Corner indices of the level-`level` cells in word order (memoized)."""
    with _corner_tables_lock:
        while len(_corner_tables) <= level:
            first = _vertex_count(len(_corner_tables) - 1)
            cells = []
            for a0, a1, a2 in _corner_tables[-1]:
                m01, m02, m12 = first, first + 1, first + 2
                cells += ((a0, m01, m02), (m01, a1, m12), (m02, m12, a2))
                first += 3
            _corner_tables.append(cells)
        return _corner_tables[level]


class LevelGrid:
    """The level-m graph, its vertices numbered as in the module docstring.
    Immutable, equal and hashed by its level."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to LevelGrid.{name}")

    def __eq__(self, other):
        if other.__class__ is not LevelGrid:
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self) -> str:
        return f"LevelGrid({self.m!r})"

    @property
    def vertices(self) -> list[VertexAddress]:
        """The canonical addresses of vertices 0 .. n_m - 1 (built per call)."""
        out = [VertexAddress((), c) for c in (0, 1, 2)]
        for level in range(self.m):
            for word in cell_words(level):
                # the midpoints (0, 1), (0, 2), (1, 2) of cell `word`, canonical
                out += (VertexAddress(word + (0,), 1), VertexAddress(word + (0,), 2),
                        VertexAddress(word + (1,), 2))
        return out


def build_grid(m: int) -> LevelGrid:
    """The level-m grid."""
    if m < 0:
        raise ValueError("level must be >= 0")
    return LevelGrid(m)


class FieldOnGrid:
    """Exact rational values attached to every vertex of a level grid.

    Either the exact values of a polynomial (`multiharmonic_extend`, the
    integer form of the midpoint rule) or the exact values of the solution
    of a collocation problem (the solver), whose only error is the
    discretization of the continuous operator, never roundoff.  `values[i]`
    belongs to vertex i of the module's numbering; a single vertex is read
    by address with `value_at`.
    """

    def __init__(self, grid: LevelGrid, values: list):
        if len(values) != _vertex_count(grid.m):
            raise ValueError("value array length must match the grid")
        self.grid = grid
        self.values = values

    def value_at(self, addr: VertexAddress):
        """The value at a canonical address of level <= the field's level."""
        word = addr.word
        if len(word) > self.grid.m:
            raise ValueError(f"address {addr} has level {len(word)}, finer than "
                             f"the level-{self.grid.m} field")
        if not word:
            return self.values[addr.corner]
        if word[-1] == addr.corner:
            raise ValueError(f"address {addr} is not canonical")
        j = 0  # the word index of the cell word[:-1]
        for letter in word[:-1]:
            j = 3 * j + letter
        pair = word[-1] + addr.corner - 1  # midpoint (0, 1), (0, 2) or (1, 2)
        return self.values[_vertex_count(len(word) - 1) + 3 * j + pair]

    def max_abs(self):
        return max((abs(v) for v in self.values), default=ZERO)

    def csv_rows(self, digits: int):
        """Rows (address, x, y, value) in address order, with deterministic
        decimal rendering to `digits` fractional digits (no default: `eval`
        passes its --digits)."""
        m = self.grid.m
        den = 2 ** (m + 1)
        scale = 10**digits
        for i, addr, x, r, _ in _walk(((), (), ()), m, _exact_rule):
            # y = r sqrt(3) / den, rounded to nearest (never a tie): 2 y scale
            # is sqrt(12 r^2 scale^2) / den, floored exactly by isqrt
            y = (isqrt(12 * (r * scale) ** 2) // den + 1) // 2
            yield (addr, ratio_decimal(x, den, digits),
                   ratio_decimal(y, scale, digits),
                   rat_decimal(self.values[i], digits))


_weights: list[tuple] = []
_weights_lock = threading.Lock()  # extension appends by index


def midpoint_weights(s: int) -> tuple:
    """The pair (w_s, v_s) of the exact midpoint rule, fitted once per s.

    With L_x[s] = Lap^s u(x), a polynomial u takes the value
    sum_s w_s (L_a[s] + L_b[s]) + v_s L_c[s] at the midpoint of corners a, b
    (c opposite): iterated Dirichlet data fix u, and the reflection swapping
    a and b fixes the midpoint.  (w_s, v_s) solves the k=2,3 equations for
    P_{s,k} at F_0(q1) exactly; the k=1 one must then hold too.  Inside an
    n-cell Lap^s(u o F_w) = 5^(-sn) (Lap^s u) o F_w scales the pair.
    (w_0, v_0) = (2/5, 1/5) is the harmonic rule.
    """
    with _weights_lock:
        while len(_weights) <= s:
            t = len(_weights)
            rows = []
            for k in (1, 2, 3):
                mono = Poly.monomial(t, k)
                a, b, c = mono.dirichlet_data()
                lower = sum((w * (a[i] + b[i]) + v * c[i]
                             for i, (w, v) in enumerate(_weights)), ZERO)
                rows.append((a[t] + b[t], c[t], mono.eval_spine(1, 1) - lower))
            (x1, y1, r1), (x2, y2, r2), (x3, y3, r3) = rows
            w, v = solve_exact([[x2, y2], [x3, y3]], [r2, r3])
            if w * x1 + v * y1 != r1:
                raise ConsistencyError(f"midpoint rule of order {t} misses P_({t},1)")
            _weights.append((w, v))
        return _weights[s]


def _walk(data, m: int, rule):
    """Every level-m vertex as (index, address, x, r, value), in address order.

    `data` = (L_q0, L_q1, L_q2) lists layers 0..J at each corner.  The cells
    are visited depth first in word order, the cell p+(a,) right after its
    canonical addresses p+(a,).c with c > a, the (a, c) midpoints of cell p.
    At level l, `rule(l, J + 1)` = (d_l, ws, vs) gives layer t at the
    midpoint of corners a, b (c opposite) of a level-l cell as
    sum_r (ws[r] (a + b)[t + r] + vs[r] c[t + r]) / d_l.  Layers are ints
    over one denominator per level, D_0 the lcm of the corner data and
    D_{l+1} = D_l d_l: a level-l cell makes its midpoints over D_{l+1} and
    scales each corner it hands to a child by d_l.  The last level computes
    layer 0 only; each value is one rational, or None when J = -1 (no
    layers: addresses and positions only).  Positions (x, r) are ints over
    2^(m+1) with y = r sqrt(3).  The stack holds three cells per level.
    """
    size = len(data[0])
    den, ints = over_common_denominator(x for lap in data for x in lap)
    rules = [rule(level, size) for level in range(m)]
    dens = list(accumulate((d for d, _, _ in rules), mul, initial=den))
    h = 2**m
    corners = [(ints[c * size:(c + 1) * size], x, r)
               for c, x, r in ((0, h, h), (1, 0, 0), (2, 2 * h, 0))]
    for c, (lap, x, r) in enumerate(corners):
        yield c, f"e.{c}", x, r, Rat(lap[0], den) if size else None
    stack = [("", 0, 0, corners, None)] if m else []
    while stack:
        word, j, level, cell, row = stack.pop()
        if row:
            yield row
        d, ws, vs = rules[level]
        last = level == m - 1
        layers = min(size, 1) if last else size
        first = _vertex_count(level) + 3 * j - 1
        mids = []
        for p, q in ((0, 1), (0, 2), (1, 2)):
            (a, xa, ra), (b, xb, rb), c = cell[p], cell[q], cell[3 - p - q][0]
            ab = list(map(add, a, b))
            lap = [sum(map(mul, ws, ab[t:])) + sum(map(mul, vs, c[t:]))
                   for t in range(layers)]
            x, r = (xa + xb) // 2, (ra + rb) // 2
            mids.append((lap, x, r))
            row = (first + p + q, f"{word}{p}.{q}", x, r,
                   Rat(lap[0], dens[level + 1]) if lap else None)
            if last or p == 0:
                yield row
        if not last:  # the (1, 2) midpoint `row` follows the subtree of child 0
            v0, v1, v2 = (([d * t for t in lap], x, r) for lap, x, r in cell)
            m01, m02, m12 = mids
            level += 1
            stack += ((word + "2", 3 * j + 2, level, (m02, m12, v2), None),
                      (word + "1", 3 * j + 1, level, (m01, v1, m12), row),
                      (word + "0", 3 * j, level, (v0, m01, m02), None))


def _descend(data, m: int, rule) -> FieldOnGrid:
    """The level-m field of the walk's values, written by vertex index."""
    values = [None] * _vertex_count(m)
    for i, _, _, _, value in _walk(data, m, rule):
        values[i] = value
    return FieldOnGrid(build_grid(m), values)


def _exact_rule(level: int, size: int) -> tuple:
    """The midpoint rule of the level-`level` cells: the pairs (w_s, v_s)
    scaled by 5^(-s level), over one denominator."""
    d, rule = over_common_denominator(x / 5 ** (s * level) for s in range(size)
                                      for x in midpoint_weights(s))
    return d, rule[0::2], rule[1::2]


def multiharmonic_extend(data, m: int) -> FieldOnGrid:
    """Exact values on the level-m grid of the polynomial with corner data
    `data` = (L_q0, L_q1, L_q2), each L listing Lap^s u(q) for s <= degree."""
    return _descend(data, m, _exact_rule)


def harmonic_extend(boundary, m: int) -> FieldOnGrid:
    """Exact harmonic extension of three corner values to the level-m grid:
    the degree-0 case of `multiharmonic_extend`, where every midpoint takes
    (2a+2b+c)/5 of the corner values (a, b adjacent, c opposite)."""
    return multiharmonic_extend([(Rat(v),) for v in boundary], m)


EDGE_LETTERS = {"bottom": (1, 2), "left": (0, 1), "right": (0, 2)}


def restrict_edge(field: FieldOnGrid, edge: str) -> list:
    """Values along one boundary edge, from its first corner to its second;
    a level-m field yields 2^m + 1 of them."""
    letters = EDGE_LETTERS.get(edge)
    if letters is None:
        raise ValueError(f"edge must be one of {sorted(EDGE_LETTERS)}, got {edge!r}")
    i, j = letters
    path = [i, j]  # vertex indices along the edge
    cells = [0]  # word indices of the level-l cells on the edge, in edge order
    for level in range(field.grid.m):
        first = _vertex_count(level) + i + j - 1  # the (i, j) midpoint of cell 0
        path = [v for c, a in zip(cells, path) for v in (a, first + 3 * c)] + [j]
        cells = [3 * c + s for c in cells for s in (i, j)]
    return [field.values[v] for v in path]


def count_sign_changes(values):
    """Sign changes along a sequence of exact values, skipping its zeros.

    Returns (changes, zeros): strict sign alternations between consecutive
    nonzero entries, and the count of entries equal to 0.  Every value is an
    exact rational, so a zero is `v == 0` and no tolerance applies.
    High-multiplicity zeros between the entries are outside this count's
    contract.
    """
    signs = []
    zeros = 0
    for v in values:
        if v == 0:
            zeros += 1
        else:
            signs.append(1 if v > 0 else -1)
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return changes, zeros
