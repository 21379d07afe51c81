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
rendering (`FieldOnGrid.csv_rows`, in address order).

Exact polynomial values.  A polynomial u of degree J is fixed by its
iterated Laplacian data Lap^t u (t <= J) at the three corners, and the
exact midpoint rule (`midpoint_weights`) gives the data at each midpoint of
a level-l cell from the data at its corners, with the pairs (w_s, v_s)
scaled by 5^(-s l).  One descent kernel, `_descend`, applies a midpoint rule
level by level to layered corner data; `multiharmonic_extend` gives it this
exact rule, and `solver.eval_poly_grid` the collocation rule of each cell
depth (the scaled layers and the depth recursion are in the solver's module
docstring).  Integer form.  The kernel keeps every vertex's layers as ints
over one running denominator D, starting from the corner data over their
lcm.  At level l the rule comes over one denominator d_l; the midpoints
are computed from the unscaled corner ints, so they are over D d_l, and
the prefix [0, n_l) is then multiplied by d_l and D by d_l.  The last
level computes layer 0 only.  Nothing is reduced until the level-m values
become rationals, one reduction each.  Planar coordinates are dyadic ints; y
carries a factor sqrt(3) and is rendered, correctly rounded, by `isqrt`.
"""

from __future__ import annotations

import threading
from itertools import product
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


def _coordinates(m: int) -> tuple[list[int], list[int]]:
    """Planar positions (x, r) of the level-m vertices as ints over 2^(m+1),
    with y = r*sqrt(3): each midpoint is the mean of its two corners."""
    h = 2**m
    xs, rs = [h, 0, 2 * h], [h, 0, 0]
    for level in range(m):
        for a0, a1, a2 in _corner_table(level):
            for p, q in ((a0, a1), (a0, a2), (a1, a2)):
                xs.append((xs[p] + xs[q]) // 2)
                rs.append((rs[p] + rs[q]) // 2)
    return xs, rs


def _address_order(m: int) -> list[tuple[int, str]]:
    """(vertex index, address) of the level-m vertices in address order.

    A preorder walk of the words, each word's corners in order: the word
    p+(a,) carries the canonical addresses with corners c > a, which are the
    (a, c) midpoints n_{|p|} + 3 index(p) + a + c - 1 of cell p.
    """
    rows = [(c, f"e.{c}") for c in (0, 1, 2)]

    def visit(word: str, j: int, level: int) -> None:
        first = _vertex_count(level) + 3 * j
        for a in (0, 1, 2):
            child = word + str(a)
            rows.extend((first + a + c - 1, f"{child}.{c}") for c in range(a + 1, 3))
            if level + 1 < m:
                visit(child, 3 * j + a, level + 1)

    if m:
        visit("", 0, 0)
    return rows


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
        xs, rs = _coordinates(m)
        den = 2 ** (m + 1)
        scale = 10**digits
        for i, addr in _address_order(m):
            # y = r sqrt(3) / den, rounded to nearest (never a tie): 2 y scale
            # is sqrt(12 r^2 scale^2) / den, floored exactly by isqrt
            y = (isqrt(12 * (rs[i] * scale) ** 2) // den + 1) // 2
            yield (addr, ratio_decimal(xs[i], den, digits),
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


def _descend(data, m: int, rule) -> FieldOnGrid:
    """Layer 0 on the level-m grid of layered corner data, level by level.

    `data` = (L_q0, L_q1, L_q2) lists layers 0..J at each corner.  At level
    l, `rule(l, J + 1)` = (d, ws, vs) gives layer t at the midpoint of
    corners a, b (c opposite) of every level-l cell as
    sum_r (ws[r] (a + b)[t + r] + vs[r] c[t + r]) / d.  The last level needs
    layer 0 only, so only layer 0 is computed there.
    """
    size = len(data[0])
    den, ints = over_common_denominator(x for lap in data for x in lap)
    # laps[i][t] / den is layer t at vertex i
    laps = [ints[i:i + size] for i in range(0, len(ints), size)]
    for level in range(m):
        d, ws, vs = rule(level, size)
        layers = 1 if level == m - 1 else size
        for a0, a1, a2 in _corner_table(level):
            x0, x1, x2 = laps[a0], laps[a1], laps[a2]
            for a, b, c in ((x0, x1, x2), (x0, x2, x1), (x1, x2, x0)):
                ab = list(map(add, a, b))
                laps.append([sum(map(mul, ws, ab[t:])) + sum(map(mul, vs, c[t:]))
                             for t in range(layers)])
        n = _vertex_count(level)
        laps[:n] = [[d * x for x in lap[:layers]] for lap in laps[:n]]
        den *= d
    return FieldOnGrid(build_grid(m), [Rat(lap[0], den) for lap in laps])


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
