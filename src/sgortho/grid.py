"""Level-m graph approximations of the gasket and exact fields on them.

The level-m graph has the 3(3^m+1)/2 canonical vertices of all m-cells, two
vertices being adjacent exactly when they share an m-cell.  Fields store one
exact rational per vertex; decimal output is a rendering choice only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import product

from .addresses import VertexAddress
from .errors import ConsistencyError
from .poly import Poly
from .rationals import ZERO, Rat, rat_decimal

_SQRT3 = Rat(1732050807568877293527446341505872366943, 10**39)  # sqrt(3) to 39 digits


def cell_words(m: int):
    """All length-m cell words in lexicographic order."""
    return product((0, 1, 2), repeat=m)


def cell_vertices(word) -> tuple[VertexAddress, VertexAddress, VertexAddress]:
    return tuple(VertexAddress.make(word, c) for c in (0, 1, 2))


@dataclass
class LevelGrid:
    """Vertices, adjacency and exact planar coordinates of a level-m graph."""

    m: int
    vertices: list[VertexAddress]
    index: dict[VertexAddress, int]
    adjacency: list[list[int]]

    def coords(self, i: int) -> tuple:
        return self.vertices[i].point()

    def boundary_indices(self) -> list[int]:
        return [self.index[VertexAddress.make((), c)] for c in (0, 1, 2)]


_grid_cache: dict[int, LevelGrid] = {}


def build_grid(m: int) -> LevelGrid:
    """Canonical level-m grid; vertices sorted lexicographically (cached).

    The sort key (word, corner) is the dataclass ordering of VertexAddress,
    without its per-comparison overhead.  Distinct m-cells share no edge, so
    each cell adds its three edges once.
    """
    if m < 0:
        raise ValueError("level must be >= 0")
    if m in _grid_cache:
        return _grid_cache[m]
    cells = [cell_vertices(word) for word in cell_words(m)]
    vertices = sorted({v for vs in cells for v in vs},
                      key=lambda v: (v.word, v.corner))
    index = {v: i for i, v in enumerate(vertices)}
    adjacency: list[list[int]] = [[] for _ in vertices]
    for vs in cells:
        i, j, k = (index[v] for v in vs)
        adjacency[i] += (j, k)
        adjacency[j] += (i, k)
        adjacency[k] += (i, j)
    for lst in adjacency:
        lst.sort()
    grid = LevelGrid(m=m, vertices=vertices, index=index, adjacency=adjacency)
    _grid_cache[m] = grid
    return grid


@dataclass
class FieldOnGrid:
    """Exact rational values attached to every vertex of a level grid.

    Either the exact values of a polynomial (`multiharmonic_extend`) or the
    exact solution of a collocation problem (the solver), whose only error is
    the discretization of the continuous operator, never roundoff.
    """

    grid: LevelGrid
    values: list

    def __post_init__(self):
        if len(self.values) != len(self.grid.vertices):
            raise ValueError("value array length must match the grid")

    def value_at(self, addr: VertexAddress):
        return self.values[self.grid.index[addr]]

    def restrict(self, m: int) -> "FieldOnGrid":
        """Restriction to the coarser level-m grid (m <= own level)."""
        if m > self.grid.m:
            raise ValueError("can only restrict to a coarser level")
        coarse = build_grid(m)
        return FieldOnGrid(coarse, [self.value_at(v) for v in coarse.vertices])

    def max_abs(self):
        return max((abs(v) for v in self.values), default=ZERO)

    def csv_rows(self, digits: int = 12):
        """Rows (address, x, y, value) with deterministic decimal rendering."""
        for i, v in enumerate(self.grid.vertices):
            x, r = v.point()
            yield (str(v), rat_decimal(x, digits), rat_decimal(r * _SQRT3, digits),
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
            det = x2 * y3 - x3 * y2
            w, v = (r2 * y3 - r3 * y2) / det, (x2 * r3 - x3 * r2) / det
            if w * x1 + v * y1 != r1:
                raise ConsistencyError(f"midpoint rule of order {t} misses P_({t},1)")
            _weights.append((w, v))
        return _weights[s]


def _cell_weights(level: int, degree: int) -> list:
    """(w_s, v_s) / 5^(s*level): the rule inside a level-`level` cell."""
    return [tuple(x / 5 ** (s * level) for x in midpoint_weights(s))
            for s in range(degree + 1)]


def _midpoint(a, b, c, weights) -> tuple:
    """Iterated Laplacian data at the midpoint of corners a, b (c opposite)."""
    ab = [x + y for x, y in zip(a, b)]
    return tuple(sum(w * x + v * y for (w, v), x, y in zip(weights, ab[t:], c[t:]))
                 for t in range(len(a)))


def _split(corners, weights) -> tuple:
    """Corner data of the three subcells of a cell with corner data `corners`."""
    a0, a1, a2 = corners
    m01 = _midpoint(a0, a1, a2, weights)
    m02 = _midpoint(a0, a2, a1, weights)
    m12 = _midpoint(a1, a2, a0, weights)
    return (a0, m01, m02), (m01, a1, m12), (m02, m12, a2)


def vertex_data(data, addr: VertexAddress) -> tuple:
    """Exact iterated Laplacian data at one vertex, from the corner data
    `data` = (L_q0, L_q1, L_q2), by descending the cells of its word."""
    corners = data
    for level, letter in enumerate(addr.word):
        corners = _split(corners, _cell_weights(level, len(corners[0]) - 1))[letter]
    return corners[addr.corner]


def multiharmonic_extend(data, m: int) -> FieldOnGrid:
    """Exact values on the level-m grid of the polynomial with corner data
    `data` = (L_q0, L_q1, L_q2), each L listing Lap^s u(q) for s <= degree."""
    grid = build_grid(m)
    values: list = [None] * len(grid.vertices)
    degree = len(data[0]) - 1
    weights = [_cell_weights(level, degree) for level in range(m)]

    def fill(word, corners):
        if len(word) == m:
            for c in range(3):
                values[grid.index[VertexAddress.make(word, c)]] = corners[c][0]
            return
        for letter, sub in enumerate(_split(corners, weights[len(word)])):
            fill(word + (letter,), sub)

    fill((), data)
    return FieldOnGrid(grid, values)


def harmonic_extend(boundary, m: int) -> FieldOnGrid:
    """Exact harmonic extension of three corner values to the level-m grid:
    the degree-0 case of `multiharmonic_extend`, where every midpoint takes
    (2a+2b+c)/5 of the corner values (a, b adjacent, c opposite)."""
    return multiharmonic_extend([(Rat(v),) for v in boundary], m)


EDGE_LETTERS = {"bottom": (1, 2), "left": (0, 1), "right": (0, 2)}


def restrict_edge(field: FieldOnGrid, edge: str):
    """Values along one boundary edge, ordered by position.

    Returns [(t, value)] where t is the exact dyadic parameter from the first
    edge corner to the second; a level-m field yields 2^m + 1 points.
    """
    letters = EDGE_LETTERS.get(edge)
    if letters is None:
        raise ValueError(f"edge must be one of {sorted(EDGE_LETTERS)}, got {edge!r}")
    i, j = letters
    allowed = {i, j}
    rows = []
    for idx, v in enumerate(field.grid.vertices):
        if v.corner in allowed and all(c in allowed for c in v.word):
            t = Rat(0)
            scale = Rat(1)
            for letter in v.word:
                if letter == j:
                    t += scale / 2
                scale /= 2
            if v.corner == j:
                t += scale
            rows.append((t, field.values[idx]))
    rows.sort(key=lambda r: r[0])
    return rows


def count_sign_changes(values, zero_threshold=Rat(1, 10**30)):
    """Sign changes along a sequence, skipping values below the zero threshold.

    `zero_threshold` is a non-negative rational: an entry v with
    |v| <= zero_threshold counts as an exact zero (a negative threshold would
    give exact zeros the sign -1).  Returns (changes, zeros): strict sign
    alternations between consecutive surviving entries, and the count of
    entries treated as exact zeros.
    High-multiplicity zeros are outside this count's contract; near-zero
    plateaus show up in `zeros` instead.
    """
    signs = []
    zeros = 0
    for v in values:
        if abs(v) <= zero_threshold:
            zeros += 1
        else:
            signs.append(1 if v > 0 else -1)
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return changes, zeros
