"""Vertex addressing, level grids, the exact midpoint rule, the collocation solver."""

import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction as F
from functools import lru_cache

import pytest

from sgortho.addresses import VertexAddress, mapped, spine_address
from sgortho.coeffs import TABLE
from sgortho.errors import ConsistencyError
from sgortho.families import legendre
from sgortho.grid import (EDGE_LETTERS, _corner_table, _vertex_count,
                          build_grid, cell_words, count_sign_changes,
                          harmonic_extend, midpoint_weights,
                          multiharmonic_extend, restrict_edge)
from sgortho.poly import Poly
from sgortho.rationals import rat_decimal
from sgortho.solver import dirichlet_solve, eval_poly_grid

#: Planar corner coordinates as (x, r) with y = r*sqrt(3).
CORNER_XY = ((F(1, 2), F(1, 2)), (F(0), F(0)), (F(1), F(0)))


def _point(addr):
    """Exact planar position (x, r) of an address, one halving per letter:
    the oracle for the integer coordinates behind `csv_rows`."""
    x, r = CORNER_XY[addr.corner]
    for letter in reversed(addr.word):
        cx, cr = CORNER_XY[letter]
        x, r = (x + cx) / 2, (r + cr) / 2
    return x, r


def _y_decimal(r, digits):
    """r*sqrt(3) rounded half-even to `digits` places, by the decimal module
    at twice the needed precision: the oracle for the y column of `csv_rows`."""
    with localcontext() as ctx:
        ctx.prec = 2 * digits + 20
        y = Decimal(r.numerator) / Decimal(r.denominator) * Decimal(3).sqrt()
        y = y.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)
        return format(y, "f")


def _descent(data, addr):
    """Iterated Laplacian data at one vertex, by descending the cells of its
    word in Fraction arithmetic: the oracle for the integer kernel behind
    `multiharmonic_extend` (shared code: `midpoint_weights` only)."""
    corners = tuple(tuple(F(x) for x in lap) for lap in data)
    for level, letter in enumerate(addr.word):
        corners = _subcells(corners, level)[letter]
    return corners[addr.corner]


@lru_cache(maxsize=None)
def _subcells(corners, level):
    """Corner data of the three subcells of a level-`level` cell."""
    size = len(corners[0])
    rule = [tuple(x / 5 ** (s * level) for x in midpoint_weights(s))
            for s in range(size)]

    def mid(a, b, c):
        return tuple(sum(w * (a[t + s] + b[t + s]) + v * c[t + s]
                         for s, (w, v) in enumerate(rule[:size - t]))
                     for t in range(size))

    a0, a1, a2 = corners
    m01, m02, m12 = mid(a0, a1, a2), mid(a0, a2, a1), mid(a1, a2, a0)
    return (a0, m01, m02), (m01, a1, m12), (m02, m12, a2)


def _neighbours(m):
    """Neighbour lists of the level-m graph, from the cell tables: two
    vertices are adjacent exactly when they share an m-cell."""
    out = [[] for _ in range(_vertex_count(m))]
    for cell in _corner_table(m):
        for a in cell:
            out[a] += [b for b in cell if b != a]
    return out


def test_canonicalization_twins_and_padding():
    a = VertexAddress.make((0, 1), 2)
    b = VertexAddress.make((0, 2), 1)
    assert a == b
    assert VertexAddress.make((0, 1, 1, 1), 1) == VertexAddress.make((0,), 1)
    assert VertexAddress.make((0, 0, 0), 0) == VertexAddress.make((), 0)
    assert str(VertexAddress.make((), 1)) == "e.1"


def test_points_and_reflection():
    q0 = VertexAddress.make((), 0)
    assert _point(q0) == (F(1, 2), F(1, 2))
    m12 = VertexAddress.make((1,), 2)
    assert _point(m12) == (F(1, 2), F(0))
    assert m12.reflect() == m12
    m01 = VertexAddress.make((0,), 1)
    assert m01.reflect() == VertexAddress.make((0,), 2)
    # twins map to the same planar point
    assert _point(VertexAddress((0, 1), 2)) == _point(VertexAddress((0, 2), 1))


def test_spine_depth():
    assert spine_address(3, 1).spine_depth() == 3
    assert VertexAddress.make((1,), 2).spine_depth() is None
    assert VertexAddress.make((), 2).spine_depth() == 0


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_grid_sizes(m):
    grid = build_grid(m)
    assert len(grid.vertices) == 3 * (3**m + 1) // 2
    assert grid.vertices[:3] == [VertexAddress.make((), c) for c in (0, 1, 2)]
    for i, neigh in enumerate(_neighbours(m)):
        assert len(set(neigh)) == len(neigh) == (2 if i < 3 else 4)


@pytest.mark.parametrize("m", range(6))
def test_grid_vertex_order_is_the_address_order(m):
    # every vertex is numbered once, and the CSV rows equal the oracle
    # rendering: sorted canonical addresses, points by Fraction halvings, y
    # by the decimal module and values by descending the cells of each address
    addresses = sorted({VertexAddress.make(w, c)
                        for w in cell_words(m) for c in (0, 1, 2)})
    assert sorted(build_grid(m).vertices) == addresses
    data = Poly({(2, 1): F(3), (1, 2): F(-2), (1, 3): F(1, 2)}).dirichlet_data()
    expected = []
    for v in addresses:
        x, r = _point(v)
        expected.append((str(v), rat_decimal(x, 12), _y_decimal(r, 12),
                         rat_decimal(_descent(data, v)[0], 12)))
    assert list(multiharmonic_extend(data, m).csv_rows(12)) == expected


def test_grid_edges_m0():
    assert sum(len(n) for n in _neighbours(0)) // 2 == 3


def test_harmonic_extension_examples():
    h = harmonic_extend([0, F(-1, 2), F(-1, 2)], 2)
    assert h.value_at(VertexAddress.make((0,), 1)) == F(-3, 10)
    assert h.value_at(VertexAddress.make((1,), 2)) == F(-2, 5)
    const = harmonic_extend([F(3, 7)] * 3, 3)
    assert all(v == F(3, 7) for v in const.values)


def test_harmonic_extension_matches_scaling_oracle():
    # spine values of the harmonic monomials follow the exact scaling laws
    for k in (1, 2, 3):
        mono = Poly.monomial(0, k)
        h = harmonic_extend([TABLE.value(0, k, v) for v in (0, 1, 2)], 4)
        for depth in range(5):
            for target in (1, 2):
                assert h.value_at(spine_address(depth, target)) == \
                    mono.eval_spine(depth, target)


def test_harmonic_mean_value_identity():
    boundary = [F(2), F(-1, 3), F(4, 7)]
    exact = sum(boundary) / 3
    for m in range(4):
        h = harmonic_extend(boundary, m)
        total = F(0)
        for word in cell_words(m):
            vals = [h.value_at(VertexAddress.make(word, c)) for c in (0, 1, 2)]
            total += sum(vals) / 3
        assert total / 3**m == exact


def _residual_check(field, load) -> bool:
    """Verify every interior equation of the discrete system exactly: each
    cell adds its three edges to the sums at their ends."""
    x = field.values
    sums = [F(0)] * len(x)
    for a0, a1, a2 in _corner_table(field.grid.m):
        sums[a0] += 2 * x[a0] - x[a1] - x[a2]
        sums[a1] += 2 * x[a1] - x[a0] - x[a2]
        sums[a2] += 2 * x[a2] - x[a0] - x[a1]
    return all(s == load(v) for s, v in zip(sums[3:], field.grid.vertices[3:]))


def test_dirichlet_solve_unit_load():
    load = lambda v: F(-2, 15)
    u = dirichlet_solve(1, [0, 0, 0], load)
    mids = [u.value_at(VertexAddress.make((0,), 1)),
            u.value_at(VertexAddress.make((0,), 2)),
            u.value_at(VertexAddress.make((1,), 2))]
    assert mids == [F(-1, 15)] * 3
    assert _residual_check(u, load)


def test_dirichlet_solve_residuals_random_load():
    import random
    rng = random.Random(2)
    values = {}

    def load(v):
        if v not in values:
            values[v] = F(rng.randint(-20, 20), rng.randint(1, 9))
        return values[v]

    u = dirichlet_solve(3, [F(1), F(-2), F(1, 3)], load)
    assert _residual_check(u, load)
    assert u.value_at(VertexAddress.make((), 0)) == 1


def _fraction_dirichlet_solve(level, boundary, load):
    """Address-keyed Fraction elimination, cell by cell: the oracle for the
    integer kernel behind `dirichlet_solve` (same rule, no shared code)."""
    def cells(l):  # (corners, midpoints 01, 02, 12) of every (l-1)-cell
        return [(tuple(VertexAddress.make(w, c) for c in (0, 1, 2)),
                 (VertexAddress.make(w + (0,), 1), VertexAddress.make(w + (0,), 2),
                  VertexAddress.make(w + (1,), 2)))
                for w in cell_words(l - 1)]

    grid = build_grid(level)
    loads = {v: F(load(v)) for v in grid.vertices}
    level_loads = {level: loads}
    for l in range(level, 0, -1):
        reduced = {}
        for corners, _mids in cells(l):
            for c in corners:
                reduced.setdefault(c, F(5, 3) * loads[c])
        for (a0, a1, a2), (m01, m02, m12) in cells(l):
            b01, b02, b12 = loads[m01], loads[m02], loads[m12]
            reduced[a0] += F(2, 3) * (b01 + b02) + F(1, 3) * b12
            reduced[a1] += F(2, 3) * (b01 + b12) + F(1, 3) * b02
            reduced[a2] += F(2, 3) * (b02 + b12) + F(1, 3) * b01
        loads = level_loads[l - 1] = reduced
    values = {VertexAddress.make((), c): F(boundary[c]) for c in (0, 1, 2)}
    for l in range(1, level + 1):
        b = level_loads[l]
        for (a0, a1, a2), (m01, m02, m12) in cells(l):
            x0, x1, x2 = values[a0], values[a1], values[a2]
            b01, b02, b12 = b[m01], b[m02], b[m12]
            values[m01] = (2 * x0 + 2 * x1 + x2) / 5 + F(3, 10) * b01 + (b02 + b12) / 10
            values[m02] = (2 * x0 + 2 * x2 + x1) / 5 + F(3, 10) * b02 + (b01 + b12) / 10
            values[m12] = (2 * x1 + 2 * x2 + x0) / 5 + F(3, 10) * b12 + (b01 + b02) / 10
    return [values[v] for v in grid.vertices]


def _fraction_eval_poly_grid(f, m, solve_level):
    """The Laplacian chain on `_fraction_dirichlet_solve`, restricted to level m."""
    chain = [f]
    while chain[-1].degree > 0:
        chain.append(chain[-1].laplacian())
    vertices = build_grid(solve_level).vertices
    index = {v: i for i, v in enumerate(vertices)}
    values = harmonic_extend([chain[-1].boundary_value(c) for c in (0, 1, 2)],
                             solve_level).values
    scale = F(-2, 3 * 5**solve_level)
    for layer in reversed(chain[:-1]):
        prev = values
        values = _fraction_dirichlet_solve(
            solve_level, [layer.boundary_value(c) for c in (0, 1, 2)],
            lambda v: scale * prev[index[v]])
    return [values[index[v]] for v in build_grid(m).vertices]


def test_corner_tables_number_the_cell_corners():
    for level in range(6):
        addrs = build_grid(level).vertices
        assert len(set(addrs)) == len(addrs) == _vertex_count(level)
        assert [tuple(addrs[i] for i in cell) for cell in _corner_table(level)] \
            == [tuple(VertexAddress.make(w, c) for c in (0, 1, 2))
                for w in cell_words(level)]


def test_concurrent_corner_tables_match_serial(monkeypatch):
    import sys
    import threading

    import sgortho.grid as grid

    levels = (7, 5, 7, 6, 4, 7)
    monkeypatch.setattr(grid, "_corner_tables", [[(0, 1, 2)]])
    serial = [grid._corner_table(level) for level in levels]
    monkeypatch.setattr(grid, "_corner_tables", [[(0, 1, 2)]])
    results = [None] * len(levels)
    errors = []
    start = threading.Barrier(len(levels))

    def worker(i):
        try:
            start.wait()
            results[i] = grid._corner_table(levels[i])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(levels))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the extension
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results == serial
    assert len(grid._corner_tables) == max(levels) + 1


def _random_rat(rng):
    return F(rng.randint(-10**6, 10**6), rng.choice((1, 2, 3, 5, 7, 9, 10, 12, 49)))


@pytest.mark.parametrize("level", range(6))
def test_dirichlet_solve_matches_fraction_oracle(level):
    rng = random.Random(100 + level)
    for _ in range(3):
        boundary = [_random_rat(rng) for _ in range(3)]
        loads = {v: _random_rat(rng) for v in build_grid(level).vertices}
        got = dirichlet_solve(level, boundary, loads.__getitem__)
        assert got.values == _fraction_dirichlet_solve(level, boundary,
                                                       loads.__getitem__)
        assert all(type(v) is type(F(0)) for v in got.values)
    # integer loads and corners, and a zero load
    assert dirichlet_solve(level, [1, 0, -2], lambda v: 3).values == \
        _fraction_dirichlet_solve(level, [1, 0, -2], lambda v: 3)
    assert dirichlet_solve(level, [0, 0, 0], lambda v: 0).values == [0] * \
        len(build_grid(level).vertices)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_eval_poly_grid_matches_fraction_oracle(k):
    family = legendre(k, 5).polys
    for degree in range(6):
        for solve_level in (3, 5):
            got = eval_poly_grid(family[degree], 3, solve_level)
            assert got.grid == build_grid(3)
            assert got.values == _fraction_eval_poly_grid(family[degree], 3,
                                                          solve_level)


def test_eval_poly_grid_of_zero_and_constant():
    assert eval_poly_grid(Poly({}), 2, 3).values == [0] * 15
    const = Poly({(0, 1): F(7, 3)})
    assert eval_poly_grid(const, 1, 3).values == \
        [const.boundary_value(0)] * 6


def test_grid_evaluation_exact_for_low_degree():
    # degree <= 1 loads are harmonic, hence discretely harmonic: the solver
    # reproduces the true values with zero discretization error
    for k in (1, 2, 3):
        mono = Poly.monomial(1, k)
        fld = eval_poly_grid(mono, 2, solve_level=4)
        for depth in range(3):
            for target in (1, 2):
                assert fld.value_at(spine_address(depth, target)) == \
                    mono.eval_spine(depth, target)


def test_harmonic_polys_match_harmonic_extend():
    p = Poly({(0, 1): F(2), (0, 2): F(-1), (0, 3): F(1, 2)})
    fld = eval_poly_grid(p, 3, solve_level=3)
    ext = harmonic_extend([p.boundary_value(v) for v in (0, 1, 2)], 3)
    assert fld.values == ext.values


def _spine_discrepancy(f, max_depth: int, solve_level: int):
    """Max |grid value - exact| over spine vertices of depth <= max_depth."""
    field = eval_poly_grid(f, max_depth, solve_level)
    worst = F(0)
    for depth in range(max_depth + 1):
        for target in (1, 2):
            approx = field.value_at(spine_address(depth, target))
            err = abs(approx - f.eval_spine(depth, target))
            if err > worst:
                worst = err
    return worst


def test_spine_convergence_is_monotone():
    for j in (2, 3):
        mono = Poly.monomial(j, 1)
        errs = [_spine_discrepancy(mono, 2, lvl) for lvl in (3, 4, 5)]
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] < F(1, 10**5)


def test_antisymmetry_of_family3_fields():
    fld = eval_poly_grid(Poly.monomial(2, 3), 3, solve_level=4)
    grid = fld.grid
    for i, v in enumerate(grid.vertices):
        assert fld.values[i] == -fld.value_at(v.reflect())


def _edge_oracle(field, edge):
    """The vertices whose word and corner use only the edge's two letters,
    sorted by their exact dyadic parameter t from the first corner."""
    i, j = EDGE_LETTERS[edge]
    rows = []
    for idx, v in enumerate(field.grid.vertices):
        if v.corner in (i, j) and all(c in (i, j) for c in v.word):
            t, scale = F(0), F(1)
            for letter in v.word:
                if letter == j:
                    t += scale / 2
                scale /= 2
            if v.corner == j:
                t += scale
            rows.append((t, field.values[idx]))
    rows.sort(key=lambda r: r[0])
    assert rows[0][0] == 0 and rows[-1][0] == 1
    return [v for _t, v in rows]


def test_restrict_edge_counts_and_order():
    p = Poly({(2, 1): F(3), (1, 2): F(-2), (1, 3): F(1, 2), (0, 3): F(1)})
    data = p.dirichlet_data()
    for m in range(6):
        field = multiharmonic_extend(data, m)
        for edge in ("bottom", "left", "right"):
            vals = restrict_edge(field, edge)
            assert len(vals) == 2**m + 1
            assert vals == _edge_oracle(field, edge)
    ends = restrict_edge(harmonic_extend([F(1), F(2), F(3)], 0), "bottom")
    assert ends == [F(2), F(3)]
    with pytest.raises(ValueError):
        restrict_edge(field, "top")


def test_restrict_edge_129_points_at_level7():
    h = harmonic_extend([F(1), F(0), F(0)], 7)
    assert len(restrict_edge(h, "bottom")) == 129


def test_bottom_edge_antisymmetric_for_family3():
    fld = eval_poly_grid(Poly.monomial(1, 3), 2, solve_level=4)
    vals = restrict_edge(fld, "bottom")
    assert all(vals[i] == -vals[-1 - i] for i in range(len(vals)))


def test_count_sign_changes():
    assert count_sign_changes([F(1), F(1), F(2)]) == (0, 0)
    assert count_sign_changes([F(1), F(-1), F(1)]) == (2, 0)
    assert count_sign_changes([F(1), F(0), F(1)]) == (0, 1)
    assert count_sign_changes([F(1), F(0), F(-2)]) == (1, 1)
    # the lowest anti-symmetric harmonic changes sign once across the bottom
    h = harmonic_extend([TABLE.value(0, 3, v) for v in (0, 1, 2)], 4)
    vals = restrict_edge(h, "bottom")
    changes, zeros = count_sign_changes(vals)
    assert changes == 1 and zeros == 1


def test_field_restrict_and_csv():
    fld = eval_poly_grid(Poly.monomial(1, 1), 3, solve_level=4)
    coarse = fld.restrict(1)
    assert len(coarse.values) == 6
    rows = list(coarse.csv_rows(6))
    assert rows[0][0] == "e.0"
    assert all(len(r) == 4 for r in rows)


def test_csv_y_is_correctly_rounded_beyond_39_digits():
    # y = r sqrt(3) has no finite expansion; every digit requested is exact
    rows = list(harmonic_extend([F(1), F(0), F(0)], 0).csv_rows(50))
    assert rows[0][2] == "0.86602540378443864676372317075293618347140262690519"
    for m in (1, 3):
        for digits in (0, 12, 40, 75):
            for (addr, _x, y, _v), v in zip(multiharmonic_extend(
                    [(F(1),), (F(0),), (F(0),)], m).csv_rows(digits),
                    sorted(build_grid(m).vertices)):
                assert addr == str(v)
                assert y == _y_decimal(_point(v)[1], digits), (addr, digits)


def test_value_at_rejects_a_finer_address():
    field = harmonic_extend([F(1), F(2), F(3)], 2)
    addr = VertexAddress.make((1, 2), 0)
    assert field.value_at(addr) == _descent([(F(1),), (F(2),), (F(3),)], addr)[0]
    with pytest.raises(ValueError, match="level 3.*level-2"):
        field.value_at(VertexAddress.make((0, 1, 2), 1))
    with pytest.raises(ValueError, match="not canonical"):
        field.value_at(VertexAddress((0,), 0))  # padded: the corner q0 itself


def test_mapped_addresses():
    a = spine_address(1, 1)
    assert mapped((2,), a) == VertexAddress.make((2, 0), 1)
    assert mapped((), a) == a


def test_midpoint_weights():
    assert [midpoint_weights(s) for s in range(4)] == [
        (F(2, 5), F(1, 5)), (F(-3, 125), F(-7, 375)),
        (F(77, 56250), F(71, 56250)), (F(-1, 12500), F(-79, 1012500))]


def test_midpoint_fit_checks_the_third_family(monkeypatch):
    import sgortho.grid as grid

    real = Poly.eval_spine

    def skewed(self, depth, target):  # P_{0,1} = 1 gets a wrong spine value
        return real(self, depth, target) + (1 if (0, 1) in self.coeffs else 0)

    monkeypatch.setattr(grid, "_weights", [])
    monkeypatch.setattr(Poly, "eval_spine", skewed)
    with pytest.raises(ConsistencyError):
        grid.midpoint_weights(0)


@pytest.mark.parametrize("j", range(7))
def test_midpoint_rule_matches_spine_closed_forms(j):
    # only depth 1 went into the fit; deeper spine points are an independent check
    for k in (1, 2, 3):
        mono = Poly.monomial(j, k)
        field = multiharmonic_extend(mono.dirichlet_data(), 6)
        for depth in range(2, 7):
            for target in (1, 2):
                assert field.value_at(spine_address(depth, target)) == \
                    mono.eval_spine(depth, target)


def test_collocation_converges_to_the_rule_by_five_per_level():
    addr = VertexAddress.make((1, 0), 2)
    assert addr.spine_depth() is None
    for j, k in ((2, 1), (2, 3)):
        mono = Poly.monomial(j, k)
        exact = multiharmonic_extend(mono.dirichlet_data(), 2).value_at(addr)
        errs = [eval_poly_grid(mono, 2, lvl).value_at(addr) - exact
                for lvl in (4, 5, 6)]
        assert errs[0] != 0
        assert errs[0] == 5 * errs[1] == 25 * errs[2]


def test_multiharmonic_extend_agrees_with_vertex_descent():
    mixed = Poly({(6, 1): F(2, 7), (3, 1): F(2), (5, 2): F(-3, 4), (2, 2): F(-1),
                  (6, 3): F(1, 2), (1, 3): F(9), (0, 1): F(5)})
    polys = [mixed] + [Poly.monomial(j, k) for j in range(7) for k in (1, 2, 3)]
    for p in polys:
        data = p.dirichlet_data()
        expected = [_descent(data, v)[0] for v in build_grid(4).vertices]
        for m in range(5):
            field = multiharmonic_extend(data, m)
            assert field.values == expected[:_vertex_count(m)]
            assert all(type(v) is F for v in field.values)
        # restriction to a coarser grid is the coarser extension
        assert field.restrict(2).values == multiharmonic_extend(data, 2).values


@pytest.mark.xfail(strict=True, reason="the default collocation (solve level "
                   "level + 2) miscounts edge sign changes of p_5 at level 5; "
                   "the zeros tables pinned in the benchmark references "
                   "(perfbench/references.json) are those wrong counts")
def test_collocated_zero_counts_match_exact_values():
    p5 = legendre(3, 5).polys[5]
    collocated = eval_poly_grid(p5, 5)
    exact = multiharmonic_extend(p5.dirichlet_data(), 5)
    for edge in ("bottom", "left", "right"):
        counts = [count_sign_changes(restrict_edge(fld, edge))
                  for fld in (collocated, exact)]
        assert counts[0] == counts[1], edge
