"""Vertex addressing, level grids, the exact midpoint rule, the collocation solver."""

from fractions import Fraction as F

import pytest

from sgortho.addresses import VertexAddress, mapped, spine_address
from sgortho.coeffs import TABLE
from sgortho.errors import ConsistencyError
from sgortho.grid import (build_grid, cell_words, count_sign_changes,
                          harmonic_extend, midpoint_weights,
                          multiharmonic_extend, restrict_edge, vertex_data)
from sgortho.poly import Poly
from sgortho.solver import (dirichlet_solve, eval_poly_grid,
                            residual_check, spine_discrepancy)


def test_canonicalization_twins_and_padding():
    a = VertexAddress.make((0, 1), 2)
    b = VertexAddress.make((0, 2), 1)
    assert a == b
    assert VertexAddress.make((0, 1, 1, 1), 1) == VertexAddress.make((0,), 1)
    assert VertexAddress.make((0, 0, 0), 0) == VertexAddress.make((), 0)
    assert str(VertexAddress.make((), 1)) == "e.1"


def test_points_and_reflection():
    q0 = VertexAddress.make((), 0)
    assert q0.point() == (F(1, 2), F(1, 2))
    m12 = VertexAddress.make((1,), 2)
    assert m12.point() == (F(1, 2), F(0))
    assert m12.reflect() == m12
    m01 = VertexAddress.make((0,), 1)
    assert m01.reflect() == VertexAddress.make((0,), 2)
    # twins map to the same planar point
    assert VertexAddress((0, 1), 2).point() == VertexAddress((0, 2), 1).point()


def test_spine_depth():
    assert spine_address(3, 1).spine_depth() == 3
    assert VertexAddress.make((1,), 2).spine_depth() is None
    assert VertexAddress.make((), 2).spine_depth() == 0


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_grid_sizes(m):
    grid = build_grid(m)
    assert len(grid.vertices) == 3 * (3**m + 1) // 2
    boundary = set(grid.boundary_indices())
    for i, neigh in enumerate(grid.adjacency):
        assert len(neigh) == (2 if i in boundary else 4)


def test_grid_edges_m0():
    grid = build_grid(0)
    assert sum(len(n) for n in grid.adjacency) // 2 == 3


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


def test_dirichlet_solve_unit_load():
    load = lambda v: F(-2, 15)
    u = dirichlet_solve(1, [0, 0, 0], load)
    mids = [u.value_at(VertexAddress.make((0,), 1)),
            u.value_at(VertexAddress.make((0,), 2)),
            u.value_at(VertexAddress.make((1,), 2))]
    assert mids == [F(-1, 15)] * 3
    assert residual_check(u, load)


def test_dirichlet_solve_residuals_random_load():
    import random
    rng = random.Random(2)
    values = {}

    def load(v):
        if v not in values:
            values[v] = F(rng.randint(-20, 20), rng.randint(1, 9))
        return values[v]

    u = dirichlet_solve(3, [F(1), F(-2), F(1, 3)], load)
    assert residual_check(u, load)
    assert u.value_at(VertexAddress.make((), 0)) == 1


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


def test_spine_convergence_is_monotone():
    for j in (2, 3):
        mono = Poly.monomial(j, 1)
        errs = [spine_discrepancy(mono, 2, lvl) for lvl in (3, 4, 5)]
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] < F(1, 10**5)


def test_antisymmetry_of_family3_fields():
    fld = eval_poly_grid(Poly.monomial(2, 3), 3, solve_level=4)
    grid = fld.grid
    for i, v in enumerate(grid.vertices):
        assert fld.values[i] == -fld.value_at(v.reflect())


def test_restrict_edge_counts_and_order():
    h = harmonic_extend([F(1), F(2), F(3)], 3)
    for edge in ("bottom", "left", "right"):
        rows = restrict_edge(h, edge)
        assert len(rows) == 2**3 + 1
        params = [t for t, _v in rows]
        assert params == sorted(params)
        assert params[0] == 0 and params[-1] == 1
    ends = restrict_edge(harmonic_extend([F(1), F(2), F(3)], 0), "bottom")
    assert [v for _t, v in ends] == [F(2), F(3)]


def test_restrict_edge_129_points_at_level7():
    h = harmonic_extend([F(1), F(0), F(0)], 7)
    assert len(restrict_edge(h, "bottom")) == 129


def test_bottom_edge_antisymmetric_for_family3():
    fld = eval_poly_grid(Poly.monomial(1, 3), 2, solve_level=4)
    vals = [v for _t, v in restrict_edge(fld, "bottom")]
    assert all(vals[i] == -vals[-1 - i] for i in range(len(vals)))


def test_count_sign_changes():
    assert count_sign_changes([F(1), F(1), F(2)]) == (0, 0)
    assert count_sign_changes([F(1), F(-1), F(1)]) == (2, 0)
    assert count_sign_changes([F(1), F(0), F(1)]) == (0, 1)
    assert count_sign_changes([F(1), F(0), F(-2)]) == (1, 1)
    # the lowest anti-symmetric harmonic changes sign once across the bottom
    h = harmonic_extend([TABLE.value(0, 3, v) for v in (0, 1, 2)], 4)
    vals = [v for _t, v in restrict_edge(h, "bottom")]
    changes, zeros = count_sign_changes(vals)
    assert changes == 1 and zeros == 1


def test_field_restrict_and_csv():
    fld = eval_poly_grid(Poly.monomial(1, 1), 3, solve_level=4)
    coarse = fld.restrict(1)
    assert len(coarse.values) == 6
    rows = list(coarse.csv_rows(6))
    assert rows[0][0] == "e.0"
    assert all(len(r) == 4 for r in rows)


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
        data = mono.dirichlet_data()
        for depth in range(2, 7):
            for target in (1, 2):
                addr = spine_address(depth, target)
                assert vertex_data(data, addr)[0] == mono.eval_spine(depth, target)


def test_collocation_converges_to_the_rule_by_five_per_level():
    addr = VertexAddress.make((1, 0), 2)
    assert addr.spine_depth() is None
    for j, k in ((2, 1), (2, 3)):
        mono = Poly.monomial(j, k)
        exact = vertex_data(mono.dirichlet_data(), addr)[0]
        errs = [eval_poly_grid(mono, 2, lvl).value_at(addr) - exact
                for lvl in (4, 5, 6)]
        assert errs[0] != 0
        assert errs[0] == 5 * errs[1] == 25 * errs[2]


def test_multiharmonic_extend_agrees_with_vertex_descent():
    p = Poly({(3, 1): F(2), (2, 2): F(-1), (3, 3): F(1, 2), (0, 1): F(5)})
    data = p.dirichlet_data()
    field = multiharmonic_extend(data, 3)
    for v in field.grid.vertices:
        assert field.value_at(v) == vertex_data(data, v)[0]
    # restriction to a coarser grid is the coarser extension
    assert field.restrict(2).values == multiharmonic_extend(data, 2).values


@pytest.mark.xfail(strict=True, reason="the default collocation (solve level "
                   "level + 2) miscounts edge sign changes of p_5 at level 5; "
                   "the zeros tables pinned in the benchmark references "
                   "(perfbench/references.json) are those wrong counts")
def test_collocated_zero_counts_match_exact_values():
    from sgortho.families import legendre

    p5 = legendre(3, 5).polys[5]
    collocated = eval_poly_grid(p5, 5)
    exact = multiharmonic_extend(p5.dirichlet_data(), 5)
    for edge in ("bottom", "left", "right"):
        counts = [count_sign_changes([v for _t, v in restrict_edge(fld, edge)])
                  for fld in (collocated, exact)]
        assert counts[0] == counts[1], edge
