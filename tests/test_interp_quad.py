"""Interpolation node sets, determinants, quadrature rules and error orders."""

from fractions import Fraction as F

import pytest

from sgortho.addresses import VertexAddress, spine_address
from sgortho.coeffs import TABLE, gamma
from sgortho.interp import (NodeSet, composite_quadrature,
                            degenerate_spine_nodes, eval_monomial_at,
                            interpolation_matrix, condition_inf, node_depth,
                            quadrature_error_study, quadrature_weights,
                            spine_nodes, v1_nodes)
from sgortho.linalg import bareiss_det, inverse_exact, solve_exact
from sgortho.poly import Poly
from sgortho.solver import eval_poly_grid


def test_spine_nodes_layout():
    n0 = spine_nodes(0)
    assert [str(a) for a in n0.nodes] == ["e.1", "0.1", "e.2"]
    n1 = spine_nodes(1)
    assert [str(a) for a in n1.nodes] == \
        ["e.1", "0.1", "00.1", "000.1", "e.2", "0.2"]
    for n in range(4):
        nodes = spine_nodes(n)
        assert len(nodes.nodes) == 3 * n + 3
        assert len(set(nodes.nodes)) == 3 * n + 3


def test_duplicate_nodes_rejected_and_singular():
    with pytest.raises(ValueError):
        NodeSet(nodes=(spine_address(0, 1), spine_address(0, 1)), n=0)
    # a duplicated row still makes the raw determinant exactly zero
    row = [F(1), F(2)]
    assert bareiss_det([row, list(row)]) == 0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_spine_matrix_exact_and_invertible(n):
    matrix = interpolation_matrix(spine_nodes(n))
    for addr, row in zip(matrix.node_set.nodes, matrix.entries):
        assert row == [Poly.monomial(j, k).eval_spine(addr.level, addr.corner)
                       for j in range(n + 1) for k in (1, 2, 3)]
    assert bareiss_det(matrix.entries) != 0


def test_degenerate_spine_nodes_singular():
    for n in (1, 2):
        matrix = interpolation_matrix(degenerate_spine_nodes(n))
        assert bareiss_det(matrix.entries) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_family3_block_is_scaled_vandermonde(n):
    # rows: spine points F_0^i(q1), i = 0..n; cols: anti-symmetric monomials
    rows = []
    for i in range(n + 1):
        rows.append([Poly.monomial(j, 3).eval_spine(i, 1) for j in range(n + 1)])
    det = bareiss_det(rows)
    expected = F(1)
    for j in range(n + 1):
        expected *= gamma(j)
    for i in range(n + 1):
        expected *= F(1, 5**i)
    for i in range(n + 1):
        for ip in range(i + 1, n + 1):
            expected *= (F(1, 5**ip) - F(1, 5**i))
    assert det == expected


def test_v1_matrix_exact_value_and_condition():
    matrix = interpolation_matrix(v1_nodes())
    # degree <= 1 loads are discretely harmonic, so collocation is exact there
    addr = VertexAddress.make((1,), 2)
    for col, k in enumerate((1, 2, 3)):
        field = eval_poly_grid(Poly.monomial(1, k), 1, 1)
        assert matrix.entries[-1][3 + col] == field.value_at(addr)
    assert abs(bareiss_det(matrix.entries)) > F(1, 10**8)
    assert condition_inf(matrix) > 1


def test_exact_value_at_non_spine_vertex():
    # collocation of a degree-2 polynomial errs by exactly C 5^-L at solve
    # level L, so Richardson extrapolation of two levels is an exact oracle
    addr = VertexAddress.make((1,), 2)
    value = eval_monomial_at(2, 1, addr)
    assert value == F(1, 2250)
    coarse, fine = (eval_poly_grid(Poly.monomial(2, 1), 1, lvl).value_at(addr)
                    for lvl in (4, 5))
    assert (5 * fine - coarse) / 4 == value


def test_quadrature_rule_order0():
    rule = quadrature_weights(0)
    assert list(rule.weights) == [F(0), F(5, 6), F(1, 6)]
    assert rule.to_json_dict() == {"n": 0, "nodes": ["e.1", "0.1", "e.2"],
                                   "weights": ["0", "5/6", "1/6"]}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_quadrature_exactness(n):
    rule = quadrature_weights(n)
    for j in range(n + 1):
        for k in (1, 2, 3):
            mono = Poly.monomial(j, k)
            values = [mono.eval_spine(a.level, a.corner) for a in rule.nodes.nodes]
            assert rule.apply(values) == TABLE.integral(j, k)


def test_order0_rule_gives_corner_mean_on_harmonics():
    rule = quadrature_weights(0)
    for basis in ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))):
        b0, b1, b2 = basis
        node_vals = [b1, (2 * b0 + 2 * b1 + b2) / 5, b2]
        assert rule.apply(node_vals) == (b0 + b1 + b2) / 3


def test_composite_base_case_and_partition_of_unity():
    one = Poly.monomial(0, 1)
    for n in (0, 1):
        rule = quadrature_weights(n)
        base = composite_quadrature(rule, n, one)
        assert base == 1
        for m in (n + 1, n + 2):
            assert composite_quadrature(rule, m, one) == 1


def test_composite_exact_for_polynomials_of_rule_degree():
    # degree-1 integrands are evaluated exactly on grids and the rule is exact
    # on each cell, so the composite value equals the true integral exactly
    rule = quadrature_weights(1)
    f = Poly({(1, 1): F(1), (0, 2): F(3), (1, 3): F(-2)})
    exact = f.integral()
    for m in (1, 2, 3):
        assert composite_quadrature(rule, m, f) == exact


def test_quadrature_error_study_orders():
    # P_{1,1} has no composite error under the order-0 rule, so no ratios
    rows0 = quadrature_error_study(0, Poly.monomial(1, 2), 4)
    ratios0 = [float(r["ratio"]) for r in rows0 if "ratio" in r]
    assert ratios0
    assert all(5 <= r < 25 for r in ratios0)  # at least first order: 5^(n+1)
    rows1 = quadrature_error_study(1, Poly.monomial(2, 1), 3)
    ratios1 = [float(r["ratio"]) for r in rows1 if "ratio" in r]
    assert all(12 < r < 40 for r in ratios1)  # second-order rule: near 25
    assert rows1[0]["exact"] == F(1, 1215)


def test_quadrature_error_ratios_are_exact():
    # exact integrand values leave the composite error a pure power of 5
    rows = quadrature_error_study(1, Poly.monomial(2, 1), 4)
    assert [r["ratio"] for r in rows if "ratio" in r] == [25, 25, 25]
    rows = quadrature_error_study(1, Poly.monomial(2, 3), 4)
    assert [r["ratio"] for r in rows if "ratio" in r] == [F(125, 2)] * 3
    rows = quadrature_error_study(0, Poly.monomial(1, 2), 4)
    assert [r["ratio"] for r in rows if "ratio" in r] == [F(25, 2)] * 4


def test_node_depth_and_callable_integrand():
    rule = quadrature_weights(0)
    assert node_depth(rule) == 1
    calls = {}

    def evaluator(addr):
        calls[addr] = True
        return F(1)

    assert composite_quadrature(rule, 2, evaluator) == 1
    assert len(calls) > 0


def test_linalg_helpers():
    m = [[F(2), F(1)], [F(1), F(3)]]
    assert bareiss_det(m) == 5
    x = solve_exact(m, [F(1), F(2)])
    assert x == [F(1, 5), F(3, 5)]
    inv = inverse_exact(m)
    assert inv == [[F(3, 5), F(-1, 5)], [F(-1, 5), F(2, 5)]]
    with pytest.raises(ValueError):
        solve_exact([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)])
    assert bareiss_det([[F(0), F(1)], [F(1), F(0)]]) == -1
