"""Interpolation node sets, determinants, quadrature rules and error orders."""

import json
import random
from fractions import Fraction as F
from functools import cache

import pytest

from sgortho.addresses import VertexAddress, spine_address
from sgortho.coeffs import TABLE
from sgortho.grid import multiharmonic_extend
from sgortho.interp import (NodeSet, composite_quadrature,
                            degenerate_spine_nodes, det_and_condition,
                            eval_monomial_at, interpolation_matrix, node_depth,
                            quadrature_error_study, quadrature_weights,
                            spine_nodes, v1_nodes)
from sgortho import cli, interp
from sgortho.errors import ConsistencyError
from sgortho.linalg import (_eliminate, bareiss_det, det_and_inverse, inverse_exact,
                            solve_exact)
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
    nodes = spine_nodes(n)
    matrix = interpolation_matrix(nodes)
    assert len(matrix) == len(nodes.nodes)
    for addr, row in zip(nodes.nodes, matrix):
        assert row == [Poly.monomial(j, k).eval_spine(addr.level, addr.corner)
                       for j in range(n + 1) for k in (1, 2, 3)]
    assert bareiss_det(matrix) != 0


def test_degenerate_spine_nodes_singular():
    # on the q1 spine P_{j,3} = 3 P_{j+1,1}: two columns from n = 1 on only
    for n in range(5):
        det = bareiss_det(interpolation_matrix(degenerate_spine_nodes(n)))
        assert (det == 0) == (n >= 1), n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_family3_block_is_scaled_vandermonde(n):
    # rows: spine points F_0^i(q1), i = 0..n; cols: anti-symmetric monomials
    rows = []
    for i in range(n + 1):
        rows.append([Poly.monomial(j, 3).eval_spine(i, 1) for j in range(n + 1)])
    det = bareiss_det(rows)
    expected = F(1)
    for j in range(n + 1):
        expected *= TABLE.gamma(j)
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
        assert matrix[-1][3 + col] == field.value_at(addr)
    det, condition = det_and_condition(matrix)
    assert det == bareiss_det(matrix)
    assert abs(det) > F(1, 10**8)
    assert condition > 1


def test_exact_value_at_non_spine_vertex():
    # collocation of a degree-2 polynomial errs by exactly C 5^-L at solve
    # level L, so Richardson extrapolation of two levels is an exact oracle
    addr = VertexAddress.make((1,), 2)
    value = eval_monomial_at(2, 1, addr)
    assert value == F(1, 2250)
    coarse, fine = (eval_poly_grid(Poly.monomial(2, 1), 1, lvl).value_at(addr)
                    for lvl in (4, 5))
    assert (5 * fine - coarse) / 4 == value


def test_quadrature_rule_order0(capsys):
    rule = quadrature_weights(0)
    assert list(rule.weights) == [F(0), F(5, 6), F(1, 6)]
    assert cli.main(["quad", "--n", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "n": 0, "nodes": ["e.1", "0.1", "e.2"], "weights": ["0", "5/6", "1/6"]}


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


def _values(rule, m, f):
    """The integrand of the level-m composite rule: f extended afresh to the
    finest level the rule reaches."""
    level = m - rule.n + node_depth(rule)
    return multiharmonic_extend(f.dirichlet_data(), level).value_at


def test_composite_base_case_and_partition_of_unity():
    one = Poly.monomial(0, 1)
    for n in (0, 1):
        rule = quadrature_weights(n)
        base = composite_quadrature(rule, n, _values(rule, n, one))
        assert base == 1
        for m in (n + 1, n + 2):
            assert composite_quadrature(rule, m, _values(rule, m, one)) == 1


def test_composite_exact_for_polynomials_of_rule_degree():
    # degree-1 integrands are evaluated exactly on grids and the rule is exact
    # on each cell, so the composite value equals the true integral exactly
    rule = quadrature_weights(1)
    f = Poly({(1, 1): F(1), (0, 2): F(3), (1, 3): F(-2)})
    exact = f.integral()
    for m in (1, 2, 3):
        assert composite_quadrature(rule, m, _values(rule, m, f)) == exact


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


@pytest.mark.parametrize("n", [0, 1, 2])
def test_one_extension_study_matches_per_level_extensions(n):
    # the study extends once; here f is extended afresh at every level
    rule = quadrature_weights(n)
    for k in (1, 2, 3):
        f = Poly.monomial(n + 1, k)
        rows = quadrature_error_study(n, f, n + 1)
        assert [r["m"] for r in rows] == [n, n + 1]
        assert [r["estimate"] for r in rows] == \
            [composite_quadrature(rule, m, _values(rule, m, f)) for m in (n, n + 1)]
    assert quadrature_error_study(n + 1, Poly.monomial(1, 1), n) == []


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


# -- the elimination kernel against independent oracles ------------------------


def cofactor_det(matrix):
    """Determinant by Laplace expansion along the top remaining row, with the
    minors over each column subset memoized."""
    n = len(matrix)

    @cache
    def minor(cols):
        if not cols:
            return F(1)
        row = matrix[n - len(cols)]
        return sum(((-1) ** i * row[c] * minor(cols[:i] + cols[i + 1:])
                    for i, c in enumerate(cols)), F(0))

    return minor(tuple(range(n)))


def gauss_solve(matrix, rhs):
    """Gaussian elimination with Fraction entries, partial pivoting on the
    first nonzero entry; raises on a singular matrix."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                for c in range(col, n + 1):
                    a[r][c] -= factor * a[col][c]
    x = [F(0)] * n
    for i in range(n - 1, -1, -1):
        s = a[i][n]
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x


def random_matrix(rng, rows, cols):
    dens = (1, 2, 3, 7, 12, 25, 1024)
    return [[F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(cols)]
            for _ in range(rows)]


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", range(9))
def test_kernel_matches_oracles_on_random_matrices(n, seed):
    rng = random.Random(1000 * n + seed)
    a = random_matrix(rng, n, n)
    rhs = random_matrix(rng, 3, n)  # three right-hand sides
    det = cofactor_det(a)
    assert bareiss_det(a) == det
    if det == 0:
        with pytest.raises(ValueError):
            solve_exact(a, rhs[0])
        return
    assert _eliminate(a, rhs) == (det, [gauss_solve(a, b) for b in rhs])
    assert solve_exact(a, rhs[0]) == gauss_solve(a, rhs[0])
    inverse_columns = [gauss_solve(a, e) for e in identity(n)]
    assert inverse_exact(a) == [list(r) for r in zip(*inverse_columns)]
    assert det_and_inverse(a) == (det, inverse_exact(a))


def test_kernel_empty_matrix():
    assert bareiss_det([]) == 1
    assert solve_exact([], []) == []
    assert inverse_exact([]) == []


@pytest.mark.parametrize("case", ["repeated row", "zero column"])
def test_kernel_singular(case):
    rng = random.Random(7)
    a = random_matrix(rng, 5, 5)
    if case == "repeated row":
        a[3] = list(a[1])
    else:
        for row in a:
            row[2] = F(0)
    assert cofactor_det(a) == 0
    assert bareiss_det(a) == 0
    with pytest.raises(ValueError):
        solve_exact(a, [F(1)] * 5)
    with pytest.raises(ValueError):
        inverse_exact(a)
    assert det_and_inverse(a) == (0, None)


@pytest.mark.parametrize("a", [
    # zero first pivot
    [[F(0), F(2), F(1, 3)], [F(3, 2), F(4), F(5)], [F(6), F(7), F(9, 7)]],
    # zero first column above the last row: the swap reaches the bottom
    [[F(0), F(1), F(2)], [F(0), F(3, 5), F(1)], [F(2), F(1), F(1)]],
    # nonzero first pivot, zero second pivot after the first step
    [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(1, 2), F(3), F(1)]],
])
def test_kernel_row_swaps(a):
    det = cofactor_det(a)
    assert det != 0
    assert bareiss_det(a) == det
    b = [F(1), F(-2, 3), F(5)]
    x = solve_exact(a, b)
    assert x == gauss_solve(a, b)
    assert matmul(a, [[v] for v in x]) == [[v] for v in b]
    assert matmul(inverse_exact(a), a) == identity(3)


def test_kernel_several_right_hand_sides():
    rng = random.Random(11)
    a = random_matrix(rng, 6, 6)
    b = random_matrix(rng, 4, 6)  # columns of B
    det, x = _eliminate(a, b)
    assert det == cofactor_det(a) != 0
    assert matmul(a, [list(r) for r in zip(*x)]) == [list(r) for r in zip(*b)]


@pytest.mark.parametrize("n", range(6))
def test_inverse_of_spine_matrix(n):
    entries = interpolation_matrix(spine_nodes(n))
    assert matmul(inverse_exact(entries), entries) == identity(len(entries))


def test_quadrature_weights_singular_matrix_is_consistency_error(monkeypatch):
    monkeypatch.setattr(interp, "spine_nodes", degenerate_spine_nodes)
    with pytest.raises(ConsistencyError, match="singular"):
        quadrature_weights(1)
