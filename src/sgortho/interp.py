"""Polynomial interpolation matrices and spline quadrature on the gasket.

A degree-n polynomial has 3n+3 coefficients over the mixed monomial basis, so
interpolation asks for 3n+3 nodes making the node-by-monomial value matrix
invertible.  The spine node family

    x_i = F_0^(i-1)(q1)  (1 <= i <= 2n+2),   x_i = F_0^(i-2n-3)(q2)  (else)

does so whenever no beta_j vanishes (asserted for j <= 50): the scaling laws
turn each family block into a scaled Vandermonde matrix in powers of 1/5.
Every entry is exact (closed forms on the spine and at the corners, elsewhere
a value of the integer extension `grid.multiharmonic_extend`), so
determinants and quadrature weights are exact.

The order-n quadrature rule solves the moment system M^T w = integrals and is
exact on all polynomials of degree <= n; the composite rule applies it to
every (m-n)-cell with the measure factor 3^{-(m-n)}, which makes constants
integrate to 1 exactly (partition of unity).  It reads the integrand through
a callable, in practice the `value_at` of one extension of the polynomial.
Weights may be negative and the rules are known to be unstable for large n on
non-polynomial data; condition numbers are reported but never alter any
result.
"""

from __future__ import annotations

from .addresses import VertexAddress, mapped, spine_address
from .coeffs import TABLE
from .errors import ConsistencyError
from .grid import cell_words, multiharmonic_extend
from .inner import basis_indices
from .linalg import det_and_inverse, inf_norm, solve_exact
from .poly import Poly
from .rationals import Rat, ZERO, rat_str


class NodeSet:
    def __init__(self, nodes: tuple[VertexAddress, ...], n: int):
        if len(set(nodes)) != len(nodes):
            raise ValueError("nodes must be distinct after canonicalization")
        self.nodes = nodes
        self.n = n


def spine_nodes(n: int) -> NodeSet:
    """The 3n+3 spine nodes used for interpolation and quadrature."""
    if n < 0:
        raise ValueError("n must be >= 0")
    nodes = [spine_address(i - 1, 1) for i in range(1, 2 * n + 3)]
    nodes += [spine_address(i - 2 * n - 3, 2) for i in range(2 * n + 3, 3 * n + 4)]
    return NodeSet(nodes=tuple(nodes), n=n)


def degenerate_spine_nodes(n: int) -> NodeSet:
    """All 3n+3 nodes on the q1 spine; the interpolation matrix is singular."""
    return NodeSet(nodes=tuple(spine_address(i, 1) for i in range(3 * n + 3)), n=n)


def v1_nodes() -> NodeSet:
    """The six level-1 vertices (degree-1 interpolation set)."""
    grid_order = [VertexAddress.make((), 0), VertexAddress.make((), 1),
                  VertexAddress.make((), 2), VertexAddress.make((0,), 1),
                  VertexAddress.make((0,), 2), VertexAddress.make((1,), 2)]
    return NodeSet(nodes=tuple(grid_order), n=1)


def eval_monomial_at(j: int, k: int, addr: VertexAddress):
    """Exact value of P_{j,k} at a vertex: closed forms on the spine and at
    the corners, elsewhere the exact extension to the vertex's level."""
    depth = addr.spine_depth()
    mono = Poly.monomial(j, k)
    if depth is not None:
        return mono.eval_spine(depth, addr.corner)
    if addr.is_boundary():
        return TABLE.value(j, k, addr.corner)
    return multiharmonic_extend(mono.dirichlet_data(), addr.level).value_at(addr)


class InterpolationMatrix:
    """Node-by-monomial value matrix in the fixed mixed-basis column order."""

    def __init__(self, node_set: NodeSet, entries: list):
        self.node_set = node_set
        self.entries = entries  # rows = nodes, cols = monomials, exact rationals

    def to_json_dict(self) -> dict:
        return {
            "n": self.node_set.n,
            "nodes": [str(a) for a in self.node_set.nodes],
            "basis": [[j, k] for j, k in basis_indices("mixed", self.node_set.n)],
            "entries": [[rat_str(x) for x in row] for row in self.entries],
            "exact": [[True] * len(row) for row in self.entries],
        }


def interpolation_matrix(nodes: NodeSet, n: int | None = None) -> InterpolationMatrix:
    if n is None:
        n = nodes.n
    basis = basis_indices("mixed", n)
    if len(nodes.nodes) != len(basis):
        raise ValueError(f"need {len(basis)} nodes for degree {n}")
    entries = [[eval_monomial_at(j, k, addr) for (j, k) in basis]
               for addr in nodes.nodes]
    return InterpolationMatrix(node_set=nodes, entries=entries)


def det_and_condition(matrix: InterpolationMatrix) -> tuple:
    """(det, infinity-norm condition number) from one elimination; the
    condition number (report only) is None when the matrix is singular."""
    det, inverse = det_and_inverse(matrix.entries)
    if inverse is None:
        return det, None
    return det, float(inf_norm(matrix.entries) * inf_norm(inverse))


class QuadratureRule:
    """Exactness-degree-n rule on the spine nodes with exact weights."""

    def __init__(self, n: int, nodes: NodeSet, weights: tuple):
        self.n = n
        self.nodes = nodes
        self.weights = weights

    def apply(self, values) -> object:
        return sum((w * v for w, v in zip(self.weights, values)), ZERO)

    def to_json_dict(self) -> dict:
        return {"n": self.n,
                "nodes": [str(a) for a in self.nodes.nodes],
                "weights": [rat_str(w) for w in self.weights]}


def quadrature_weights(n: int) -> QuadratureRule:
    """Solve the exact moment system on the spine nodes.

    The rule integrates every monomial of degree <= n with exactly zero
    residual; this is re-verified after the solve.
    """
    nodes = spine_nodes(n)
    matrix = interpolation_matrix(nodes, n)
    basis = basis_indices("mixed", n)
    moments = [TABLE.integral(j, k) for (j, k) in basis]
    try:
        weights = solve_exact(list(zip(*matrix.entries)), moments)
    except ValueError:
        raise ConsistencyError("spine interpolation matrix is singular") from None
    for col, (j, k) in enumerate(basis):
        residual = sum((weights[r] * matrix.entries[r][col]
                        for r in range(len(basis))), ZERO) - moments[col]
        if residual != 0:
            raise ConsistencyError("quadrature exactness residual is nonzero")
    return QuadratureRule(n=n, nodes=nodes, weights=tuple(weights))


def node_depth(rule: QuadratureRule) -> int:
    return max(a.level for a in rule.nodes.nodes)


def composite_quadrature(rule: QuadratureRule, m: int, f):
    """Composite rule sum over all (m-n)-cells with measure factor 3^{-(m-n)}.

    `f` is a callable address -> value, such as the `value_at` of a field
    whose level is at least m - n + node_depth(rule).  Cells are reduced in
    lexicographic order, so the result is reproducible bit for bit.
    """
    if m < rule.n:
        raise ValueError("composite level must be >= rule order")
    depth = m - rule.n
    factor = Rat(1, 3**depth)
    total = ZERO
    for word in cell_words(depth):
        total += sum((w * f(mapped(word, a))
                      for w, a in zip(rule.weights, rule.nodes.nodes)), ZERO)
    return factor * total


def quadrature_error_study(n: int, f: Poly, m_max: int):
    """Exact-error table of the composite rule against the exact integral.

    Returns rows {m, estimate, exact, abs_error, ratio} with the ratio of the
    previous level's error to the current one.  For n <= 2 it is exactly
    5^(n+1) for P_{n+1,1} (n >= 1; at n = 0 that error is 0 at every level)
    and exactly 5^(n+2)/2 for P_{n+1,3}; at n = 0 it is 25/2 for P_{1,2} as
    well, while P_{n+1,2} with n >= 1 has no constant ratio.

    f is extended once, to the finest level the rule reaches at m_max; every
    coarser grid is a prefix of that one.  There are no rows when m_max < n.
    """
    if m_max < n:
        return []
    rule = quadrature_weights(n)
    exact = f.integral()
    values = multiharmonic_extend(f.dirichlet_data(),
                                  m_max - n + node_depth(rule)).value_at
    rows = []
    prev_err = None
    for m in range(n, m_max + 1):
        est = composite_quadrature(rule, m, values)
        err = abs(est - exact)
        row = {"m": m, "estimate": est, "exact": exact, "abs_error": err}
        if prev_err is not None and err != 0:
            row["ratio"] = prev_err / err
        rows.append(row)
        prev_err = err
    return rows
