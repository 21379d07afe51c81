"""Differential-equation identities and large-weight asymptotics.

For the order-1 product and k = 2, 3 the Sobolev family satisfies

    s_n + chi Lap^2 s_n
        = Lap p_{n+1} + a_n (|s_n|_S^2 / |p_n|_2^2) Lap p_n
                      + (|s_n|_S^2 / |p_{n-1}|_2^2) Lap p_{n-1},

and its order-m generalization replaces Lap by Lap^m on the right with 2m
trailing terms weighted by the generalized recurrence coefficients.  Both are
exact polynomial identities; the residual builders below return left minus
right, which must be the zero polynomial.

chi_asymptotics quantifies the O(1/chi) convergence of s_n(., chi) toward its
weight-independent limit, entirely in exact rational arithmetic (squared L2
errors and their ratios).
"""

from __future__ import annotations

from .families import (green_seq, legendre, sobolev_higher,
                       sobolev_three_term)
from .inner import SobolevParams, poly_inner
from .poly import Poly
from .rationals import ONE, ZERO, rat_str

L2 = SobolevParams.l2()


def ode_residual(n: int, chi, family: int) -> Poly:
    """Residual of the second-order identity for the order-1 product (k=2,3)."""
    sob = sobolev_three_term(family, chi, max(n + 1, 1))
    leg = legendre(family, n + 1)
    s_n = sob.polys[n]
    lhs = s_n + s_n.laplacian_power(2).scale(chi)
    rhs = leg.polys[n + 1].laplacian()
    a_n = sob.recurrence["a"][n]
    rhs = rhs + leg.polys[n].laplacian().scale(a_n * sob.norms_sq[n] / leg.norms_sq[n])
    if n >= 1:
        rhs = rhs + leg.polys[n - 1].laplacian().scale(
            sob.norms_sq[n] / leg.norms_sq[n - 1])
    return lhs - rhs


def higher_ode_residual(n: int, params: SobolevParams, family: int) -> Poly:
    """Residual of the order-2m identity for the order-m product (k=2,3, n >= m)."""
    m = params.order
    if n < m:
        raise ValueError("identity holds for degrees n >= m")
    sob = sobolev_higher(params, family, n + 2 * m - 1)
    leg = legendre(family, n + m)
    s_n = sob.polys[n]
    lhs = s_n
    for l in range(1, m + 1):
        if params.chi[l] != 0:
            lhs = lhs + s_n.laplacian_power(2 * l).scale(params.chi[l])
    rhs = leg.polys[n + m].laplacian_power(m)
    a_table = sob.recurrence["a"]
    for l in range(1, 2 * m + 1):
        coef_a = ONE if 2 * m - l - 1 == -1 else \
            a_table.get((n + m - l - 1, 2 * m - l - 1), ZERO)
        if coef_a == 0:
            continue
        weight = coef_a * sob.norms_sq[n] / leg.norms_sq[n + m - l]
        rhs = rhs + leg.polys[n + m - l].laplacian_power(m).scale(weight)
    return lhs - rhs


def chi_limit_poly(family: int, n: int) -> tuple[Poly, str]:
    """The weight-independent limit of s_n(., chi) for k = 2, 3.

    For n >= 3 this is the Green image f_n; for n = 2 it is
    f_2 - (|p_1|^2/|p_0|^2) p_0; degrees 0 and 1 do not depend on chi at all.
    """
    if family not in (2, 3):
        raise ValueError("chi asymptotics cover families 2 and 3")
    leg = legendre(family, max(n, 1))
    if n >= 3:
        return green_seq(family, n)[n], f"f_{n}"
    if n == 2:
        f2 = green_seq(family, 2)[2]
        c = leg.norms_sq[1] / leg.norms_sq[0]
        return f2 - leg.polys[0].scale(c), "f_2 - (|p_1|^2/|p_0|^2) p_0"
    return leg.polys[n], f"p_{n}"


def chi_asymptotics(family: int, n: int, chis) -> dict:
    """Exact decay study of |s_n(., chi) - limit|_2^2 over a list of weights.

    Also reports chi * b~_n against its limit |p_n|_2^2 / |p_{n-2}|_2^2.
    All entries are exact rationals rendered as strings.
    """
    limit, limit_name = chi_limit_poly(family, n)
    leg = legendre(family, max(n, 2))
    rows = []
    prev_err = None
    for chi in chis:
        sob = sobolev_three_term(family, chi, max(n + 1, 2))
        err = sob.polys[n] - limit
        err_sq = poly_inner(L2, err, err)
        row = {"chi": rat_str(chi), "err_sq": rat_str(err_sq)}
        if prev_err not in (None, 0) and err_sq != 0:
            row["ratio_sq_prev"] = rat_str(prev_err / err_sq)
        b_tilde = sob.recurrence["b_tilde"].get(n)
        if b_tilde is not None:
            row["chi_b_tilde"] = rat_str(chi * b_tilde)
        rows.append(row)
        prev_err = err_sq
    out = {"family": family, "n": n, "limit": limit_name, "rows": rows}
    if n >= 2:
        out["chi_b_tilde_limit"] = rat_str(leg.norms_sq[n] / leg.norms_sq[n - 2])
    return out
