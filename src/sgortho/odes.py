"""Differential-equation identities and large-weight asymptotics.

A k = 2, 3 Sobolev family of order m satisfies one identity at every degree
n, of order 2 for the order-1 product and of order 2m in general:

    sum_r chi_r Lap^{2r} s_n
        = sum_t c_t (|s_n|_S^2 / |p_t|_2^2) Lap^m p_t,

where c_t is the coefficient of s_n in the recurrence step for G^m p_t:
1 in the step that produces s_n, otherwise the table entry of the step
whose member index is n.  The coefficients are read off
`families.recurrence_steps`, so the three-term and the order-m tables share
one residual.  Steps with t < m add nothing, since Lap^m p_t = 0.
`ode_residual` returns left minus right at every degree; each must be zero.

chi_asymptotics quantifies the O(1/chi) convergence of s_n(., chi) toward its
weight-independent limit, entirely in exact rational arithmetic (squared L2
errors and their ratios), and returns those rationals; the CLI renders them.
"""

from __future__ import annotations

from .families import (OPFamily, green_seq, legendre, recurrence_steps,
                       sobolev_three_term, step_weights)
from .inner import L2, poly_inner
from .poly import Poly


def ode_residual(fam: OPFamily) -> list[Poly]:
    """Residuals of the identity above at every degree n <= maxdeg - 2m of a
    k = 2, 3 recurrence family (three-term or higher-recurrence): the identity
    at n reads members to degree n + 2m.  Each recurrence step adds its terms
    to the residuals of the member it produces and of the members it names."""
    if fam.method not in ("three-term", "higher-recurrence"):
        raise ValueError("the identity needs a k=2,3 recurrence family")
    m, maxdeg, tables = fam.params.order, len(fam.polys) - 1, fam.recurrence
    top = maxdeg - 2 * m
    leg = legendre(fam.family, max(top + m, 0))
    lap = [p.laplacian_power(m) for p in leg.polys]
    terms = [[(chi, fam.polys[n].laplacian_power(2 * r))
              for r, chi in enumerate(fam.params.chi)] for n in range(top + 1)]
    for degree, u, entries in recurrence_steps(fam.method, m, maxdeg):
        u = [(t, w) for t, w in step_weights(u, tables) if t >= m]
        for c, n in [(1, degree)] + [(tables[name][key], i) for name, key, i in entries]:
            if n <= top:
                terms[n] += [(-c * w * fam.norms_sq[n] / leg.norms_sq[t], lap[t])
                             for t, w in u]
    return [Poly.zero().combination(t) for t in terms]


# the order-m name of the same residual, read by the traced layer list
higher_ode_residual = ode_residual


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
    Every number in the report is an exact rational.
    """
    limit, limit_name = chi_limit_poly(family, n)
    leg = legendre(family, max(n, 2))
    rows = []
    prev_err = None
    for chi in chis:
        sob = sobolev_three_term(family, chi, max(n + 1, 2))
        err = sob.polys[n] - limit
        err_sq = poly_inner(L2, err, err)
        # the weight as the family stored it: a Fraction even for an int chi
        row = {"chi": sob.params.chi[1], "err_sq": err_sq}
        if prev_err not in (None, 0) and err_sq != 0:
            row["ratio_sq_prev"] = prev_err / err_sq
        b_tilde = sob.recurrence["b_tilde"].get(n)
        if b_tilde is not None:
            row["chi_b_tilde"] = chi * b_tilde
        rows.append(row)
        prev_err = err_sq
    out = {"family": family, "n": n, "limit": limit_name, "rows": rows}
    if n >= 2:
        out["chi_b_tilde_limit"] = leg.norms_sq[n] / leg.norms_sq[n - 2]
    return out
