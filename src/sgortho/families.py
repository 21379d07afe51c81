"""Construction of Legendre and Sobolev orthogonal polynomial families.

Gram-Schmidt over the monomial sequence is the normative construction; the
recurrence-based builders below are fast paths that must agree with it
coefficient-for-coefficient (uniqueness of monic orthogonal families makes any
disagreement a bug detector, and the test suite asserts the equality).

Builders:
  * gram_schmidt     -- any family, any inner-product parameters
  * legendre         -- plain L2 (the chi-independent reference family)
  * green_seq        -- images f_t of the Legendre family under the Green
                        operator, built both directly and via closed-form
                        expansion coefficients (must match exactly)
  * sobolev_three_term       -- k = 2, 3 (order-1 product):
                                s_{n+1} + a_n s_n + b~_n s_{n-1} = f_{n+1}
  * sobolev_four_term        -- k = 1 (order-1 product):
                                s_{n+3} + a_n s_{n+2} + b_n s_{n+1} + c_n s_n
                                    = f_{n+3} + d_n f_{n+2}
  * sobolev_three_term_sym   -- k = 1 alternative with in-family modified
                                right-hand sides; verified empirically against
                                Gram-Schmidt
  * sobolev_higher           -- k = 2, 3, order m >= 2:
                                G^m p_{n+1} = s_{n+m+1} + sum a_{n,l} s_{n+m-l}
  * associated_family        -- orthogonalized version of the {f_n}
  * limit_family_sym         -- the chi-independent large-chi limits of the
                                k = 1 Sobolev family

Every builder takes one step per degree through `_orthogonalize`: project a
candidate (a monomial, a Green image) onto a window of earlier members,
subtract, and keep the coefficients as the recurrence table.  The
subtraction is one `Poly.combination` over the window, in window order: the
integer numerators are brought to a common denominator and reduced by their
content after each member, so no intermediate sum outgrows the reduced
partial result.

Squared norms come from the leading monomial: a monic s_n orthogonal to
every lower degree of its family has |s_n|^2 = <s_n, P_{n,k}>, a product
against one monomial instead of a dense <s_n, s_n>.  gram_schmidt,
sobolev_three_term, sobolev_four_term and sobolev_higher use it; their
members are monic and the test suite checks them against Gram-Schmidt.
sobolev_three_term_sym keeps <s_n, s_n>: its recurrence is verified only
empirically, and a member that fails the check need not be orthogonal to
the lower degrees.  associated_family keeps it too, because its members are
not monic over the span of the lower degrees.

Gram-Schmidt families (Legendre among them) and Green images are memoized
per (params, family) and per family, extended on demand under one lock; each
f_t is checked against its closed form once, when first built.  Every call
returns fresh lists, so callers may modify results freely.

The k=1 four-term path divides by the corner normal derivative of f_{t}; that
quantity vanishing would break the construction, so it is asserted at every
step and a violation raises MathematicalAssumptionError.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .coeffs import TABLE
from .errors import ConsistencyError, MathematicalAssumptionError
from .inner import SobolevParams, extended_inner, mono_inner_l2, poly_inner
from .poly import Poly
from .rationals import ZERO, rat_str

L2 = SobolevParams.l2()


@dataclass
class OPFamily:
    """A monic orthogonal family with its exact squared norms.

    polys[n] is the unique monic degree-n polynomial of the family orthogonal
    to all lower degrees under `params`; norms_sq[n] is its exact squared norm.
    Recurrence-built families carry their coefficient tables in `recurrence`.
    Every builder call returns a new instance with its own lists.
    """

    family: int
    params: SobolevParams
    polys: list[Poly]
    norms_sq: list
    method: str = "gram-schmidt"
    recurrence: dict = field(default_factory=dict)

    def check_orthogonal(self) -> bool:
        """Exact pairwise orthogonality of the stored polynomials."""
        for i in range(len(self.polys)):
            for j in range(i):
                if extended_inner(self.params, self.polys[i], self.polys[j]) != 0:
                    return False
        return True

    def to_json_dict(self) -> dict:
        rec = {}
        for name, table in self.recurrence.items():
            if isinstance(table, dict):
                rec[name] = {
                    (",".join(map(str, k)) if isinstance(k, tuple) else str(k)):
                    rat_str(v) for k, v in sorted(table.items())
                }
            else:
                rec[name] = table
        return {
            "family": self.family,
            "params": self.params.to_json_dict(),
            "method": self.method,
            "polys": [p.to_json_dict() for p in self.polys],
            "norms_sq": [rat_str(v) for v in self.norms_sq],
            "recurrence": rec,
        }


def _orthogonalize(params: SobolevParams, f: Poly, polys: list[Poly],
                   norms: list, window) -> tuple[Poly, list]:
    """f minus its projections onto polys[i] for i in window, and the
    projection coefficients <f, polys[i]> / norms[i] in window order."""
    coefs = [extended_inner(params, f, polys[i]) / norms[i] for i in window]
    return f.combination([(-c, polys[i]) for i, c in zip(window, coefs)]), coefs


def _leading_norm(params: SobolevParams, s: Poly, family: int):
    """<s, s> for a monic s orthogonal to every lower degree of its family,
    as <s, P_{deg s, family}>: s - P_{deg s, family} lies in the span of the
    lower degrees, so it contributes nothing."""
    return extended_inner(params, s, Poly.monomial(s.degree, family))


_lock = threading.RLock()  # extension appends by index; builders nest
_gram_schmidt: dict[tuple[SobolevParams, int], tuple[list[Poly], list]] = {}
_green: dict[int, list[Poly]] = {}


def gram_schmidt(params: SobolevParams, family: int, maxdeg: int) -> OPFamily:
    """Monic orthogonal family by Gram-Schmidt over the monomials (normative)."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be >= 0")
    with _lock:
        polys, norms = _gram_schmidt.setdefault((params, family), ([], []))
        for n in range(len(polys), maxdeg + 1):
            v, _ = _orthogonalize(params, Poly.monomial(n, family), polys, norms,
                                  range(n))
            nv = _leading_norm(params, v, family)
            if nv <= 0:
                raise ConsistencyError(f"Gram-Schmidt norm not positive at degree {n}")
            polys.append(v)
            norms.append(nv)
        return OPFamily(family=family, params=params, polys=polys[:maxdeg + 1],
                        norms_sq=norms[:maxdeg + 1])


def legendre(family: int, maxdeg: int) -> OPFamily:
    """Monic orthogonal family for the plain L2 product."""
    fam = gram_schmidt(L2, family, maxdeg)
    fam.method = "legendre"
    return fam


def _zeta(family: int, leg_poly: Poly):
    """Harmonic-correction coefficient of the Green image of a Legendre polynomial."""
    if family == 1:
        return leg_poly.linear_form(lambda idx: 2 * TABLE.alpha(idx[0] + 1))
    if family == 2:
        return leg_poly.linear_form(lambda idx: 2 * TABLE.beta(idx[0] + 1))
    return leg_poly.linear_form(lambda idx: -2 * TABLE.gamma(idx[0] + 1))


def green_seq(family: int, count: int) -> list[Poly]:
    """[f_0, ..., f_count] with f_0 = 0 and f_t the Green image of p_{t-1}.

    Each f_t is computed twice: by applying the Green operator and via the
    closed-form expansion (degree shift of the Legendre coefficients plus the
    harmonic correction).  Any mismatch is a fatal consistency error.
    """
    corr_index = (0, 3) if family == 3 else (0, 2)
    with _lock:
        out = _green.setdefault(family, [Poly.zero()])
        leg = legendre(family, max(count - 1, 0))
        for t in range(len(out), count + 1):
            p = leg.polys[t - 1]
            direct = p.green()
            shifted = {(l + 1, k): w for (l, k), w in p.coeffs.items()}
            shifted[corr_index] = _zeta(family, p)
            if direct != Poly(shifted):
                raise ConsistencyError(f"Green image of degree {t - 1} disagrees "
                                       "with its closed-form expansion")
            out.append(direct)
        return out[:count + 1]


def legendre_recurrence_coeffs(family: int, n: int):
    """(b_n, c_n) with f_{n+1} = p_{n+1} + b_n p_n + c_n p_{n-1}, recovered by
    exact L2 projection; a nonzero residual is fatal."""
    leg = legendre(family, n + 1)
    f = green_seq(family, n + 1)[n + 1]
    residual, coefs = _orthogonalize(L2, f, leg.polys, leg.norms_sq,
                                     (n, n - 1) if n >= 1 else (0,))
    if not (residual - leg.polys[n + 1]).is_zero():
        raise ConsistencyError(f"three-term Legendre expansion of f_{n + 1} "
                               "has a nonzero residual")
    return coefs[0], (coefs[1] if n >= 1 else ZERO)


def sobolev_three_term(family: int, chi, maxdeg: int) -> OPFamily:
    """k = 2 or 3 Sobolev family via s_{n+1} = f_{n+1} - a_n s_n - b~_n s_{n-1}."""
    if family not in (2, 3):
        raise ValueError("three-term recurrence applies to families 2 and 3")
    params = SobolevParams.order1(chi)
    base = gram_schmidt(params, family, min(1, maxdeg))
    polys, norms = base.polys, base.norms_sq
    fs = green_seq(family, maxdeg)
    a: dict[int, object] = {}
    b_tilde: dict[int, object] = {}
    if maxdeg >= 1:
        _, (a[0],) = _orthogonalize(params, fs[1], polys, norms, (0,))
    for n in range(1, maxdeg):
        s_next, (a[n], b_tilde[n]) = _orthogonalize(params, fs[n + 1], polys,
                                                    norms, (n, n - 1))
        polys.append(s_next)
        norms.append(_leading_norm(params, s_next, family))
    return OPFamily(family=family, params=params, polys=polys, norms_sq=norms,
                    method="three-term", recurrence={"a": a, "b_tilde": b_tilde})


def corner_normal_of_green_image(t: int):
    """Normal derivative of f_t at q0 via the projection formula 2 <p_{t-1}, P_{0,2}>_2.

    Valid for t >= 2 (for t = 1 the mean of p_0 does not vanish and the
    formula does not apply).
    """
    if t < 2:
        raise ValueError("projection formula for the corner normal needs t >= 2")
    p = legendre(1, t - 1).polys[t - 1]
    return 2 * p.linear_form(lambda idx: mono_inner_l2((idx[0], 1), (0, 2)))


def sobolev_four_term(chi, maxdeg: int) -> OPFamily:
    """k = 1 Sobolev family via the four-term recurrence with Green images.

    The degree-raising step must stay inside the symmetric family, which
    requires cancelling the corner normal derivative between f_{n+3} and
    f_{n+2}; the divisor vanishing raises MathematicalAssumptionError.
    """
    params = SobolevParams.order1(chi)
    base = gram_schmidt(params, 1, min(2, maxdeg))
    polys, norms = base.polys, base.norms_sq
    if maxdeg <= 2:
        return OPFamily(family=1, params=params, polys=polys, norms_sq=norms,
                        method="four-term")
    leg = legendre(1, maxdeg - 1)
    fs = green_seq(1, maxdeg)
    a: dict[int, object] = {}
    b: dict[int, object] = {}
    c: dict[int, object] = {}
    d: dict[int, object] = {}
    for n in range(maxdeg - 2):
        dn_hi = fs[n + 3].normal_derivative(0)
        dn_lo = fs[n + 2].normal_derivative(0)
        if dn_hi != corner_normal_of_green_image(n + 3) or \
           dn_lo != corner_normal_of_green_image(n + 2):
            raise ConsistencyError("corner normal of a Green image disagrees "
                                   "with its projection formula")
        if dn_lo == 0:
            raise MathematicalAssumptionError(
                f"corner normal derivative of f_{n + 2} vanishes; "
                "the symmetric-family recurrence breaks down")
        d[n] = -dn_hi / dn_lo
        rhs = fs[n + 3].combination(((d[n], fs[n + 2]),))
        if rhs[(0, 2)] != 0:
            raise ConsistencyError("combined right-hand side left the symmetric family")
        # rhs has zero corner normals, so integrating by parts against the monic
        # antiderivative of s_n gives <rhs, s_n>_S = +d_n |p_{n+1}|^2 exactly.
        c[n] = d[n] * leg.norms_sq[n + 1] / norms[n]
        s_next, (a[n], b[n]) = _orthogonalize(params, rhs, polys, norms,
                                              (n + 2, n + 1))
        s_next = s_next.combination(((-c[n], polys[n]),))
        polys.append(s_next)
        norms.append(_leading_norm(params, s_next, 1))
    return OPFamily(family=1, params=params, polys=polys, norms_sq=norms,
                    method="four-term",
                    recurrence={"a": a, "b": b, "c": c, "d": d})


def green_seq_sym_infamily(count: int) -> list[Poly]:
    """Modified Green images for k = 1 that stay inside the symmetric family.

    The out-of-family harmonic correction of f_t is replaced by a constant
    multiple of P_{0,1} with coefficient -sum_l w_l alpha_{l+1}.
    """
    leg = legendre(1, max(count - 1, 0))
    out = [Poly.zero()]
    for t in range(1, count + 1):
        p = leg.polys[t - 1]
        shifted = {(l + 1, 1): w for (l, _k), w in p.coeffs.items()}
        shifted[(0, 1)] = -p.linear_form(lambda idx: TABLE.alpha(idx[0] + 1))
        out.append(Poly(shifted))
    return out


def sobolev_three_term_sym(chi, maxdeg: int) -> tuple[OPFamily, bool]:
    """k = 1 family via the three-term recurrence with in-family images.

    Returns (family, verified): `verified` reports exact agreement with the
    Gram-Schmidt construction, which remains the ground truth.  Disagreement
    is reported, not fatal.
    """
    params = SobolevParams.order1(chi)
    base = gram_schmidt(params, 1, min(1, maxdeg))
    polys, norms = base.polys, base.norms_sq
    fts = green_seq_sym_infamily(maxdeg)
    a: dict[int, object] = {}
    b: dict[int, object] = {}
    for n in range(1, maxdeg):
        s_next, (a[n], b[n]) = _orthogonalize(params, fts[n + 1], polys, norms,
                                              (n, n - 1))
        polys.append(s_next)
        norms.append(extended_inner(params, s_next, s_next))
    fam = OPFamily(family=1, params=params, polys=polys, norms_sq=norms,
                   method="three-term-sym", recurrence={"a": a, "b": b})
    reference = gram_schmidt(params, 1, maxdeg)
    verified = all(fam.polys[n] == reference.polys[n] for n in range(maxdeg + 1))
    fam.recurrence["verified_against_gram_schmidt"] = verified
    return fam, verified


def sobolev_higher(params: SobolevParams, family: int, maxdeg: int) -> OPFamily:
    """k = 2 or 3 family for an order-m product (m >= 2) via the generalized
    recurrence driven by m-fold Green images of the Legendre family."""
    if family not in (2, 3):
        raise ValueError("generalized recurrence applies to families 2 and 3")
    m = params.order
    if m < 2:
        raise ValueError("higher recurrence needs order >= 2")
    if params.chi[m] <= 0:
        raise ValueError("top Sobolev weight must be positive")
    base = gram_schmidt(params, family, min(m, maxdeg))
    polys, norms = base.polys, base.norms_sq
    if maxdeg <= m:
        return OPFamily(family=family, params=params, polys=polys,
                        norms_sq=norms, method="higher-recurrence")
    leg = legendre(family, maxdeg - m)
    a: dict[tuple[int, int], object] = {}
    for n in range(maxdeg - m):
        ls = range(min(2 * m, n + m + 1))
        s_next, coefs = _orthogonalize(params, leg.polys[n + 1].green_power(m),
                                       polys, norms, [n + m - l for l in ls])
        a.update(zip(((n, l) for l in ls), coefs))
        polys.append(s_next)
        norms.append(_leading_norm(params, s_next, family))
    return OPFamily(family=family, params=params, polys=polys, norms_sq=norms,
                    method="higher-recurrence", recurrence={"a": a})


def associated_family(chi, family: int, maxdeg: int) -> OPFamily:
    """Orthogonalized variant of the Green-image sequence {f_n}.

    f~_n = f_n + t_n f~_{n-1} + u_n f~_{n-2} with t_n, u_n chosen for exact
    pairwise orthogonality under the order-1 product (f~_0 = 0, f~_1 = f_1).
    """
    if family not in (2, 3):
        raise ValueError("associated family applies to families 2 and 3")
    params = SobolevParams.order1(chi)
    fs = green_seq(family, maxdeg)
    if maxdeg >= 2 and poly_inner(L2, fs[2], fs[1]) == 0:
        raise MathematicalAssumptionError(
            "<f_2, f_1>_2 vanishes; associated-family construction degenerates")
    polys = [Poly.zero()]
    norms = [ZERO]
    t: dict[int, object] = {}
    u: dict[int, object] = {}
    if maxdeg >= 1:
        polys.append(fs[1])
        norms.append(extended_inner(params, fs[1], fs[1]))
    for n in range(2, maxdeg + 1):
        v, coefs = _orthogonalize(params, fs[n], polys, norms,
                                  (n - 1, n - 2) if n >= 3 else (n - 1,))
        t[n] = -coefs[0]
        if n >= 3:
            u[n] = -coefs[1]
        polys.append(v)
        norms.append(extended_inner(params, v, v))
    for i in range(1, maxdeg + 1):
        for j in range(1, i):
            if poly_inner(params, polys[i], polys[j]) != 0:
                raise ConsistencyError(
                    f"associated family failed exact orthogonality at ({i},{j})")
    return OPFamily(family=family, params=params, polys=polys, norms_sq=norms,
                    method="associated", recurrence={"t": t, "u": u})


def limit_family_sym(maxdeg: int) -> list[Poly]:
    """The chi-independent limits g_n of the k = 1 Sobolev polynomials.

    g_0 = p_0, g_1 = p_1; the degree-2 and degree-3 members remove the mean
    against g_0 from the combined Green images, and from degree 4 on
    g_{n+3} = f_{n+3} + d_n (f_{n+2} - g_{n+2}).
    """
    leg = legendre(1, max(maxdeg - 1, 1))
    fs = green_seq(1, maxdeg)
    gs = [leg.polys[0]]
    if maxdeg >= 1:
        gs.append(leg.polys[1])

    def d_coef(n: int):
        hi = fs[n + 3].normal_derivative(0)
        lo = fs[n + 2].normal_derivative(0)
        if lo == 0:
            raise MathematicalAssumptionError(
                f"corner normal derivative of f_{n + 2} vanishes")
        return -hi / lo

    for deg in range(2, maxdeg + 1):
        n = deg - 3
        if deg in (2, 3):
            dd = d_coef(n)  # n = -1 or 0; f_1 onward exist
            comb, _ = _orthogonalize(L2, fs[deg].combination(((dd, fs[deg - 1]),)),
                                     leg.polys, leg.norms_sq, (0,))
            g = comb.combination(((-dd, gs[deg - 1]),))
        else:
            dd = d_coef(n)
            g = fs[deg].combination(((dd, fs[deg - 1]), (-dd, gs[deg - 1])))
        gs.append(g)
    return gs
