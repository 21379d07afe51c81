"""Construction of Legendre and Sobolev orthogonal polynomial families.

Gram-Schmidt over the monomial sequence builds every family.  The paper's
recurrences are not a second construction: the recurrence builders take
their members and norms from the memoized Gram-Schmidt family and read each
recurrence coefficient off it as an exact projection.

`recurrence_steps` is the one definition of each recurrence.  The builders
fill their tables from its steps, and `acceptance.check_recurrence_equivalence`
rebuilds every member from the same steps (its Green image, the reported
coefficients and the lower members) and compares it with Gram-Schmidt.

Builders:
  * gram_schmidt     -- any family, any inner-product parameters
  * legendre         -- plain L2 (the chi-independent reference family)
  * green_seq        -- images f_t = G p_{t-1} of the Legendre family under
                        the Green operator, each checked to vanish at the
                        three corners and to have Laplacian p_{t-1}
  * sobolev_three_term       -- k = 2, 3, order-1 product, three-term table
  * sobolev_four_term        -- k = 1, order-1 product, four-term table
  * sobolev_higher           -- k = 2, 3, order m >= 2, 2m-term table
  * associated_family        -- orthogonalized version of the {f_n}
  * limit_family_sym         -- the chi-independent large-chi limits of the
                                k = 1 Sobolev family

Gram-Schmidt takes one step per degree through `_orthogonalize`: project the
monomial onto every earlier member and subtract, in one `Poly.combination`
(the integer numerators are brought to a common denominator and reduced by
their content after each member).

Recurrence coefficients by projection.  Each coefficient is
<G^m u, s_i>_{S^m} / |s_i|^2 for a Gram-Schmidt member s_i, where u is a
Legendre polynomial p_t of the family (or, for k = 1, a combination of two).
G is self-adjoint in L2(mu), Lap^r G^m = G^{m-r} for r <= m, and p_t is
L2-orthogonal to every lower degree of its family.  G^{m-r} P_{d,k} is
P_{d+m-r,k} plus Green corrections of degree below m - r, so for t >= m

    <G^m p_t, s>_{S^m} = sum_j s_j sum_r chi_r nu_t(j + m - 2r),
    nu_t(d) = <p_t, P_{d,k}>_2,  which is 0 for d < t.

Only the top 2m or so coefficients of s enter, and each build computes every
nu_t(d) once, so a coefficient costs a few rational products instead of a
dense product.  For
k = 1, G leaves the family through P_{0,2} (G P_{l,1} = P_{l+1,1} +
2 alpha_{l+1} P_{0,2}), so the r = 0 term gains sigma(s) <u, P_{0,2}>_2 with
sigma(s) the P_{0,2} coefficient of G s; the four-term d_n is chosen to make
<u, P_{0,2}>_2 vanish (see sobolev_four_term).  The first steps, where
t < m, take the dense product of G^m u with s_i.

Squared norms come from the leading monomial: a monic s_n orthogonal to
every lower degree of its family has |s_n|^2 = <s_n, P_{n,k}>, a product
against one monomial instead of a dense <s_n, s_n>.  associated_family keeps
<s_n, s_n>, because its members are not monic over the span of the lower
degrees.

Gram-Schmidt families (Legendre among them) and Green images are memoized
per (params, family) and per family, extended on demand under one lock.  Every call returns
fresh lists, so callers may modify results freely.
"""

from __future__ import annotations

import threading

from .errors import ConsistencyError, MathematicalAssumptionError
from .inner import SobolevParams, mono_inner_l2, poly_inner
from .poly import Poly
from .rationals import ZERO, rat_str

L2 = SobolevParams.l2()


class OPFamily:
    """A monic orthogonal family with its exact squared norms.

    polys[n] is the unique monic degree-n polynomial of the family orthogonal
    to all lower degrees under `params`; norms_sq[n] is its exact squared norm.
    The recurrence builders add their coefficient tables in `recurrence`.
    Every builder call returns a new instance with its own lists.
    """

    def __init__(self, family: int, params: SobolevParams, polys: list[Poly],
                 norms_sq: list, method: str = "gram-schmidt",
                 recurrence: dict | None = None):
        self.family = family
        self.params = params
        self.polys = polys
        self.norms_sq = norms_sq
        self.method = method
        self.recurrence = {} if recurrence is None else recurrence

    def check_orthogonal(self) -> bool:
        """Exact pairwise orthogonality of the stored polynomials."""
        for i in range(len(self.polys)):
            for j in range(i):
                if poly_inner(self.params, self.polys[i], self.polys[j]) != 0:
                    return False
        return True

    def to_json_dict(self) -> dict:
        rec = {name: {(",".join(map(str, k)) if isinstance(k, tuple) else str(k)):
                      rat_str(v) for k, v in sorted(table.items())}
               for name, table in self.recurrence.items()}
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
    coefs = [poly_inner(params, f, polys[i]) / norms[i] for i in window]
    return f.combination([(-c, polys[i]) for i, c in zip(window, coefs)]), coefs


def _leading_norm(params: SobolevParams, s: Poly, family: int):
    """<s, s> for a monic s orthogonal to every lower degree of its family,
    as <s, P_{deg s, family}>: s - P_{deg s, family} lies in the span of the
    lower degrees, so it contributes nothing."""
    return poly_inner(params, s, Poly.monomial(s.degree, family))


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


def green_seq(family: int, count: int) -> list[Poly]:
    """[f_0, ..., f_count] with f_0 = 0 and f_t the Green image of p_{t-1}.

    Each f_t is checked against the two properties that define the Dirichlet
    Green image, independently of how `Poly.green` computes it: it vanishes
    at the three corners and its Laplacian is p_{t-1}.  A failure is a fatal
    consistency error.
    """
    with _lock:
        out = _green.setdefault(family, [Poly.zero()])
        if len(out) <= count:  # Legendre members are built only to extend
            leg = legendre(family, count - 1)
            for t in range(len(out), count + 1):
                p = leg.polys[t - 1]
                f = p.green()
                if any(f.boundary_value(v) != 0 for v in (0, 1, 2)) or f.laplacian() != p:
                    raise ConsistencyError(f"Green image of degree {t - 1} is not "
                                           "the Dirichlet solution of Lap f = p")
                out.append(f)
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


def recurrence_steps(method: str, m: int, maxdeg: int) -> list:
    """The steps (degree, u, entries) of the recurrence `method` (an
    OPFamily.method) of an order-m family to degree maxdeg:

        s_degree = G^m sum(w p_t for t, w in u) - sum(c_i s_i for i in entries)

    with c_i = table[key] for each entry (table, key, i) and each w of u
    either 1 or read from the (table, key) given in its place.  So
      three-term         s_{n+1} + a_n s_n + b~_n s_{n-1} = f_{n+1}
      four-term          s_{n+3} + a_n s_{n+2} + b_n s_{n+1} + c_n s_n
                             = f_{n+3} + d_n f_{n+2}
      higher-recurrence  G^m p_{n+1} = s_{n+m+1} + sum_{l<2m} a_{n,l} s_{n+m-l}
    """
    if method == "three-term":
        return [(n + 1, ((n, None),),
                 [("a", n, n)] + ([("b_tilde", n, n - 1)] if n else []))
                for n in range(maxdeg)]
    if method == "four-term":
        return [(n + 3, ((n + 2, None), (n + 1, ("d", n))),
                 [("a", n, n + 2), ("b", n, n + 1), ("c", n, n)])
                for n in range(maxdeg - 2)]
    if method == "higher-recurrence":
        return [(n + m + 1, ((n + 1, None),),
                 [("a", (n, l), n + m - l) for l in range(min(2 * m, n + m + 1))])
                for n in range(maxdeg - m)]
    raise ValueError(f"no recurrence for method {method!r}")


def step_weights(u, tables) -> list:
    """A step's Legendre combination u as [(t, w)], each w read from `tables`."""
    return [(t, 1 if ref is None else tables[ref[0]][ref[1]]) for t, ref in u]


def _read_tables(fam: OPFamily, leg: list[Poly], tables: dict) -> OPFamily:
    """fam with its recurrence table read off by projection, leg[t] being the
    Legendre p_t: the entry (table, key, i) of a step is
    <G^m u, s_i>_{S^m} / |s_i|^2.  With every t of u >= m the product takes
    the moment form of the module docstring, which leaves out the k = 1 term
    sigma(s) <u, P_{0,2}>_2 that the four-term d_n makes vanish; otherwise it
    is the dense product.  `tables` holds every table in output order, the
    ones the steps only read already filled."""
    params, m = fam.params, fam.params.order
    nu = {}

    def moment(u, d):  # <u, P_{d,k}>_2, each nu_t(d) = <p_t, P_{d,k}>_2 once
        for t, _ in u:
            if t <= d and (t, d) not in nu:
                nu[t, d] = leg[t].linear_form(lambda idx: mono_inner_l2(idx, (d, fam.family)))
        return sum((w * nu[t, d] for t, w in u if t <= d), ZERO)

    for _, u, entries in recurrence_steps(fam.method, m, len(fam.polys) - 1):
        u = step_weights(u, tables)
        low = min(t for t, _ in u)
        image = (Poly.zero().combination([(w, leg[t].green_power(m)) for t, w in u])
                 if low < m else None)
        for name, key, i in entries:
            s = fam.polys[i]
            if image is not None:
                product = poly_inner(params, image, s)
            else:
                product = ZERO
                for r, chi in enumerate(params.chi):
                    if chi:
                        product += chi * sum((x * moment(u, j + m - 2 * r) for (j, _), x
                                              in s.nums.items() if j + m - 2 * r >= low), ZERO)
                product /= s.den
            tables[name][key] = product / fam.norms_sq[i]
    fam.recurrence = tables
    return fam


def sobolev_three_term(family: int, chi, maxdeg: int) -> OPFamily:
    """k = 2 or 3 Sobolev family with the table of
    s_{n+1} = f_{n+1} - a_n s_n - b~_n s_{n-1}, read off by projection."""
    if family not in (2, 3):
        raise ValueError("three-term recurrence applies to families 2 and 3")
    fam = gram_schmidt(SobolevParams.order1(chi), family, maxdeg)
    fam.method = "three-term"
    return _read_tables(fam, legendre(family, max(maxdeg - 1, 0)).polys,
                        {"a": {}, "b_tilde": {}})


def corner_normal_of_green_image(t: int, leg: list[Poly] | None = None):
    """Normal derivative of f_t at q0 via the projection formula 2 <p_{t-1}, P_{0,2}>_2,
    with p_{t-1} = leg[t - 1] (the k = 1 Legendre family, built if not given).

    Valid for t >= 2 (for t = 1 the mean of p_0 does not vanish and the
    formula does not apply).
    """
    if t < 2:
        raise ValueError("projection formula for the corner normal needs t >= 2")
    p = (legendre(1, t - 1).polys if leg is None else leg)[t - 1]
    return 2 * p.linear_form(lambda idx: mono_inner_l2((idx[0], 1), (0, 2)))


def _d_coef(normals: list, n: int):
    """d_n = -dn f_{n+3}(q0) / dn f_{n+2}(q0), with normals[t] = dn f_t(q0)."""
    if normals[n + 2] == 0:
        raise MathematicalAssumptionError(
            f"corner normal derivative of f_{n + 2} vanishes; "
            "the symmetric-family recurrence breaks down")
    return -normals[n + 3] / normals[n + 2]


def sobolev_four_term(chi, maxdeg: int) -> OPFamily:
    """k = 1 Sobolev family with the four-term table, read off by projection.

    The right-hand side f_{n+3} + d_n f_{n+2} = G u, u = p_{n+2} + d_n p_{n+1},
    must stay inside the symmetric family, which requires cancelling the
    corner normal derivative between f_{n+3} and f_{n+2}; the divisor
    vanishing raises MathematicalAssumptionError.
    """
    fam = gram_schmidt(SobolevParams.order1(chi), 1, maxdeg)
    fam.method = "four-term"
    if maxdeg <= 2:
        return fam
    leg = legendre(1, maxdeg - 1).polys
    normals = [f.normal_derivative(0) for f in green_seq(1, maxdeg)]
    if any(normals[t] != corner_normal_of_green_image(t, leg)
           for t in range(2, maxdeg + 1)):
        raise ConsistencyError("corner normal of a Green image disagrees "
                               "with its projection formula")
    # the corner normal of G u is 2 <u, P_{0,2}>_2, so d_n makes the
    # out-of-family term that _read_tables leaves out vanish
    d = {n: _d_coef(normals, n) for n in range(maxdeg - 2)}
    return _read_tables(fam, leg, {"a": {}, "b": {}, "c": {}, "d": d})


def sobolev_higher(params: SobolevParams, family: int, maxdeg: int) -> OPFamily:
    """k = 2 or 3 family for an order-m product (m >= 2) with the table of
    the generalized recurrence driven by m-fold Green images of the Legendre
    family, read off by projection."""
    if family not in (2, 3):
        raise ValueError("generalized recurrence applies to families 2 and 3")
    m = params.order
    if m < 2:
        raise ValueError("higher recurrence needs order >= 2")
    if params.chi[m] <= 0:
        raise ValueError("top Sobolev weight must be positive")
    fam = gram_schmidt(params, family, maxdeg)
    fam.method = "higher-recurrence"
    if maxdeg <= m:
        return fam
    return _read_tables(fam, legendre(family, maxdeg - m).polys, {"a": {}})


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
        norms.append(poly_inner(params, fs[1], fs[1]))
    for n in range(2, maxdeg + 1):
        v, coefs = _orthogonalize(params, fs[n], polys, norms,
                                  (n - 1, n - 2) if n >= 3 else (n - 1,))
        t[n] = -coefs[0]
        if n >= 3:
            u[n] = -coefs[1]
        polys.append(v)
        norms.append(poly_inner(params, v, v))
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

    normals = [f.normal_derivative(0) for f in fs]
    for deg in range(2, maxdeg + 1):
        dd = _d_coef(normals, deg - 3)
        if deg in (2, 3):  # n = -1 or 0; f_1 onward exist
            comb, _ = _orthogonalize(L2, fs[deg].combination(((dd, fs[deg - 1]),)),
                                     leg.polys, leg.norms_sq, (0,))
            g = comb.combination(((-dd, gs[deg - 1]),))
        else:
            g = fs[deg].combination(((dd, fs[deg - 1]), (-dd, gs[deg - 1])))
        gs.append(g)
    return gs
