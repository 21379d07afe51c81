"""Exact property suite: every guarantee of the package as a runnable check.

Each check returns a CheckResult; `run_all` executes the battery.  Two checks
carry a documented mathematical exception (marked expected_fail):

  * the strict norm chain |p_n|_2 < |s_n|_2 fails at n = 1 because the
    degree-1 Sobolev and L2 orthogonal polynomials coincide identically
    (the Laplacian of a degree-1 monomial is constant, so both projections
    agree), making the first comparison an exact equality;
  * the combined corner identity dn f_t(q0) + 2 dn f_t(q1) = 0 for the
    symmetric family fails at t = 1, where the defect equals the mean of
    p_0 (which is 1, not 0); the identity needs the mean of p_{t-1} to
    vanish, true only from t = 2 on.

Both exceptions are verified as exact equalities, not tolerances.
"""

from __future__ import annotations

import math
import time

from .coeffs import TABLE
from .families import (associated_family, gram_schmidt, green_seq, legendre,
                       recurrence_steps, sobolev_four_term, sobolev_higher,
                       sobolev_three_term, step_weights)
from .grid import count_sign_changes, restrict_edge
from .inner import SobolevParams, mono_inner_l2, poly_inner
from .interp import (degenerate_spine_nodes, eval_monomial_at,
                     interpolation_matrix, quadrature_error_study,
                     quadrature_weights, spine_nodes, v1_nodes)
from .linalg import bareiss_det
from .odes import chi_asymptotics, higher_ode_residual, ode_residual
from .poly import Poly
from .rationals import Rat, ZERO, rat_str
from .solver import eval_poly_grid
from .addresses import spine_address

L2 = SobolevParams.l2()


class CheckResult:
    def __init__(self, name: str, passed: bool, detail: str = "",
                 expected_fail: bool = False, report_only: bool = False,
                 seconds: float = 0.0):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.expected_fail = expected_fail
        self.report_only = report_only
        self.seconds = seconds

    @property
    def status(self) -> str:
        if self.report_only:
            return "REPORT"
        if self.passed:
            return "PASS"
        return "FAIL (documented)" if self.expected_fail else "FAIL"

    @property
    def ok(self) -> bool:
        """True unless this is an unexpected failure."""
        return self.report_only or self.passed or self.expected_fail


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    out.seconds = time.perf_counter() - t0
    return out


def check_orthogonality(maxdeg: int = 8) -> CheckResult:
    """Every off-diagonal Sobolev inner product is the exact rational zero."""
    params = SobolevParams.order1(1)
    for fam in (1, 2, 3):
        ops = gram_schmidt(params, fam, maxdeg)
        for i in range(maxdeg + 1):
            for j in range(i):
                v = poly_inner(params, ops.polys[i], ops.polys[j])
                if v != 0:
                    return CheckResult("exact-orthogonality", False,
                                       f"family {fam}: <s_{i}, s_{j}> = {rat_str(v)}")
    return CheckResult("exact-orthogonality", True,
                       f"families 1,2,3, chi=1, degrees <= {maxdeg}")


def _recurrence_failure(fam) -> str:
    """'' when the recurrence table of `fam` rebuilds its Gram-Schmidt
    members, else where it fails.  Each member a recurrence step produces is
    formed from the step's Green image, the reported coefficients and the
    lower Gram-Schmidt members; k=1 right-hand sides must also stay in the
    symmetric family, with a vanishing corner normal at q0."""
    maxdeg, m, tab = len(fam.polys) - 1, fam.params.order, fam.recurrence
    gs = gram_schmidt(fam.params, fam.family, maxdeg).polys
    if fam.polys != gs:
        return "members differ from Gram-Schmidt"
    steps = recurrence_steps(fam.method, m, maxdeg)
    named = {ref for _, u, entries in steps
             for ref in [r for _, r in u if r] + [e[:2] for e in entries]}
    if {(name, key) for name, table in tab.items() for key in table} != named:
        return "table does not cover the recurrence windows"
    leg = legendre(fam.family, max(maxdeg - 1, 0)).polys
    for degree, u, entries in steps:
        image = Poly.zero().combination([(w, leg[t].green_power(m))
                                         for t, w in step_weights(u, tab)])
        if fam.family == 1 and (image[(0, 2)] != 0 or image.normal_derivative(0) != 0):
            return f"right-hand side of degree {degree} left the symmetric family"
        if image.combination([(-tab[name][key], gs[i])
                              for name, key, i in entries]) != gs[degree]:
            return f"table does not rebuild s_{degree}"
    return ""


def check_recurrence_equivalence(maxdeg: int = 8, higher_maxdeg: int = 7) -> CheckResult:
    """The recurrence tables rebuild Gram-Schmidt coefficient-for-coefficient."""
    p2 = SobolevParams([1, 1, 1])
    for label, build in (
            ("three-term family 2", lambda: sobolev_three_term(2, 1, maxdeg)),
            ("three-term family 3", lambda: sobolev_three_term(3, 1, maxdeg)),
            ("four-term family 1", lambda: sobolev_four_term(1, maxdeg)),
            ("order-2 recurrence family 2", lambda: sobolev_higher(p2, 2, higher_maxdeg)),
            ("order-2 recurrence family 3", lambda: sobolev_higher(p2, 3, higher_maxdeg))):
        failure = _recurrence_failure(build())
        if failure:
            return CheckResult("recurrence-equals-gram-schmidt", False,
                               f"{label} deviates: {failure}")
    return CheckResult("recurrence-equals-gram-schmidt", True,
                       f"k=2,3 and k=1 to degree {maxdeg}; order-2 to degree {higher_maxdeg}")


def check_ode_identities(nmax: int = 6, higher_nmax: int = 4) -> CheckResult:
    """Differential-equation residuals are identically zero."""
    for fam in (2, 3):
        for chi in (Rat(1), Rat(1, 2)):
            for n in range(nmax + 1):
                if not ode_residual(n, chi, fam).is_zero():
                    return CheckResult("ode-identities", False,
                                       f"order-1 residual n={n} k={fam} chi={rat_str(chi)}")
    p2 = SobolevParams([1, 1, 1])
    for fam in (2, 3):
        for n in range(2, higher_nmax + 1):
            if not higher_ode_residual(n, p2, fam).is_zero():
                return CheckResult("ode-identities", False,
                                   f"order-2 residual n={n} k={fam}")
    return CheckResult("ode-identities", True,
                       f"n <= {nmax} (order 1), n <= {higher_nmax} (order 2)")


def check_coefficient_identities(nmax: int = 8) -> CheckResult:
    """b~_n = <f_{n+1}, s_{n-1}>_S/|s_{n-1}|_S^2 = |p_n|_2^2/|s_{n-1}|_S^2 > 0 and
    c_n = |p_n|^2/|p_{n-1}|^2, exactly, against dense products."""
    for fam in (2, 3):
        sob = sobolev_three_term(fam, 1, nmax + 1)
        leg = legendre(fam, nmax + 1)
        fs = green_seq(fam, nmax + 1)
        for n in range(1, nmax + 1):
            bt = sob.recurrence["b_tilde"][n]
            s = sob.polys[n - 1]
            ss = poly_inner(sob.params, s, s)
            p = leg.polys[n]
            if not (bt == poly_inner(sob.params, fs[n + 1], s) / ss
                    == poly_inner(L2, p, p) / ss > 0):
                return CheckResult("coefficient-identities", False,
                                   f"b~_{n} family {fam}")
        for n in range(2, nmax + 1):
            c = poly_inner(L2, fs[n + 1], leg.polys[n - 1]) / leg.norms_sq[n - 1]
            if c != leg.norms_sq[n] / leg.norms_sq[n - 1]:
                return CheckResult("coefficient-identities", False,
                                   f"c_{n} family {fam}")
    return CheckResult("coefficient-identities", True, f"1 <= n <= {nmax}, families 2,3")


def check_corner_canaries(tmax: int = 9) -> list[CheckResult]:
    """Corner normal-derivative identities of the Green images."""
    out = []
    ok = True
    detail = ""
    for fam in (2, 3):
        fs = green_seq(fam, tmax)
        for t in range(2, tmax + 1):
            if fs[t].normal_derivative(1) != 0 or fs[t].normal_derivative(2) != 0:
                ok, detail = False, f"dn f_{t} (family {fam}) at q1/q2 is nonzero"
    fs1 = green_seq(1, tmax)
    for t in range(2, tmax + 1):
        if fs1[t].normal_derivative(0) + 2 * fs1[t].normal_derivative(1) != 0:
            ok, detail = False, f"k=1 corner combination fails at t={t}"
    out.append(CheckResult("corner-canaries", ok,
                           detail or f"families 2,3 and k=1 combination, 2 <= t <= {tmax}"))
    defect = fs1[1].normal_derivative(0) + 2 * fs1[1].normal_derivative(1)
    out.append(CheckResult(
        "corner-canaries-t1", defect == 0,
        f"k=1 combination at t=1 equals {rat_str(defect)} (the mean of p_0), not 0",
        expected_fail=True))
    return out


def check_almost_orthogonality(nmax: int = 10) -> CheckResult:
    """<f_n, f_m>_S = 0 exactly for |n-m| >= 3; associated family orthogonal.

    This is a property of the in-family Green images, so it concerns families
    2 and 3 (the k=1 images carry cross-family harmonic parts and are not even
    almost orthogonal).
    """
    params = SobolevParams.order1(1)
    for fam in (2, 3):
        fs = green_seq(fam, nmax)
        for n in range(nmax + 1):
            for m in range(n + 3, nmax + 1):
                if poly_inner(params, fs[n], fs[m]) != 0:
                    return CheckResult("almost-orthogonality", False,
                                       f"<f_{n}, f_{m}> != 0 (family {fam})")
        associated_family(1, fam, 8)  # raises if orthogonality fails
    return CheckResult("almost-orthogonality", True,
                       f"|n-m| >= 3 up to {nmax}, families 2,3; associated family to degree 8")


def _norm_chain(fam: int, nmax: int) -> tuple[int | None, int | None]:
    """The first n at which family `fam` breaks the chain, read strictly and
    read with the exact equality s_1 = p_1 at n = 1; None where it holds."""
    params = SobolevParams.order1(1)
    gs = gram_schmidt(params, fam, nmax)
    leg = legendre(fam, nmax)
    strict = corrected = None
    for n in range(1, nmax + 1):
        p2 = leg.norms_sq[n]
        s2 = poly_inner(L2, gs.polys[n], gs.polys[n])
        ss = gs.norms_sq[n]
        cap = mono_inner_l2((n, fam), (n, fam)) + mono_inner_l2((n - 1, fam), (n - 1, fam))
        upper_ok = s2 < ss and ss < cap
        first_ok = (p2 == s2 and gs.polys[1] == leg.polys[1]) if n == 1 else p2 < s2
        if strict is None and not (p2 < s2 and upper_ok):
            strict = n
        if corrected is None and not (first_ok and upper_ok):
            corrected = n
        if strict is not None and corrected is not None:
            break
    return strict, corrected


def check_norm_chain(nmax: int = 10) -> list[CheckResult]:
    """|p_n|_2^2 < |s_n|_2^2 < |s_n|_S^2 < |P_n|_2^2 + chi |P_{n-1}|_2^2."""
    firsts = {fam: _norm_chain(fam, nmax) for fam in (1, 2, 3)}
    strict = [f"family {fam}, n={n}" for fam, (n, _) in firsts.items() if n is not None]
    return [
        CheckResult("norm-chain-strict", not strict,
                    (strict[-1] if strict else "") + " (s_1 = p_1 identically, so "
                    "the first comparison is an exact equality at n=1)",
                    expected_fail=True),
        CheckResult("norm-chain", all(n is None for _, n in firsts.values()),
                    f"strict for 2 <= n <= {nmax}; exact equality s_1 = p_1 "
                    "verified at n=1")]


def check_chi_asymptotics() -> CheckResult:
    """|s_3(.,1e3) - f_3|_2 / |s_3(.,1e5) - f_3|_2 lies in [50, 200] (exact)."""
    rep = chi_asymptotics(3, 3, [1000, 100000])
    e1 = Rat(rep["rows"][0]["err_sq"])
    e2 = Rat(rep["rows"][1]["err_sq"])
    ratio_sq = e1 / e2
    ok = Rat(2500) <= ratio_sq <= Rat(40000)
    return CheckResult("chi-asymptotics-rate", ok,
                       f"squared error ratio = {float(ratio_sq):.1f} "
                       "(theoretical 10000), bounds [2500, 40000]")


def check_quadrature_order() -> CheckResult:
    """Composite-rule errors for a degree-2 integrand decay near 5^2 per level."""
    f = Poly.monomial(2, 1)
    exact = f.integral()
    if exact != 2 * TABLE.eta(3):
        return CheckResult("quadrature-order", False, "reference integral mismatch")
    rows = quadrature_error_study(1, f, 4)
    ratios = [row["ratio"] for row in rows if "ratio" in row]
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        return CheckResult("quadrature-order", False, "missing error ratios")
    product = ratios[0] * ratios[1] * ratios[2]
    ok = Rat(15) ** 3 <= product <= Rat(40) ** 3
    gm = float(product) ** (1.0 / 3.0)
    return CheckResult("quadrature-order", ok,
                       f"ratios {[f'{float(r):.1f}' for r in ratios]}, "
                       f"geometric mean {gm:.1f} in [15, 40]")


def check_quadrature_exactness(nmax: int = 3) -> CheckResult:
    """Rules integrate every monomial of degree <= n with exactly zero residual."""
    for n in range(nmax + 1):
        rule = quadrature_weights(n)
        for j in range(n + 1):
            for k in (1, 2, 3):
                values = [eval_monomial_at(j, k, a) for a in rule.nodes.nodes]
                if rule.apply(values) != TABLE.integral(j, k):
                    return CheckResult("quadrature-exactness", False,
                                       f"residual at n={n}, P_({j},{k})")
    r0 = quadrature_weights(0)
    if list(r0.weights) != [ZERO, Rat(5, 6), Rat(1, 6)]:
        return CheckResult("quadrature-exactness", False, "order-0 weights differ")
    # order-0 rule on a harmonic basis function h_i: equals the corner mean
    for i in range(3):
        b = [Rat(1) if v == i else ZERO for v in range(3)]
        node_vals = [b[1], (2 * b[0] + 2 * b[1] + b[2]) / 5, b[2]]
        if r0.apply(node_vals) != Rat(1, 3) * sum(b, ZERO):
            return CheckResult("quadrature-exactness", False,
                               "order-0 rule breaks the corner-mean identity")
    return CheckResult("quadrature-exactness", True,
                       f"n <= {nmax}; order-0 rule is (0, 5/6, 1/6) and "
                       "reproduces the harmonic corner-mean identity")


def check_evaluation_convergence() -> CheckResult:
    """Grid evaluation of P_{j,1} converges on the spine as the solve level grows."""
    errs = {}
    rels = {}
    for lvl in (5, 6, 7, 8):
        worst = ZERO
        worst_rel = ZERO
        for j in range(4):
            mono = Poly.monomial(j, 1)
            fld = eval_poly_grid(mono, 4, lvl)
            ref_max = ZERO
            err = ZERO
            for depth in range(5):
                for target in (1, 2):
                    exact = mono.eval_spine(depth, target)
                    approx = fld.value_at(spine_address(depth, target))
                    err = max(err, abs(approx - exact))
                    ref_max = max(ref_max, abs(exact))
            worst = max(worst, err)
            if ref_max != 0 and err != 0:
                worst_rel = max(worst_rel, err / ref_max)
        errs[lvl] = worst
        rels[lvl] = worst_rel
    monotone = all(errs[l + 1] <= errs[l] for l in (5, 6, 7))
    final_ok = rels[8] < Rat(1, 100)
    order = (math.log(float(errs[5]) / float(errs[8])) / math.log(5.0) / 3.0
             if errs[8] != 0 else float("inf"))
    return CheckResult("evaluation-convergence", monotone and final_ok,
                       f"max spine error {float(errs[5]):.2e} -> {float(errs[8]):.2e} "
                       f"(solve 5 -> 8), relative {float(rels[8]):.2e} < 1e-2, "
                       f"empirical order {order:.2f} in 5^-level")


def check_interpolation(nmax: int = 3, beta_range: int = 50) -> CheckResult:
    """Spine matrices invertible, degenerate set singular, level-1 set well separated."""
    if any(TABLE.beta(j) == 0 for j in range(beta_range + 1)):
        return CheckResult("interpolation", False, "a beta coefficient vanishes")
    for n in range(nmax + 1):
        if bareiss_det(interpolation_matrix(spine_nodes(n)).entries) == 0:
            return CheckResult("interpolation", False, f"spine matrix n={n}")
    if bareiss_det(interpolation_matrix(degenerate_spine_nodes(1)).entries) != 0:
        return CheckResult("interpolation", False, "degenerate node set not singular")
    v1_det = bareiss_det(interpolation_matrix(v1_nodes()).entries)
    if abs(v1_det) <= Rat(1, 10**8):
        return CheckResult("interpolation", False, "level-1 determinant too small")
    return CheckResult("interpolation", True,
                       f"spine n <= {nmax} invertible (beta_j != 0 checked to "
                       f"j={beta_range}); degenerate set singular; "
                       f"|det V1| = {float(abs(v1_det)):.3e} > 1e-8")


def zero_count_report(level: int = 5, degrees=(3, 5), chi=1) -> CheckResult:
    """Edge sign-change counts and max-norm ratios (report only, not gated)."""
    lines = []
    for fam in (3,):
        leg = legendre(fam, max(degrees))
        sob = sobolev_three_term(fam, chi, max(degrees))
        fields = {}
        for d in degrees:
            for label, poly in (("p", leg.polys[d]), ("s", sob.polys[d])):
                fld = eval_poly_grid(poly, level)
                fields[(label, d)] = fld
                counts = {}
                for edge in ("bottom", "left", "right"):
                    vals = restrict_edge(fld, edge)
                    ch, zr = count_sign_changes(vals)
                    counts[edge] = (ch, zr)
                lines.append(f"{label}_{d} (k={fam}, level {level}): " + ", ".join(
                    f"{e}: {c[0]} changes/{c[1]} zeros" for e, c in counts.items()))
        mags = []
        for d in degrees:
            for label in ("p", "s"):
                mags.append(f"max|{label}_{d}| = {float(fields[(label, d)].max_abs()):.2e}")
        lines.append("magnitudes (k=%d): %s" % (fam, ", ".join(mags)))
        d = max(degrees)
        ratio = fields[("s", d)].max_abs() / fields[("p", d)].max_abs()
        lines.append(f"same-degree max-norm ratio |s_{d}|/|p_{d}| = {float(ratio):.2e}")
    return CheckResult("zero-count-report", True, "; ".join(lines), report_only=True)


def run_all(include_slow: bool = True, zero_report_level: int = 5) -> list[CheckResult]:
    checks = [
        lambda: check_orthogonality(),
        lambda: check_recurrence_equivalence(),
        lambda: check_ode_identities(),
        lambda: check_coefficient_identities(),
        lambda: check_almost_orthogonality(),
        lambda: check_chi_asymptotics(),
        lambda: check_quadrature_exactness(),
        lambda: check_interpolation(),
    ]
    results: list[CheckResult] = []
    for fn in checks:
        results.append(_timed(fn))
    for fn in (check_corner_canaries, check_norm_chain):
        t0 = time.perf_counter()
        batch = fn()
        for r in batch:
            r.seconds = (time.perf_counter() - t0) / len(batch)
        results.extend(batch)
    if include_slow:
        results.append(_timed(check_quadrature_order))
        results.append(_timed(check_evaluation_convergence))
        results.append(_timed(lambda: zero_count_report(zero_report_level)))
    return results
