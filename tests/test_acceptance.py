"""Acceptance suite: one test per contract criterion, at the stated tolerance.

Each test prints a PASS/FAIL line (run with -s to stream them).  Two tests are
marked as strict expected failures because the claims they encode are exactly
false, each by a single provable equality; the mathematically correct variants
pass right next to them and the equalities themselves are asserted:

  * norm-chain strictness at n = 1: the degree-1 Sobolev polynomial coincides
    identically with the degree-1 plain-L2 polynomial (the projection weights
    agree because the Laplacian of a degree-1 monomial is annihilated by, and
    hence orthogonal to, the constant family), so |p_1| = |s_1| exactly;
  * the symmetric-family corner combination at t = 1: the combination equals
    the mean of p_0, which is 1; the identity requires that mean to vanish,
    which holds only from t = 2 on.
"""

import inspect
import sys
import time
from fractions import Fraction

import pytest

from sgortho import acceptance
from sgortho.families import gram_schmidt, green_seq, legendre
from sgortho.inner import L2, SobolevParams, mono_inner_l2, poly_inner
from sgortho.interp import QuadratureRule, degenerate_spine_nodes
from sgortho.poly import Poly


def _report(name: str, result: acceptance.CheckResult):
    print(f"{result.status:18s} {name}: {result.detail}")


def _run(check, name, budget=None):
    t0 = time.time()
    result = check()
    elapsed = time.time() - t0
    _report(name, result)
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
    return result


def test_criterion_01_exact_orthogonality():
    result = _run(acceptance.check_orthogonality, "criterion-1 exact orthogonality",
                  budget=120)
    assert result.passed, result.detail


def test_criterion_01_fails_on_a_nonorthogonal_member(monkeypatch):
    build = acceptance.gram_schmidt

    def wrong(params, family, maxdeg):
        fam = build(params, family, maxdeg)
        if family == 1:
            fam.polys[3] = fam.polys[3] + Poly({(0, 1): Fraction(1, 10**9)})
        return fam

    monkeypatch.setattr(acceptance, "gram_schmidt", wrong)
    result = acceptance.check_orthogonality()
    assert not result.passed
    assert result.detail.startswith("family 1: <s_3, s_0> =")


def test_criterion_02_recurrence_equals_gram_schmidt():
    result = _run(acceptance.check_recurrence_equivalence,
                  "criterion-2 recurrence = gram-schmidt")
    assert result.passed, result.detail


@pytest.mark.parametrize("builder,table,key,change", [
    ("sobolev_three_term", "a", 0, "perturb"),
    ("sobolev_three_term", "b_tilde", 5, "perturb"),
    ("sobolev_four_term", "a", 5, "perturb"),
    ("sobolev_four_term", "c", 0, "perturb"),
    ("sobolev_four_term", "d", 3, "perturb"),
    ("sobolev_higher", "a", (4, 3), "perturb"),
    ("sobolev_higher", "a", (4, 3), "drop"),
    ("sobolev_four_term", "d", 6, "extra"),
])
def test_criterion_02_fails_on_a_wrong_coefficient(monkeypatch, builder, table,
                                                   key, change):
    build = getattr(acceptance, builder)

    def wrong(*args):
        fam = build(*args)
        if change == "drop":
            del fam.recurrence[table][key]
        elif change == "extra":  # a key outside the recurrence steps
            fam.recurrence[table][key] = Fraction(0)
        else:
            fam.recurrence[table][key] += Fraction(1, 10**9)
        return fam

    monkeypatch.setattr(acceptance, builder, wrong)
    result = acceptance.check_recurrence_equivalence()
    assert not result.passed
    assert "deviates" in result.detail
    if change != "perturb":
        assert result.detail.endswith("table does not cover the recurrence windows")


def test_criterion_03_ode_identities():
    result = _run(acceptance.check_ode_identities, "criterion-3 ode identities")
    assert result.passed, result.detail


def _patch_builder(monkeypatch, name, wrapper):
    """Rebind every package global that holds the family builder `name`."""
    build = getattr(acceptance, name)
    for module in [m for key, m in sys.modules.items()
                   if key == "sgortho" or key.startswith("sgortho.")]:
        for attr in [k for k, v in vars(module).items() if v is build]:
            monkeypatch.setattr(module, attr, wrapper(build))


@pytest.mark.parametrize("builder,table,key,change,failure", [
    ("sobolev_three_term", "a", 3, "perturb", "order-1 residual n=3 k=2 chi=1"),
    ("sobolev_three_term", "b_tilde", 5, "halve", "order-1 residual n=4 k=2 chi=1"),
    ("sobolev_higher", "a", (1, 3), "perturb", "order-2 residual n=0 k=2"),
])
def test_criterion_03_fails_on_a_wrong_coefficient(monkeypatch, builder, table,
                                                   key, change, failure):
    def wrapper(build):
        def wrong(*args):
            fam = build(*args)
            entries = fam.recurrence[table]
            if key in entries:  # b~_5 only in families built past degree 5
                entries[key] = (entries[key] / 2 if change == "halve"
                                else entries[key] + Fraction(1, 10**9))
            return fam
        return wrong

    _patch_builder(monkeypatch, builder, wrapper)
    result = acceptance.check_ode_identities()
    assert not result.passed
    assert result.detail == failure


def test_criterion_03_builds_each_family_once(monkeypatch):
    calls = []

    def wrapper(build):
        def counted(*args):
            calls.append(args)
            return build(*args)
        return counted

    for builder in ("sobolev_three_term", "sobolev_higher"):
        _patch_builder(monkeypatch, builder, wrapper)
    assert acceptance.check_ode_identities().passed
    assert len(calls) == 6


def test_criterion_04_coefficient_identities():
    result = _run(acceptance.check_coefficient_identities,
                  "criterion-4 coefficient identities")
    assert result.passed, result.detail


def test_criterion_04_fails_on_a_consistent_wrong_pair(monkeypatch):
    # b~_3 halved and |s_2|^2 doubled keep b~_3 = |p_3|^2 / norms_sq[2];
    # the dense products of the check catch both
    build = acceptance.sobolev_three_term

    def wrong(*args):
        fam = build(*args)
        fam.recurrence["b_tilde"][3] /= 2
        fam.norms_sq[2] *= 2
        return fam

    monkeypatch.setattr(acceptance, "sobolev_three_term", wrong)
    result = acceptance.check_coefficient_identities()
    assert not result.passed
    assert result.detail == "b~_3 family 2"


def test_criterion_05_corner_canaries_t2_to_9():
    main, _t1 = acceptance.check_corner_canaries()
    _report("criterion-5 corner canaries (t >= 2)", main)
    assert main.passed, main.detail


@pytest.mark.xfail(strict=True, reason="the symmetric-family corner combination "
                   "at t=1 equals the mean of p_0 (exactly 1, not 0); the "
                   "identity starts at t=2")
def test_criterion_05_corner_canaries_from_t1():
    fs1 = green_seq(1, 9)
    for t in range(1, 10):
        combo = fs1[t].normal_derivative(0) + 2 * fs1[t].normal_derivative(1)
        assert combo == 0, f"t={t}: combination equals {combo}"


def test_criterion_05_t1_defect_value_is_one():
    fs1 = green_seq(1, 1)
    assert fs1[1].normal_derivative(0) + 2 * fs1[1].normal_derivative(1) == 1


def test_criterion_06_almost_orthogonality():
    result = _run(acceptance.check_almost_orthogonality,
                  "criterion-6 almost orthogonality + associated family")
    assert result.passed, result.detail


@pytest.mark.xfail(strict=True, reason="s_1 = p_1 identically, so the first "
                   "norm comparison is an exact equality at n=1")
def test_criterion_07_norm_chain_strict():
    for fam in (1, 2, 3):
        gs = gram_schmidt(SobolevParams.order1(1), fam, 10)
        leg = legendre(fam, 10)
        for n in range(1, 11):
            p2 = leg.norms_sq[n]
            s2 = poly_inner(L2, gs.polys[n], gs.polys[n])
            ss = gs.norms_sq[n]
            cap = (mono_inner_l2((n, fam), (n, fam))
                   + mono_inner_l2((n - 1, fam), (n - 1, fam)))
            assert p2 < s2 < ss < cap, f"family {fam}, n={n}"


def test_criterion_07_norm_chain_documented_exception():
    results = acceptance.check_norm_chain()
    for result in results:
        _report("criterion-7 norm chain", result)
    strict, corrected = results
    assert strict.expected_fail and not strict.passed
    assert corrected.passed, corrected.detail
    # pin the one exception down as an identity, all families
    for fam in (1, 2, 3):
        gs = gram_schmidt(SobolevParams.order1(1), fam, 1)
        assert gs.polys[1] == legendre(fam, 1).polys[1]


def test_criterion_08_chi_asymptotics_rate():
    result = _run(acceptance.check_chi_asymptotics,
                  "criterion-8 chi asymptotics rate", budget=60)
    assert result.passed, result.detail


def test_criterion_09_quadrature_order():
    result = _run(acceptance.check_quadrature_order,
                  "criterion-9 quadrature order", budget=300)
    assert result.passed, result.detail


def test_criterion_10_quadrature_exactness():
    result = _run(acceptance.check_quadrature_exactness,
                  "criterion-10 quadrature exactness")
    assert result.passed, result.detail


def test_criterion_10_fails_on_a_wrong_weight(monkeypatch):
    build = acceptance.quadrature_weights

    def wrong(n):
        rule = build(n)
        if n != 2:
            return rule
        weights = (rule.weights[0] + Fraction(1, 10**9),) + tuple(rule.weights[1:])
        return QuadratureRule(rule.n, rule.nodes, weights)

    monkeypatch.setattr(acceptance, "quadrature_weights", wrong)
    result = acceptance.check_quadrature_exactness()
    assert not result.passed
    assert result.detail == "residual at n=2, P_(0,1)"


def test_criterion_11_evaluation_convergence():
    result = _run(acceptance.check_evaluation_convergence,
                  "criterion-11 evaluation convergence")
    assert result.passed, result.detail


def test_criterion_12_interpolation():
    result = _run(acceptance.check_interpolation, "criterion-12 interpolation")
    assert result.passed, result.detail


def test_criterion_12_fails_on_a_singular_spine_matrix(monkeypatch):
    build = acceptance.spine_nodes
    monkeypatch.setattr(acceptance, "spine_nodes", lambda n: (
        degenerate_spine_nodes(2) if n == 2 else build(n)))
    result = acceptance.check_interpolation()
    assert not result.passed
    assert result.detail == "spine matrix n=2"


def test_criterion_13_zero_count_report():
    # report-only: exact edge zero counts at level 5 and the max-norm
    # comparison of Sobolev against plain-L2 polynomials
    result = _run(acceptance.zero_count_report,
                  "criterion-13 zero-count report (not gated)")
    assert result.report_only


def test_zero_count_report_reads_exact_values():
    # collocated values (solve level 7) gave p_5 only 3/1/1 sign changes
    detail = acceptance.zero_count_report().detail
    assert ("p_5 (k=3, level 5): bottom: 7 changes/1 zeros, left: 5 changes/1 "
            "zeros, right: 5 changes/1 zeros") in detail


def test_full_battery_has_no_unexpected_failures():
    results = acceptance.run_all(include_slow=False)
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"


def test_every_check_takes_no_parameters():
    # the battery's sizes are constants in each check, not options
    checks = [getattr(acceptance, name) for name in dir(acceptance)
              if name.startswith("check_")]
    assert len(checks) == 12
    for check in checks + [acceptance.zero_count_report]:
        assert not inspect.signature(check).parameters, check.__name__
