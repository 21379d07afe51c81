"""Orthogonal family construction: Gram-Schmidt, recurrences, norm estimates."""

import json
from fractions import Fraction as F

import pytest

from sgortho import cli, families, poly
from sgortho.coeffs import TABLE
from sgortho.errors import ConsistencyError, MathematicalAssumptionError
from sgortho.families import (associated_family, corner_normal_of_green_image,
                              gram_schmidt, green_seq, legendre,
                              legendre_recurrence_coeffs, limit_family_sym,
                              sobolev_four_term, sobolev_higher,
                              sobolev_three_term)
from sgortho.inner import L2, SobolevParams, mono_inner_l2, poly_inner
from sgortho.poly import Poly

S1 = SobolevParams.order1(1)


def _project(params, f, polys, norms, window):
    """f minus its projections onto polys[i], i in window, and the
    coefficients <f, polys[i]> / norms[i], by dense products."""
    coefs = [poly_inner(params, f, polys[i]) / norms[i] for i in window]
    return f.combination([(-c, polys[i]) for i, c in zip(window, coefs)]), coefs


def _step_by_step(family, params, maxdeg):
    """(polys, norms, recurrence table) of the Sobolev family built one
    recurrence step at a time from Green images and the members built so
    far: the construction the recurrence builders used before they read
    their tables off Gram-Schmidt, kept as their oracle."""
    m = params.order
    base = 2 if family == 1 else m
    start = gram_schmidt(params, family, min(base, maxdeg))
    polys, norms = start.polys, start.norms_sq

    def add(s):
        polys.append(s)
        norms.append(poly_inner(params, s, s))

    if m == 1 and family != 1:
        fs = green_seq(family, maxdeg)
        table = {"a": {}, "b_tilde": {}}
        if maxdeg >= 1:
            _, (table["a"][0],) = _project(params, fs[1], polys, norms, (0,))
        for n in range(1, maxdeg):
            s, (table["a"][n], table["b_tilde"][n]) = _project(
                params, fs[n + 1], polys, norms, (n, n - 1))
            add(s)
    elif m == 1:
        leg = legendre(1, max(maxdeg - 1, 0))
        fs = green_seq(1, maxdeg)
        table = {"a": {}, "b": {}, "c": {}, "d": {}}
        for n in range(maxdeg - 2):
            hi, lo = fs[n + 3].normal_derivative(0), fs[n + 2].normal_derivative(0)
            assert hi == corner_normal_of_green_image(n + 3, leg.polys)
            assert lo == corner_normal_of_green_image(n + 2, leg.polys) != 0
            d = table["d"][n] = -hi / lo
            rhs = fs[n + 3].combination(((d, fs[n + 2]),))
            assert rhs[(0, 2)] == 0
            c = table["c"][n] = d * leg.norms_sq[n + 1] / norms[n]
            s, (table["a"][n], table["b"][n]) = _project(params, rhs, polys, norms,
                                                         (n + 2, n + 1))
            add(s.combination(((-c, polys[n]),)))
    else:
        leg = legendre(family, max(maxdeg - m, 0))
        table = {"a": {}}
        for n in range(maxdeg - m):
            ls = range(min(2 * m, n + m + 1))
            s, coefs = _project(params, leg.polys[n + 1].green_power(m), polys,
                                norms, [n + m - l for l in ls])
            table["a"].update(zip(((n, l) for l in ls), coefs))
            add(s)
    return polys, norms, table


def _build(family, params, maxdeg):
    if params.order >= 2:
        return sobolev_higher(params, family, maxdeg)
    if family == 1:
        return sobolev_four_term(params.chi[1], maxdeg)
    return sobolev_three_term(family, params.chi[1], maxdeg)


def test_gram_schmidt_base_cases():
    for fam in (1, 2, 3):
        ops = gram_schmidt(S1, fam, 0)
        assert ops.polys == [Poly.monomial(0, fam)]
        assert ops.norms_sq[0] == mono_inner_l2((0, fam), (0, fam))


def test_first_sobolev_poly_equals_legendre():
    for fam in (1, 2, 3):
        for chi in (F(1), F(7, 2), F(1000)):
            sob = gram_schmidt(SobolevParams.order1(chi), fam, 1)
            leg = legendre(fam, 1)
            assert sob.polys[1] == leg.polys[1]


def test_legendre_k1_degree1_frozen():
    leg = legendre(1, 1)
    assert leg.polys[1] == Poly({(1, 1): F(1), (0, 1): F(-1, 18)})


def test_monicity_and_orthogonality():
    for fam in (1, 2, 3):
        ops = gram_schmidt(S1, fam, 6)
        for n, p in enumerate(ops.polys):
            assert p.degree == n and p[(n, fam)] == 1
        assert ops.nonorthogonal_pair() is None
        assert all(v > 0 for v in ops.norms_sq)


def test_green_seq_examples_and_consistency():
    fs2 = green_seq(2, 4)
    assert fs2[0].is_zero()
    assert fs2[1] == Poly({(1, 2): F(1), (0, 2): 2 * TABLE.beta(1)})
    leg2 = legendre(2, 5)
    fs2 = green_seq(2, 6)
    for t in range(2, 7):
        assert fs2[t].normal_derivative(1) == 0
        assert fs2[t].normal_derivative(2) == 0
        assert fs2[t].normal_derivative(0) == leg2.polys[t - 1].integral()
    fs3 = green_seq(3, 6)
    for t in range(2, 7):
        assert fs3[t].normal_derivative(1) == 0


@pytest.mark.parametrize("family,correction", [(2, "_symmetric_correction"),
                                               (3, "_antisymmetric_correction")])
def test_green_seq_catches_a_wrong_green_correction(monkeypatch, family, correction):
    # make the harmonic correction of Poly.green wrong by a factor of 2
    right = getattr(poly, correction)
    monkeypatch.setattr(poly, correction, lambda idx: 2 * right(idx))
    monkeypatch.setattr(families, "_green", {})
    # a closed form that shares the correction sum agrees with the wrong image
    p = legendre(family, 3).polys[3]
    closed = {(l + 1, k): w for (l, k), w in p.coeffs.items()}
    closed[(0, family)] = p.linear_form(getattr(poly, correction))
    assert p.green() == Poly(closed)
    with pytest.raises(ConsistencyError):
        green_seq(family, 4)


def test_green_images_are_monic_and_orthogonal_to_low_degrees():
    for fam in (1, 2, 3):
        leg = legendre(fam, 6)
        fs = green_seq(fam, 6)
        for n in range(1, 6):
            assert fs[n + 1].degree == n + 1
            assert fs[n + 1][(n + 1, fam)] == 1
            if fam == 1:
                continue  # k=1 images leave the family; no such orthogonality
            for j in range(n - 1):
                assert poly_inner(L2, fs[n + 1], leg.polys[j]) == 0


def test_gauss_green_canary_coefficient_identity():
    # sum_l w_{t,l} (alpha_{l+1} + beta_{l+1}) = 0 is the coefficient form of
    # the vanishing q1 normal derivative of the family-2 Green images
    leg = legendre(2, 6)
    for t in range(1, 6):
        total = sum(w * (TABLE.alpha(l + 1) + TABLE.beta(l + 1))
                    for (l, _k), w in leg.polys[t].coeffs.items())
        assert total == 0


def test_three_term_equals_gram_schmidt():
    # the recurrence, run step by step, reproduces Gram-Schmidt
    for fam in (2, 3):
        for chi in (F(1), F(3, 7)):
            params = SobolevParams.order1(chi)
            polys, norms, _ = _step_by_step(fam, params, 8)
            gs = gram_schmidt(params, fam, 8)
            assert polys == gs.polys
            assert norms == gs.norms_sq


def test_three_term_coefficient_identities():
    for fam in (2, 3):
        rec = sobolev_three_term(fam, 1, 9)
        leg = legendre(fam, 9)
        for n in range(1, 9):
            bt = rec.recurrence["b_tilde"][n]
            assert bt == leg.norms_sq[n] / rec.norms_sq[n - 1]
            assert bt > 0


def test_legendre_recurrence_coeffs():
    for fam in (2, 3):
        leg = legendre(fam, 9)
        fs = green_seq(fam, 9)
        coeffs = legendre_recurrence_coeffs(fam, 9)
        assert len(coeffs) == 9
        for n in range(2, 9):
            b, c = coeffs[n]
            assert c == leg.norms_sq[n] / leg.norms_sq[n - 1]
            for j in range(n - 1):
                assert poly_inner(L2, fs[n + 1], leg.polys[j]) == 0


def test_legendre_recurrence_coeffs_are_prefixes():
    for fam in (2, 3):
        assert legendre_recurrence_coeffs(fam, 5) == legendre_recurrence_coeffs(fam, 9)[:5]
        assert legendre_recurrence_coeffs(fam, 0) == []


def test_legendre_recurrence_coeffs_build_legendre_a_fixed_number_of_times(monkeypatch):
    # one Legendre build for the projections and one for the Green images,
    # whatever the count
    counts = []
    for count in (3, 9):
        calls = []
        monkeypatch.setattr(families, "_green", {})
        monkeypatch.setattr(families, "legendre",
                            lambda *args: calls.append(args) or legendre(*args))
        assert len(legendre_recurrence_coeffs(2, count)) == count
        counts.append(len(calls))
    assert counts == [2, 2]


def test_four_term_equals_gram_schmidt():
    for chi in (F(1), F(2, 5)):
        params = SobolevParams.order1(chi)
        polys, _, _ = _step_by_step(1, params, 8)
        assert polys == gram_schmidt(params, 1, 8).polys


def test_four_term_coefficient_identities():
    rec = sobolev_four_term(1, 9)
    leg = legendre(1, 9)
    fs = green_seq(1, 9)
    for n in sorted(rec.recurrence["c"]):
        cn = rec.recurrence["c"][n]
        dn = rec.recurrence["d"][n]
        rhs = fs[n + 3] + fs[n + 2].scale(dn)
        assert cn * rec.norms_sq[n] == poly_inner(S1, rhs, rec.polys[n])
        assert cn * rec.norms_sq[n] == dn * leg.norms_sq[n + 1]
        # the q1/q2 normals vanish along with the q0 one
        assert rhs.normal_derivative(1) == 0
        assert rhs.normal_derivative(2) == 0


def test_four_term_builds_legendre_once(monkeypatch):
    # one call each for the Sobolev family, the Legendre members the corner
    # normal check reads and the Green images
    calls = []
    build = families.gram_schmidt
    monkeypatch.setattr(families, "gram_schmidt",
                        lambda *args: calls.append(args) or build(*args))
    sobolev_four_term(1, 16)
    assert len(calls) <= 3


def test_green_seq_builds_legendre_only_to_extend(monkeypatch):
    calls = []
    build = families.legendre
    monkeypatch.setattr(families, "_green", {})
    monkeypatch.setattr(families, "legendre",
                        lambda *args: calls.append(args) or build(*args))
    green_seq(2, 6)
    assert calls == [(2, 5)]
    for count in (0, 3, 6):  # memo hits
        green_seq(2, count)
    assert calls == [(2, 5)]
    green_seq(2, 8)
    assert calls == [(2, 5), (2, 7)]


def test_d_coef_vanishing_divisor():
    normals = [F(0), F(1), F(2), F(3), F(0), F(5)]
    assert families._d_coef(normals, 0) == F(-3, 2)
    with pytest.raises(MathematicalAssumptionError,
                       match="f_4 vanishes; the symmetric-family recurrence"):
        families._d_coef(normals, 2)


def test_four_term_corner_combination():
    fs = green_seq(1, 9)
    for t in range(2, 10):
        assert fs[t].normal_derivative(0) + 2 * fs[t].normal_derivative(1) == 0
    # the t=1 image has a nonzero combination equal to the mean of p_0
    assert fs[1].normal_derivative(0) + 2 * fs[1].normal_derivative(1) == 1


def test_higher_recurrence_matches_gram_schmidt():
    params = SobolevParams([1, 1, 1])
    for fam in (2, 3):
        polys, _, _ = _step_by_step(fam, params, 7)
        assert polys == gram_schmidt(params, fam, 7).polys
    with pytest.raises(ValueError):
        sobolev_higher(S1, 2, 4)
    with pytest.raises(ValueError):
        sobolev_higher(params, 1, 4)
    with pytest.raises(ValueError):
        sobolev_higher(SobolevParams([1, 1, 0]), 2, 4)


def _weights(order, chi):
    """chi_0..chi_m = 1, chi, ..., chi; for chi = 0 the top weight is 1, so
    every weight between the ends is zero."""
    if order >= 2 and chi == 0:
        return (1,) + (0,) * (order - 1) + (1,)
    return (1,) + (chi,) * order


@pytest.mark.parametrize("family,order", [(1, 1), (2, 1), (3, 1), (2, 2),
                                          (3, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("chi", [F(0), F(1), F(3, 8), F(9, 7), F(100)], ids=str)
def test_recurrence_tables_match_step_by_step(family, order, chi):
    params = SobolevParams(_weights(order, chi))
    for maxdeg in range(13):
        built = _build(family, params, maxdeg)
        polys, norms, table = _step_by_step(family, params, maxdeg)
        assert built.recurrence == table
        assert built.polys == polys
        assert built.norms_sq == norms


@pytest.mark.parametrize("family,params,names", [
    (2, S1, ["a", "b_tilde"]), (3, S1, ["a", "b_tilde"]),
    (1, S1, ["a", "b", "c", "d"]),
    (2, SobolevParams([1, 1, 1]), ["a"]), (3, SobolevParams([1, 1, 1, 1]), ["a"])])
def test_short_recurrence_families_name_every_table(family, params, names):
    # a family too short for a recurrence step still names each table, empty
    for maxdeg in range(params.order + 3):
        fam = _build(family, params, maxdeg)
        assert list(fam.recurrence) == names, maxdeg
        assert list(cli._family_json(fam)["recurrence"]) == names, maxdeg


def test_higher_recurrence_uses_2m_trailing_terms():
    params = SobolevParams([1, 1, 1])
    hi = sobolev_higher(params, 3, 8)
    # for n with all indices in range, exactly 2m = 4 coefficients are stored
    n_full = 4
    keys = [l for (n, l) in hi.recurrence["a"] if n == n_full]
    assert sorted(keys) == [0, 1, 2, 3]


def test_higher_norm_lower_bound():
    params = SobolevParams([1, 1, 1])
    for fam in (2, 3):
        hi = sobolev_higher(params, fam, 7)
        leg = legendre(fam, 7)
        for n in range(2, 8):
            assert hi.norms_sq[n] >= leg.norms_sq[n] + leg.norms_sq[n - 2]


def test_norm_chain():
    for fam in (1, 2, 3):
        gs = gram_schmidt(S1, fam, 10)
        leg = legendre(fam, 10)
        for n in range(1, 11):
            p2 = leg.norms_sq[n]
            s2 = poly_inner(L2, gs.polys[n], gs.polys[n])
            ss = gs.norms_sq[n]
            cap = (mono_inner_l2((n, fam), (n, fam))
                   + mono_inner_l2((n - 1, fam), (n - 1, fam)))
            if n == 1:
                assert p2 == s2 and gs.polys[1] == leg.polys[1]
            else:
                assert p2 < s2
            assert s2 < ss < cap


@pytest.mark.parametrize("family,weights", [
    *((k, (1,)) for k in (1, 2, 3)),
    *((k, (1, chi)) for k in (1, 2, 3) for chi in (F(1), F(3, 8))),
    *((k, (1, 1, 1)) for k in (2, 3)),
])
def test_norms_from_leading_monomial_match_full_products(family, weights):
    # the builders take |s_n|^2 as <s_n, P_{n,k}>; check it against <s_n, s_n>
    params = SobolevParams(weights)
    if params.order == 0:
        built = legendre(family, 12)
    elif params.order == 2:
        built = sobolev_higher(params, family, 12)
    elif family == 1:
        built = sobolev_four_term(weights[1], 12)
    else:
        built = sobolev_three_term(family, weights[1], 12)
    assert built.norms_sq == [poly_inner(params, s, s) for s in built.polys]
    assert built.norms_sq == gram_schmidt(params, family, 12).norms_sq


def test_sobolev_norm_lower_bound():
    for fam in (1, 2, 3):
        for chi in (F(1), F(5)):
            gs = gram_schmidt(SobolevParams.order1(chi), fam, 6)
            leg = legendre(fam, 6)
            for n in range(1, 7):
                assert gs.norms_sq[n] >= leg.norms_sq[n] + chi * leg.norms_sq[n - 1]


def test_associated_family_closed_forms():
    chi = F(1)
    for fam in (2, 3):
        leg = legendre(fam, 4)
        fs = green_seq(fam, 4)
        assoc = associated_family(chi, fam, 4)
        d0_sq, d1_sq, d2_sq = (leg.norms_sq[i] for i in (0, 1, 2))
        (b0, _), (b1, _) = legendre_recurrence_coeffs(fam, 2)
        t2_expected = -(d1_sq * (b0 + b1)) / (d1_sq + b0 * b0 * d0_sq + chi * d0_sq)
        assert assoc.recurrence["t"][2] == t2_expected
        u3_expected = -d2_sq / (poly_inner(L2, fs[1], fs[1]) + chi * d0_sq)
        assert assoc.recurrence["u"][3] == u3_expected
        assert t2_expected > 0 > u3_expected


def test_associated_family_orthogonal_to_degree8():
    for fam in (2, 3):
        assoc = associated_family(1, fam, 8)
        for i in range(1, 9):
            for j in range(1, i):
                assert poly_inner(S1, assoc.polys[i], assoc.polys[j]) == 0


def test_limit_family_sym_is_large_chi_limit():
    gs = limit_family_sym(5)
    errs = []
    for chi in (F(10), F(1000), F(100000)):
        sob = sobolev_four_term(chi, 5)
        worst = F(0)
        for n in range(6):
            diff = sob.polys[n] - gs[n]
            worst = max(worst, poly_inner(L2, diff, diff))
        errs.append(worst)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < F(1, 10**12)


def _limit_errors(g, n):
    """|s_n - g|_2^2 at chi = 10^5 and 10^7, with s_n the k=1 order-1
    Gram-Schmidt member of degree n."""
    errs = []
    for chi in (10**5, 10**7):
        diff = gram_schmidt(SobolevParams.order1(chi), 1, 6).polys[n] - g
        errs.append(poly_inner(L2, diff, diff))
    return errs


def test_limit_family_sym_converges_like_chi_squared():
    # criterion 8's bounds: the error falls about 10^4 per 100x in chi
    gs = limit_family_sym(6)
    for n in (0, 1):
        assert _limit_errors(gs[n], n) == [0, 0]
    for n in range(2, 7):
        far, near = _limit_errors(gs[n], n)
        assert 2500 <= far / near <= 40000, n
    # moving one coefficient of g_3 by 10^-9 stalls the convergence
    moved = gs[3] + Poly({(3, 1): F(1, 10**9)})
    far, near = _limit_errors(moved, 3)
    assert not 2500 <= far / near <= 40000


def test_z_coefficient_recursion():
    for fam in (2, 3):
        rec = sobolev_three_term(fam, 1, 6)
        leg = legendre(fam, 7)
        for n in range(1, 6):
            z = rec.polys[n][(n - 1, fam)]
            w = leg.polys[n + 1][(n, fam)]
            a_n = rec.recurrence["a"][n]
            assert z == w + a_n * rec.norms_sq[n] / leg.norms_sq[n]


def test_family_json_roundtrip_shape(capsys):
    assert cli.main(["ops", "--family", "3", "--chi", "1", "--degree", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == 3 and payload["method"] == "three-term"
    assert payload["params"]["m"] == 1
    assert len(payload["polys"]) == 4
    assert payload["polys"][0] == {"(0,3)": "1"}
    assert all(isinstance(v, str) for v in payload["norms_sq"])
    assert "a" in payload["recurrence"] and "b_tilde" in payload["recurrence"]


def test_legendre_memo_returns_exact_prefix():
    for fam in (1, 2, 3):
        big = legendre(fam, 8)
        small = legendre(fam, 3)
        assert small.polys == big.polys[:4]
        assert small.norms_sq == big.norms_sq[:4]
        # independent oracle: classical Gram-Schmidt written out here
        polys = []
        for n in range(4):
            v = Poly.monomial(n, fam)
            for p in list(polys):
                v = v - p.scale(poly_inner(L2, v, p) / poly_inner(L2, p, p))
            polys.append(v)
        assert small.polys == polys


def test_returned_families_do_not_share_state():
    fam = legendre(2, 4)
    fam.polys.append(Poly.monomial(9, 2))
    fam.norms_sq.append(F(1))
    fam.method = "changed"
    again = legendre(2, 4)
    assert len(again.polys) == len(again.norms_sq) == 5
    assert again.method == "legendre"
    assert gram_schmidt(L2, 2, 4).method == "gram-schmidt"
    assert legendre(2, 5).polys[5][(5, 2)] == 1
    fs = green_seq(2, 3)
    fs.append(Poly.zero())
    assert len(green_seq(2, 3)) == 4
    # the recurrence builders write their tables into their own instances
    rec = sobolev_four_term(1, 4)
    rec.recurrence["a"][0] = F(0)
    assert sobolev_four_term(1, 4).recurrence["a"][0] != 0
    assert gram_schmidt(S1, 1, 4).recurrence == {}
    assert gram_schmidt(S1, 1, 4).method == "gram-schmidt"


def test_concurrent_builders_match_serial(monkeypatch):
    import sys
    import threading

    jobs = [lambda: legendre(3, 7), lambda: sobolev_three_term(3, F(2, 3), 7),
            lambda: legendre(2, 6), lambda: sobolev_three_term(2, 1, 6)]

    def empty_memo():
        monkeypatch.setattr(families, "_gram_schmidt", {})
        monkeypatch.setattr(families, "_green", {})

    empty_memo()
    serial = [job() for job in jobs]
    empty_memo()
    results = [None] * len(jobs)
    errors = []
    start = threading.Barrier(len(jobs))

    def worker(i):
        try:
            start.wait()
            results[i] = jobs[i]()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the builders
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for got, want in zip(results, serial):
        assert got.polys == want.polys
        assert got.norms_sq == want.norms_sq
        assert got.recurrence == want.recurrence


def test_gram_schmidt_accepts_params_built_from_lists():
    params = SobolevParams([F(1), F(2)])
    fam = gram_schmidt(params, 2, 3)
    assert fam.nonorthogonal_pair() is None
    assert fam.polys == gram_schmidt(params, 2, 3).polys
    assert fam.polys == gram_schmidt(SobolevParams.order1(2), 2, 3).polys
