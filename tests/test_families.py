"""Orthogonal family construction: Gram-Schmidt, recurrences, norm estimates."""

from fractions import Fraction as F

import pytest

from sgortho.coeffs import alpha, beta
from sgortho.families import (associated_family, gram_schmidt, green_seq,
                              legendre, legendre_recurrence_coeffs,
                              limit_family_sym, sobolev_four_term,
                              sobolev_higher, sobolev_three_term,
                              sobolev_three_term_sym)
from sgortho.inner import SobolevParams, mono_inner_l2, poly_inner
from sgortho.poly import Poly

L2 = SobolevParams.l2()
S1 = SobolevParams.order1(1)


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
            assert p.degree == n and p.is_monic(fam)
        assert ops.check_orthogonal()
        assert all(v > 0 for v in ops.norms_sq)


def test_green_seq_examples_and_consistency():
    fs2 = green_seq(2, 4)
    assert fs2[0].is_zero()
    assert fs2[1] == Poly({(1, 2): F(1), (0, 2): 2 * beta(1)})
    leg2 = legendre(2, 5)
    fs2 = green_seq(2, 6)
    for t in range(2, 7):
        assert fs2[t].normal_derivative(1) == 0
        assert fs2[t].normal_derivative(2) == 0
        assert fs2[t].normal_derivative(0) == leg2.polys[t - 1].integral()
    fs3 = green_seq(3, 6)
    for t in range(2, 7):
        assert fs3[t].normal_derivative(1) == 0


def test_green_images_are_monic_and_orthogonal_to_low_degrees():
    for fam in (1, 2, 3):
        leg = legendre(fam, 6)
        fs = green_seq(fam, 6)
        for n in range(1, 6):
            assert fs[n + 1].degree == n + 1
            assert fs[n + 1].is_monic(fam)
            if fam == 1:
                continue  # k=1 images leave the family; no such orthogonality
            for j in range(n - 1):
                assert poly_inner(L2, fs[n + 1], leg.polys[j]) == 0


def test_gauss_green_canary_coefficient_identity():
    # sum_l w_{t,l} (alpha_{l+1} + beta_{l+1}) = 0 is the coefficient form of
    # the vanishing q1 normal derivative of the family-2 Green images
    leg = legendre(2, 6)
    for t in range(1, 6):
        total = sum(w * (alpha(l + 1) + beta(l + 1))
                    for (l, _k), w in leg.polys[t].coeffs.items())
        assert total == 0


def test_three_term_equals_gram_schmidt():
    for fam in (2, 3):
        for chi in (F(1), F(3, 7)):
            rec = sobolev_three_term(fam, chi, 8)
            gs = gram_schmidt(SobolevParams.order1(chi), fam, 8)
            assert rec.polys == gs.polys
            assert rec.norms_sq == gs.norms_sq


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
        for n in range(2, 9):
            b, c = legendre_recurrence_coeffs(fam, n)
            assert c == leg.norms_sq[n] / leg.norms_sq[n - 1]
            for j in range(n - 1):
                assert poly_inner(L2, fs[n + 1], leg.polys[j]) == 0


def test_four_term_equals_gram_schmidt():
    for chi in (F(1), F(2, 5)):
        rec = sobolev_four_term(chi, 8)
        gs = gram_schmidt(SobolevParams.order1(chi), 1, 8)
        assert rec.polys == gs.polys


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


def test_four_term_corner_combination():
    fs = green_seq(1, 9)
    for t in range(2, 10):
        assert fs[t].normal_derivative(0) + 2 * fs[t].normal_derivative(1) == 0
    # the t=1 image has a nonzero combination equal to the mean of p_0
    assert fs[1].normal_derivative(0) + 2 * fs[1].normal_derivative(1) == 1


def test_three_term_sym_matches_gram_schmidt():
    fam, verified = sobolev_three_term_sym(1, 6)
    assert verified
    alt = fam.recurrence["verified_against_gram_schmidt"]
    assert alt is True
    fs = green_seq(1, 1)
    tilde1 = Poly({(1, 1): F(1), (0, 1): -alpha(1)})
    from sgortho.families import green_seq_sym_infamily
    assert green_seq_sym_infamily(1)[1] == tilde1


def test_higher_recurrence_matches_gram_schmidt():
    params = SobolevParams.of_weights([1, 1, 1])
    for fam in (2, 3):
        hi = sobolev_higher(params, fam, 7)
        gs = gram_schmidt(params, fam, 7)
        assert hi.polys == gs.polys
    with pytest.raises(ValueError):
        sobolev_higher(S1, 2, 4)
    with pytest.raises(ValueError):
        sobolev_higher(params, 1, 4)


def test_higher_recurrence_uses_2m_trailing_terms():
    params = SobolevParams.of_weights([1, 1, 1])
    hi = sobolev_higher(params, 3, 8)
    # for n with all indices in range, exactly 2m = 4 coefficients are stored
    n_full = 4
    keys = [l for (n, l) in hi.recurrence["a"] if n == n_full]
    assert sorted(keys) == [0, 1, 2, 3]


def test_higher_norm_lower_bound():
    params = SobolevParams.of_weights([1, 1, 1])
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
        b0, _ = legendre_recurrence_coeffs(fam, 0)
        b1, _ = legendre_recurrence_coeffs(fam, 1)
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


def test_z_coefficient_recursion():
    for fam in (2, 3):
        rec = sobolev_three_term(fam, 1, 6)
        leg = legendre(fam, 7)
        for n in range(1, 6):
            z = rec.polys[n][(n - 1, fam)]
            w = leg.polys[n + 1][(n, fam)]
            a_n = rec.recurrence["a"][n]
            assert z == w + a_n * rec.norms_sq[n] / leg.norms_sq[n]


def test_family_json_roundtrip_shape():
    rec = sobolev_three_term(3, 1, 3)
    payload = rec.to_json_dict()
    assert payload["family"] == 3
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
    assert legendre(2, 5).polys[5].is_monic(2)
    fs = green_seq(2, 3)
    fs.append(Poly.zero())
    assert len(green_seq(2, 3)) == 4
    # sobolev_three_term_sym writes its verdict into its own recurrence table
    sym, verified = sobolev_three_term_sym(1, 4)
    assert verified and sym.recurrence["verified_against_gram_schmidt"] is True
    assert gram_schmidt(S1, 1, 4).recurrence == {}


def test_concurrent_builders_match_serial(monkeypatch):
    import sys
    import threading

    from sgortho import families

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
    ident = [[F(int(r == c)) for c in range(3)] for r in range(3)]
    params = SobolevParams(order=1, chi=[F(1), F(2)], energy_weights=[F(1)],
                           boundary_matrices=[ident])
    fam = gram_schmidt(params, 2, 3)
    assert fam.check_orthogonal()
    assert fam.polys == gram_schmidt(params, 2, 3).polys
    plain = gram_schmidt(SobolevParams(order=1, chi=[F(1), F(2)]), 2, 3)
    assert plain.polys == gram_schmidt(SobolevParams.order1(2), 2, 3).polys
