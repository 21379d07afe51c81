"""Differential-equation residuals and large-weight asymptotics."""

from fractions import Fraction as F

import pytest

from sgortho import odes
from sgortho.families import (green_seq, legendre, sobolev_four_term,
                              sobolev_higher, sobolev_three_term)
from sgortho.inner import L2, SobolevParams, poly_inner
from sgortho.odes import chi_asymptotics, chi_limit_poly, higher_ode_residual, ode_residual
from sgortho.rationals import Rat

P2 = SobolevParams([1, 1, 1])


@pytest.mark.parametrize("n,chi,family", [
    (0, F(1), 2), (1, F(1), 3), (2, F(1), 3), (3, F(1), 2),
    (4, F(1, 2), 2), (5, F(1), 3), (2, F(1000), 3),
])
def test_ode_residual_is_zero(n, chi, family):
    residuals = ode_residual(sobolev_three_term(family, chi, n + 2))
    assert len(residuals) == n + 1
    assert residuals[n].is_zero()


@pytest.mark.parametrize("n,family", [(2, 3), (2, 2), (3, 2), (3, 3), (4, 3),
                                      (0, 2), (0, 3), (1, 2), (1, 3)])
def test_higher_ode_residual_is_zero(n, family):
    residuals = higher_ode_residual(sobolev_higher(P2, family, n + 4))
    assert len(residuals) == n + 1
    assert residuals[n].is_zero()


@pytest.mark.parametrize("family", [2, 3])
@pytest.mark.parametrize("chi", [(1, F(3, 8), 2, 1), (1, 0, 0, 1)])
def test_order3_ode_residual_is_zero(family, chi):
    residuals = ode_residual(sobolev_higher(SobolevParams(chi), family, 12))
    assert len(residuals) == 7
    for n, residual in enumerate(residuals):
        assert residual.is_zero(), n


@pytest.mark.parametrize("chi", [(1, 1), (1, 1, 1), (1, F(1, 2), 0, 3)])
def test_ode_residual_covers_every_degree(chi):
    # maxdeg - 2m + 1 residuals, none for a family built below degree 2m
    params = SobolevParams(chi)
    m = params.order
    for maxdeg in range(2 * m + 3):
        fam = (sobolev_three_term(3, chi[1], maxdeg) if m == 1
               else sobolev_higher(params, 3, maxdeg))
        residuals = ode_residual(fam)
        assert len(residuals) == max(maxdeg - 2 * m + 1, 0), maxdeg
        assert all(r.is_zero() for r in residuals), maxdeg


def test_ode_residual_builds_legendre_once(monkeypatch):
    # one Legendre build, whatever the degree of the family
    for fam in (sobolev_three_term(2, 1, 4), sobolev_three_term(2, 1, 12),
                sobolev_higher(P2, 3, 6), sobolev_higher(P2, 3, 12)):
        calls = []
        monkeypatch.setattr(odes, "legendre",
                            lambda *args: calls.append(args) or legendre(*args))
        ode_residual(fam)
        assert len(calls) == 1


def test_ode_residual_rejects_a_four_term_family():
    with pytest.raises(ValueError):
        ode_residual(sobolev_four_term(1, 8))


def test_ode_left_side_degree():
    sob = sobolev_three_term(3, 1, 5)
    n = 4
    lhs = sob.polys[n] + sob.polys[n].laplacian_power(2)
    assert lhs.degree == n


def test_chi_limit_low_degrees():
    f2, name = chi_limit_poly(3, 2)
    leg = legendre(3, 2)
    fs = green_seq(3, 2)
    assert name.startswith("f_2 -")
    assert f2 == fs[2] - leg.polys[0].scale(leg.norms_sq[1] / leg.norms_sq[0])
    p1, name1 = chi_limit_poly(3, 1)
    assert p1 == leg.polys[1] and name1 == "p_1"


def test_chi_asymptotics_rate_and_limits():
    rep = chi_asymptotics(3, 3, [100, 10000])
    e1, e2 = (Rat(r["err_sq"]) for r in rep["rows"])
    ratio = e1 / e2
    assert Rat(2500) <= ratio <= Rat(40000)
    # chi * b~_3 approaches |p_3|^2/|p_1|^2 from the stored limit value
    limit = Rat(rep["chi_b_tilde_limit"])
    cb1 = Rat(rep["rows"][0]["chi_b_tilde"])
    cb2 = Rat(rep["rows"][1]["chi_b_tilde"])
    assert abs(cb2 - limit) < abs(cb1 - limit)
    leg = legendre(3, 3)
    assert limit == leg.norms_sq[3] / leg.norms_sq[1]


def test_chi_asymptotics_n2_uses_corrected_limit():
    rep = chi_asymptotics(2, 2, [100, 10000])
    e1, e2 = (Rat(r["err_sq"]) for r in rep["rows"])
    assert e2 < e1  # converging to the corrected limit


def test_delta_s_n_tends_to_legendre():
    # Lap s_n -> p_{n-1}: squared distance shrinks as chi grows
    leg = legendre(3, 3)
    dists = []
    for chi in (F(10), F(10000)):
        sob = sobolev_three_term(3, chi, 4)
        diff = sob.polys[4].laplacian() - leg.polys[3]
        dists.append(poly_inner(L2, diff, diff))
    assert dists[1] < dists[0]
