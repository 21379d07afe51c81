"""Polynomial coefficient maps: calculus, Green operator, spine evaluation."""

import math
import random
from fractions import Fraction as F

import pytest

from sgortho.coeffs import alpha, beta, gamma
from sgortho.poly import Poly


def random_poly(rng, maxdeg=3, families=(1, 2, 3)):
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        j = rng.randint(0, maxdeg)
        k = rng.choice(families)
        coeffs[(j, k)] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly(coeffs)


def test_zero_coefficients_dropped():
    p = Poly({(2, 1): F(0), (1, 2): F(3)})
    assert (2, 1) not in p.coeffs
    assert p.degree == 1
    assert Poly.zero().degree == -1


def test_arithmetic():
    p = Poly.monomial(2, 1) + Poly.monomial(0, 2, F(1, 3))
    q = p - Poly.monomial(2, 1)
    assert q == Poly.monomial(0, 2, F(1, 3))
    assert p.scale(0).is_zero()
    assert (-p) + p == Poly.zero()


def test_laplacian_shifts():
    assert Poly.monomial(3, 2).laplacian() == Poly.monomial(2, 2)
    assert Poly.monomial(0, 3).laplacian().is_zero()
    p = Poly({(2, 1): F(5), (1, 3): F(-1), (0, 2): F(7)})
    assert p.laplacian() == Poly({(1, 1): F(5), (0, 3): F(-1)})


def test_green_monomial_rules():
    assert Poly.monomial(0, 1).green() == Poly({(1, 1): F(1), (0, 2): F(1, 3)})
    assert Poly.monomial(0, 2).green() == Poly({(1, 2): F(1),
                                                (0, 2): 2 * beta(1)})
    assert Poly.monomial(1, 3).green() == Poly({(2, 3): F(1),
                                                (0, 3): -2 * gamma(2)})


def test_green_is_right_inverse_and_dirichlet():
    rng = random.Random(7)
    for _ in range(20):
        f = random_poly(rng)
        g = f.green()
        assert g.laplacian() == f
        for v in (0, 1, 2):
            assert g.boundary_value(v) == 0


def test_green_image_vanishing_is_forced():
    g = Poly.monomial(0, 1).green()
    assert alpha(1) + F(1, 3) * beta(0) == 0  # the q1 value, spelled out
    assert g.boundary_value(1) == 0


def test_spine_scaling():
    for j in range(4):
        for m in range(4):
            assert Poly.monomial(j, 1).eval_spine(m, 1) == F(1, 5**(j * m)) * alpha(j)
            assert Poly.monomial(j, 1).eval_spine(m, 2) == F(1, 5**(j * m)) * alpha(j)
            assert Poly.monomial(j, 2).eval_spine(m, 1) == \
                F(3**m, 5**((j + 1) * m)) * beta(j)
            assert Poly.monomial(j, 3).eval_spine(m, 2) == \
                -F(1, 5**((j + 1) * m)) * gamma(j)


def test_spine_constant_and_depth_zero():
    one = Poly.monomial(0, 1)
    for m in range(5):
        assert one.eval_spine(m, 1) == 1
    p = Poly({(1, 2): F(2), (0, 3): F(1)})
    assert p.eval_spine(0, 1) == 2 * beta(1) + gamma(0)
    assert p.eval_spine(0, 2) == 2 * beta(1) - gamma(0)


def test_spine_rejections():
    with pytest.raises(ValueError):
        Poly.monomial(0, 1).eval_spine(1, 0)
    with pytest.raises(ValueError):
        Poly.monomial(0, 1).eval_spine(-1, 1)


def test_json_dict_sorted_keys():
    p = Poly({(1, 2): F(1, 3), (0, 1): F(-2)})
    assert p.to_json_dict() == {"(0,1)": "-2", "(1,2)": "1/3"}


# -- the integer form against the Fraction-dict arithmetic it replaced --------

def oracle_add(a, b):
    out = dict(a)
    for idx, c in b.items():
        out[idx] = out.get(idx, F(0)) + c
    return {idx: c for idx, c in out.items() if c != 0}


def oracle_sub(a, b):
    return oracle_add(a, {idx: -c for idx, c in b.items()})


def oracle_scale(a, c):
    return {idx: c * v for idx, v in a.items() if c * v != 0}


def oracle_laplacian(a):
    return {(j - 1, k): c for (j, k), c in a.items() if j > 0}


def oracle_green(a):
    out = {}
    for (l, k), c in a.items():
        out = oracle_add(out, {(l + 1, k): c})
        if k == 1:
            out = oracle_add(out, {(0, 2): 2 * alpha(l + 1) * c})
        elif k == 2:
            out = oracle_add(out, {(0, 2): 2 * beta(l + 1) * c})
        else:
            out = oracle_add(out, {(0, 3): -2 * gamma(l + 1) * c})
    return out


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v != 0 for v in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.coeffs == {idx: F(v, p.den) for idx, v in p.nums.items()}


def random_rational(rng):
    return F(rng.randint(-10**6, 10**6), rng.choice((1, 2, 3, 7, 12, 5**6, 2**20 * 3)))


def random_coeffs(rng, maxdeg=6, families=(1, 2, 3)):
    return {(rng.randint(0, maxdeg), rng.choice(families)): random_rational(rng)
            for _ in range(rng.randint(0, 8))}


@pytest.mark.parametrize("seed", range(6))
def test_arithmetic_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        families = rng.choice(((1,), (2,), (3,), (1, 2), (1, 2, 3)))
        a, b = random_coeffs(rng, families=families), random_coeffs(rng)
        if rng.random() < 0.3:  # a sum that cancels in part or in full
            b = {**oracle_scale(a, F(-1)), **random_coeffs(rng, maxdeg=2)}
        p, q = Poly(a), Poly(b)
        c = random_rational(rng) if rng.random() < 0.8 else F(0)
        cases = [(p + q, oracle_add(a, b)), (p - q, oracle_sub(a, b)),
                 (p - p, {}), (p.scale(c), oracle_scale(a, c)),
                 (p.scale(rng.randint(-3, 3)), None), (-p, oracle_scale(a, F(-1))),
                 (p.laplacian(), oracle_laplacian(a)), (p.green(), oracle_green(a)),
                 (p.combination([(c, q), (F(1, 3), p)]),
                  oracle_add(oracle_add(a, oracle_scale(b, c)),
                             oracle_scale(a, F(1, 3))))]
        for result, expected in cases:
            assert_canonical(result)
            if expected is not None:
                assert result.coeffs == expected


def test_equal_polynomials_hash_alike():
    rng = random.Random(3)
    for _ in range(30):
        a = random_coeffs(rng)
        direct = Poly(a)
        summed = sum((Poly.monomial(j, k, c) for (j, k), c in a.items()), Poly.zero())
        staged = Poly.zero().combination([(c, Poly.monomial(*idx)) for idx, c in a.items()])
        round_trip = direct.green().laplacian()
        doubled = direct.scale(F(2, 7)).scale(F(7, 2))
        for other in (summed, staged, round_trip, doubled):
            assert other == direct and hash(other) == hash(direct)
            assert (other.den, other.nums) == (direct.den, direct.nums)
    # every route to zero gives the one canonical zero, den 1 and no terms
    a = Poly({(0, 3): F(2, 3), (2, 3): F(-1)})
    zeros = (Poly.zero(), a - a, a.scale(0), a.laplacian_power(3),
             a.combination([(F(-1, 2), a), (F(-1, 2), a)]),
             Poly({(0, 1): F(0)}), Poly.zero().green().laplacian())
    for z in zeros:
        assert (z.den, z.nums) == (1, {}) and z.is_zero() and z == Poly.zero()
    assert len({hash(z) for z in zeros}) == 1
    assert Poly({(1, 1): F(1, 2)}) != Poly({(1, 1): F(1, 3)})


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", None, complex(1, 0)])
def test_non_rational_coefficients_rejected(bad):
    with pytest.raises(TypeError, match=r"\(1,2\)"):
        Poly({(0, 1): F(1), (1, 2): bad})
    with pytest.raises(TypeError, match=r"\(3,1\)"):
        Poly.monomial(3, 1, bad)
    with pytest.raises(TypeError):
        Poly.monomial(0, 1).scale(bad)
    with pytest.raises(TypeError):
        Poly.monomial(0, 1).combination([(bad, Poly.monomial(1, 1))])
