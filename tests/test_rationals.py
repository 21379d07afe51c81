"""Rational facade: parsing and deterministic decimal rendering."""

from fractions import Fraction as F

import random

import pytest

from sgortho.rationals import Rat, rat_decimal, rat_from_str, rat_str, ratio_decimal


def test_parse_and_str():
    assert rat_from_str("3/4") == F(3, 4)
    assert rat_from_str(" -7 ") == -7
    assert rat_str(Rat(3, 4)) == "3/4"
    assert rat_str(Rat(-8, 4)) == "-2"
    assert rat_str(Rat(0)) == "0"


def test_str_beyond_int_to_str_digit_limit():
    # the default limit on int-to-str conversion is in force here
    with pytest.raises(ValueError):
        str(10**5000)
    assert rat_str(F(10**5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
    assert rat_str(F(-(10**1300), 7)) == "-1" + "0" * 1300 + "/7"


def test_decimal_rendering():
    assert rat_decimal(Rat(1, 3), 6) == "0.333333"
    assert rat_decimal(Rat(-1, 3), 6) == "-0.333333"
    assert rat_decimal(Rat(2, 3), 6) == "0.666667"
    assert rat_decimal(Rat(1, 2), 0) == "0"   # round half to even
    assert rat_decimal(Rat(3, 2), 0) == "2"
    assert rat_decimal(Rat(1, 8), 2) == "0.12"
    assert rat_decimal(Rat(3, 8), 2) == "0.38"
    assert rat_decimal(Rat(5), 3) == "5.000"


def test_unreduced_ratio_rounds_as_the_reduced_fraction():
    # ties included: 3/8 at 2 digits is a tie whatever common factor it carries
    rng = random.Random(5)
    cases = [(3, 8, 2), (1, 2, 0), (-5, 2, 0), (0, 7, 3), (7, 1, 0)]
    cases += [(rng.randint(-10**6, 10**6), rng.randint(1, 10**4), rng.randint(0, 8))
              for _ in range(300)]
    for n, d, digits in cases:
        expected = rat_decimal(F(n, d), digits)
        for k in (1, 2, 10, 2**40 + 3):
            assert ratio_decimal(n * k, d * k, digits) == expected, (n, d, digits, k)
