"""Rational facade: parsing and deterministic decimal rendering."""

from fractions import Fraction as F

import pytest

from sgortho.rationals import Rat, rat_decimal, rat_from_str, rat_str


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
