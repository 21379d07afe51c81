"""Exact rational scalars and deterministic rendering helpers.

Every quantity in this package is an exact rational, a stdlib
`fractions.Fraction` (stored in lowest terms with a positive denominator);
floating point never enters any computation.  The grid kernels run on plain
Python ints and make rationals only of their results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Rat = Fraction

# Fraction is the only backend; the benchmark harness reads this flag to name it.
HAVE_GMPY2 = False

ZERO = Rat(0)
ONE = Rat(1)


def rat_from_str(text: str):
    """Parse 'p', '-p/q' or a plain integer literal into an exact rational."""
    return Rat(text.strip())


def over_common_denominator(values) -> tuple[int, list[int]]:
    """(den, ints) with den the lcm of the denominators of `values` and
    ints[i] = values[i] * den, so values[i] == Rat(ints[i], den)."""
    values = list(values)
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


# Digits per chunk in _int_str: below CPython's smallest allowed limit on
# int-to-str conversion (640 digits), so any limit setting is respected.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _int_str(n) -> str:
    """Decimal digits of an integer of any size, converted in chunks small
    enough for CPython's int-to-str digit limit."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign, n = ("-" if n < 0 else ""), abs(n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    return sign + str(n) + "".join(reversed(chunks))


def rat_str(value) -> str:
    """Canonical 'p/q' (or 'p' when integral) rendering."""
    n, d = _int_str(value.numerator), _int_str(value.denominator)
    return n if d == "1" else f"{n}/{d}"


def rat_decimal(value, digits: int) -> str:
    """Round-half-even decimal rendering with exactly `digits` fractional digits.

    Pure integer arithmetic, so the output is byte-identical across runs.
    Rendering is the only lossy step anywhere.  `digits` has no default:
    every caller names it (the CLI's --digits, or 4 for a ratio column).
    """
    return ratio_decimal(value.numerator, value.denominator, digits)


def ratio_decimal(n: int, d: int, digits: int) -> str:
    """`rat_decimal` of n/d for ints n and d > 0, not necessarily coprime:
    scaling n and d alike scales the remainder too, so the half-even
    rounding is that of the reduced fraction."""
    sign = "-" if n < 0 else ""
    n = abs(n)
    scaled = n * 10**digits
    q, r = divmod(scaled, d)
    if 2 * r > d or (2 * r == d and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"
