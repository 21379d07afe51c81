"""Fundamental coefficient sequences and monomial boundary data.

The three families of monomials P_{j,k} (k = 1, 2, 3, based at the top corner
q0) are determined by four rational sequences:

    alpha_j = P_{j,1}(q1)        beta_j = P_{j,2}(q1)
    gamma_j = P_{j,3}(q1)        eta_j  = normal derivative of P_{j,1} at q1

which satisfy, with alpha_0 = 1, alpha_1 = 1/6, beta_0 = -1/2, eta_0 = 0:

    alpha_j = 4/(5^j - 5) * sum_{l=1}^{j-1} alpha_{j-l} alpha_l          (j >= 2)
    beta_j  = 2/(15(5^j-1)) * sum_{l=0}^{j-1} (3*5^{j-l} - 5^{l+1} + 6)
                                              alpha_{j-l} beta_l         (j >= 1)
    gamma_j = 3 alpha_{j+1}                                              (j >= 0)
    eta_j   = (5^j+1)/2 * alpha_j + 2 sum_{l=0}^{j-1} eta_l beta_{j-l}   (j >= 1)

alpha'_j is alpha_j except alpha'_0 = 1/2; it carries the normal derivative
of the k=2 family at q1/q2.  Any sequence queried at a negative index is 0,
which keeps every downstream shifted-index sum valid without special cases.

All arithmetic is exact rational; powers of 5 are exact integers.  Each new
term is one integer sum: the numerators and denominators of its products are
brought to one common denominator, and the term is reduced once.  Sequences
are memoized and extended on demand; extension is serialized by a lock so the
table is safe for concurrent readers.
"""

from __future__ import annotations

import threading
from math import lcm

from .rationals import Rat, ZERO

Q0, Q1, Q2 = 0, 1, 2
FAMILIES = (1, 2, 3)


class CoeffTable:
    """Memoized alpha/beta/gamma/eta/alpha' sequences plus boundary tables."""

    def __init__(self):
        self._alpha = [Rat(1), Rat(1, 6)]
        self._beta = [Rat(-1, 2)]
        self._eta = [ZERO]
        self._lock = threading.RLock()

    # -- sequence extension -------------------------------------------------

    def _extend(self, n: int) -> None:
        """Grow all three base sequences so indices <= n are available."""
        with self._lock:
            a, b, e = self._alpha, self._beta, self._eta
            while len(a) <= n:
                j = len(a)
                # the alpha sum is symmetric in l and j - l: each pair once, doubled
                num, den = _int_sum(
                    ((2 - (2 * l == j)) * a[j - l].numerator * a[l].numerator,
                     a[j - l].denominator * a[l].denominator)
                    for l in range(1, j // 2 + 1))
                a.append(Rat(4 * num, (5**j - 5) * den))
            while len(b) <= n:
                j = len(b)
                num, den = _int_sum(
                    ((3 * 5**(j - l) - 5**(l + 1) + 6) * a[j - l].numerator
                     * b[l].numerator, a[j - l].denominator * b[l].denominator)
                    for l in range(j))
                b.append(Rat(2 * num, 15 * (5**j - 1) * den))
            while len(e) <= n:
                j = len(e)
                num, den = _int_sum(
                    [((5**j + 1) * a[j].numerator, 2 * a[j].denominator)]
                    + [(2 * e[l].numerator * b[j - l].numerator,
                        e[l].denominator * b[j - l].denominator) for l in range(j)])
                e.append(Rat(num, den))

    def alpha(self, j: int):
        if j < 0:
            return ZERO
        if j >= len(self._alpha):
            self._extend(j)
        return self._alpha[j]

    def beta(self, j: int):
        if j < 0:
            return ZERO
        if j >= len(self._beta):
            self._extend(j)
        return self._beta[j]

    def eta(self, j: int):
        if j < 0:
            return ZERO
        if j >= len(self._eta):
            self._extend(j)
        return self._eta[j]

    def gamma(self, j: int):
        if j < 0:
            return ZERO
        return 3 * self.alpha(j + 1)

    def alpha_prime(self, j: int):
        if j < 0:
            return ZERO
        if j == 0:
            return Rat(1, 2)
        return self.alpha(j)

    # -- monomial boundary data ----------------------------------------------

    def value(self, j: int, k: int, vertex: int):
        """P_{j,k}(q_vertex), exactly."""
        _check_jk(j, k, vertex)
        if vertex == Q0:
            return Rat(1) if (j == 0 and k == 1) else ZERO
        if k == 1:
            return self.alpha(j)
        if k == 2:
            return self.beta(j)
        g = self.gamma(j)
        return g if vertex == Q1 else -g

    def normal(self, j: int, k: int, vertex: int):
        """Normal derivative of P_{j,k} at q_vertex, exactly."""
        _check_jk(j, k, vertex)
        if vertex == Q0:
            return Rat(1) if (j == 0 and k == 2) else ZERO
        if k == 1:
            return self.eta(j)
        if k == 2:
            return -self.alpha_prime(j)
        t = 3 * self.eta(j + 1)
        return t if vertex == Q1 else -t

    def integral(self, j: int, k: int):
        """Integral of P_{j,k} against the self-similar probability measure."""
        _check_jk(j, k)
        if k == 1:
            return 2 * self.eta(j + 1)
        if k == 2:
            return -2 * self.alpha(j + 1)
        return ZERO  # k=3 is anti-symmetric


def _int_sum(terms) -> tuple[int, int]:
    """(num, den) with num/den = the sum of the fractions n/d in `terms`
    (integer pairs), over den = the lcm of the d; nothing is reduced."""
    terms = list(terms)
    den = lcm(*(d for _, d in terms))
    return sum(n * (den // d) for n, d in terms), den


def _check_jk(j: int, k: int, vertex: int = Q0) -> None:
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    if k not in FAMILIES:
        raise ValueError(f"family must be 1, 2 or 3, got {k}")
    if vertex not in (Q0, Q1, Q2):
        raise ValueError(f"vertex must be 0, 1 or 2, got {vertex!r}")


#: Shared default table; all module-level helpers delegate here.
TABLE = CoeffTable()

alpha = TABLE.alpha
beta = TABLE.beta
gamma = TABLE.gamma
eta = TABLE.eta
alpha_prime = TABLE.alpha_prime
monomial_value = TABLE.value
monomial_normal = TABLE.normal
monomial_integral = TABLE.integral
