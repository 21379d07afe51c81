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

Integer form.  With F_n = prod_{i=1}^n (5^i - 1) (a 5-factorial) and the
closed-form denominators

    H_0 = 1,  H_j = 6^j prod_{i=2}^j (5^i - 5),    K_j = 2 * 90^j F_j,

the sequences are alpha_j = A_j/H_j, beta_j = B_j/K_j and eta_j = E_j/K_j
with integers A, B, E.  Since 5^i - 5 = 5 (5^{i-1} - 1), the product in H_j
is 5^{j-1} F_{j-1}: both denominators are 5-factorials times powers of 2, 3
and 5.  Multiplied through by H_j or K_j, every product in the recursions
above keeps a quotient of 5-factorials as its cofactor, for instance
H_j / ((5^j - 5) H_{j-l} H_l) = F_{j-2} / (F_{j-l-1} F_{l-1}).  Such a
quotient is the Gaussian binomial [n, k]_5 = F_n / (F_k F_{n-k}), an integer,
so (for j >= 2, 1, 1 respectively)

    A_0 = A_1 = 1,  A_j = 4 sum_{l=1}^{j-1} [j-2, l-1]_5 A_{j-l} A_l
    B_0 = -1,       B_j = 2 sum_{l=0}^{j-1} (3*5^{j-l} - 5^{l+1} + 6) 3^{j-1-l}
                                             [j-1, l]_5 A_{j-l} B_l
    E_0 = 0,        E_j = 5 * 3^j (25^j - 1) A_j
                          + sum_{l=1}^{j-1} [j, l]_5 E_l B_{j-l}

The 5-binomials come row by row from q-Pascal,
[n, k]_5 = [n-1, k-1]_5 + 5^k [n-1, k]_5, so the table grows by integer
sums and products alone: no lcm, gcd or Fraction arithmetic.  Each index's
reduced Fraction is made once, on first access, with one gcd, and memoized.
Extension is serialized by a lock so the table is safe for concurrent
readers.
"""

from __future__ import annotations

import threading

from .rationals import Rat, ZERO

Q0, Q1, Q2 = 0, 1, 2
FAMILIES = (1, 2, 3)


class CoeffTable:
    """Memoized alpha/beta/gamma/eta/alpha' sequences plus boundary tables."""

    def __init__(self):
        # numerators A, B, E over the closed-form denominators H, K
        self._a, self._b, self._e = [1, 1], [-1], [0]
        self._h, self._k = [1, 6], [2]
        self._binom = [[1]]  # row n holds [n, k]_5 for k = 0, ..., n
        self._alpha, self._beta, self._eta = {}, {}, {}
        self._lock = threading.RLock()

    # -- sequence extension -------------------------------------------------

    def _extend(self, n: int) -> None:
        """Grow the integer sequences so indices <= n are available."""
        with self._lock:
            a, b, e, h, k, rows = (self._a, self._b, self._e, self._h, self._k,
                                   self._binom)
            while len(rows) <= n:  # q-Pascal: [m, i] = [m-1, i-1] + 5^i [m-1, i]
                last = rows[-1]
                rows.append([1] + [last[i - 1] + 5**i * last[i]
                                   for i in range(1, len(last))] + [1])
            while len(a) <= n:
                j = len(a)
                row = rows[j - 2]
                # the sum is symmetric in l and j - l: each pair once, doubled
                a.append(4 * sum((2 - (2 * l == j)) * row[l - 1] * a[j - l] * a[l]
                                 for l in range(1, j // 2 + 1)))
                h.append(6 * (5**j - 5) * h[-1])
            while len(b) <= n:
                j = len(b)
                row = rows[j - 1]
                b.append(2 * sum((3 * 5**(j - l) - 5**(l + 1) + 6) * 3**(j - 1 - l)
                                 * row[l] * a[j - l] * b[l] for l in range(j)))
                k.append(90 * (5**j - 1) * k[-1])
            while len(e) <= n:
                j = len(e)
                row = rows[j]
                e.append(5 * 3**j * (25**j - 1) * a[j]
                         + sum(row[l] * e[l] * b[j - l] for l in range(1, j)))

    def _reduced(self, memo: dict, nums: list, dens: list, j: int):
        """nums[j] / dens[j] in lowest terms, made once per index."""
        self._extend(j)
        value = memo[j] = Rat(nums[j], dens[j])
        return value

    def alpha(self, j: int):
        if j < 0:
            return ZERO
        value = self._alpha.get(j)
        return self._reduced(self._alpha, self._a, self._h, j) if value is None else value

    def beta(self, j: int):
        if j < 0:
            return ZERO
        value = self._beta.get(j)
        return self._reduced(self._beta, self._b, self._k, j) if value is None else value

    def eta(self, j: int):
        if j < 0:
            return ZERO
        value = self._eta.get(j)
        return self._reduced(self._eta, self._e, self._k, j) if value is None else value

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


def _check_jk(j: int, k: int, vertex: int = Q0) -> None:
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")
    if k not in FAMILIES:
        raise ValueError(f"family must be 1, 2 or 3, got {k}")
    if vertex not in (Q0, Q1, Q2):
        raise ValueError(f"vertex must be 0, 1 or 2, got {vertex!r}")


#: The shared table every module reads.
TABLE = CoeffTable()
