"""Polynomials on the gasket as exact coefficient maps over the monomial basis.

A polynomial is a finite map (degree j, family k) -> rational coefficient
over the monomials P_{j,k} based at the corner q0, the one basis every
family is built from.
The Laplacian acts by shifting degrees down; the Dirichlet Green operator acts
on monomials by shifting degrees up and adding an explicit harmonic correction:

    G P_{l,1} = P_{l+1,1} + 2 alpha_{l+1} P_{0,2}
    G P_{l,2} = P_{l+1,2} + 2 beta_{l+1}  P_{0,2}
    G P_{l,3} = P_{l+1,3} - 2 gamma_{l+1} P_{0,3}

so that Laplacian(G f) = f and G f vanishes at all three corners.

Representation.  A Poly stores one denominator `den` (an int > 0) and
`nums`, a map (j, k) -> nonzero int, with gcd(den, every num) = 1; the
coefficient of P_{j,k} is nums[(j, k)] / den.  The form is canonical (the
zero polynomial is den = 1, nums = {}), so == and hash compare it directly.  `coeffs`, the map to reduced Fractions,
is a view built on first access, for rendering and for callers that want
rationals.

Kernel.  `combination` computes self + sum(c * p) one term at a time.  For
each term c * p it brings the running numerators and c's numerator times
p.nums to L = lcm(den, c.den * p.den), adds them, and divides by the gcd
of L and the content, so the numbers never grow past the reduced result
of that prefix.  Addition, subtraction, scaling, the Green operator's
harmonic correction and every Gram-Schmidt or recurrence step go through
it.  Linear functionals of the coefficients (corner values and normals,
the integral, spine values) are one integer sum over the denominator of
their weights (`linear_form`).
"""

from __future__ import annotations

from math import gcd, lcm

from .coeffs import TABLE, FAMILIES
from .rationals import ZERO, Rat, over_common_denominator, rat_str

Index = tuple[int, int]


def _check_rational(c, where: str) -> None:
    if not isinstance(c, (int, Rat)):
        raise TypeError(f"{where} must be an int or a Fraction, "
                        f"not {type(c).__name__}")


class Poly:
    """Exact polynomial sum(c_{j,k} P_{j,k}) over the monomials based at q0."""

    __slots__ = ("den", "nums", "_coeffs")

    def __init__(self, coeffs: dict | None = None):
        clean: dict[Index, object] = {}
        if coeffs:
            for (j, k), c in coeffs.items():
                if k not in FAMILIES or j < 0:
                    raise ValueError(f"bad monomial index ({j},{k})")
                _check_rational(c, f"coefficient of ({j},{k})")
                if c != 0:
                    clean[(j, k)] = c
        # each coefficient is in lowest terms, so over the lcm of their
        # denominators no prime divides den and every numerator
        den = lcm(*(c.denominator for c in clean.values()))
        self._set(den, {idx: c.numerator * (den // c.denominator)
                        for idx, c in clean.items()})

    def _set(self, den: int, nums: dict) -> None:
        self.den = den
        self.nums = nums
        self._coeffs = None

    @classmethod
    def _of(cls, den: int, nums: dict) -> "Poly":
        """The Poly sum(nums[idx] / den P_idx) of a canonical (den, nums)."""
        out = cls.__new__(cls)
        out._set(den, nums)
        return out

    @property
    def coeffs(self) -> dict:
        """The coefficients as reduced Fractions (a view; do not modify)."""
        if self._coeffs is None:
            self._coeffs = {idx: Rat(v, self.den) for idx, v in self.nums.items()}
        return self._coeffs

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def monomial(j: int, k: int) -> "Poly":
        return Poly({(j, k): 1})

    # -- ring structure ---------------------------------------------------------

    def combination(self, terms) -> "Poly":
        """self + sum(c * p for c, p in terms), reduced after every term (see
        the module docstring)."""
        den, nums = self.den, dict(self.nums)
        for c, p in terms:
            _check_rational(c, "scalar")
            if c == 0 or not p.nums:
                continue
            term_den = c.denominator * p.den
            big = lcm(den, term_den)
            if big != den:
                up = big // den
                nums = {idx: v * up for idx, v in nums.items()}
            m = c.numerator * (big // term_den)
            for idx, v in p.nums.items():
                x = nums.get(idx, 0) + m * v
                if x:
                    nums[idx] = x
                else:
                    del nums[idx]
            den, nums = _reduce(big, nums)
        return Poly._of(den, nums)

    def __add__(self, other: "Poly") -> "Poly":
        return self.combination(((1, other),))

    def __sub__(self, other: "Poly") -> "Poly":
        return self.combination(((-1, other),))

    def __neg__(self) -> "Poly":
        return Poly._of(self.den, {idx: -v for idx, v in self.nums.items()})

    def scale(self, c) -> "Poly":
        return Poly.zero().combination(((c, self),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __getitem__(self, idx: Index):
        return Rat(self.nums.get(idx, 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Max degree with a nonzero coefficient; -1 for the zero polynomial."""
        return max((j for j, _ in self.nums), default=-1)

    def linear_form(self, weight):
        """sum(c_idx * weight(idx)) exactly, as one integer sum over the
        common denominator of the weights."""
        if not self.nums:
            return ZERO
        den, ws = over_common_denominator(weight(idx) for idx in self.nums)
        return Rat(sum(v * w for v, w in zip(self.nums.values(), ws)),
                   self.den * den)

    # -- calculus ---------------------------------------------------------------

    def laplacian(self) -> "Poly":
        """Shift every coefficient from (j,k) to (j-1,k); degree-0 terms vanish."""
        return Poly._of(*_reduce(self.den, {(j - 1, k): v for (j, k), v
                                            in self.nums.items() if j > 0}))

    def laplacian_power(self, n: int) -> "Poly":
        out = self
        for _ in range(n):
            out = out.laplacian()
        return out

    def green(self) -> "Poly":
        """Apply the Dirichlet Green operator (right inverse of the Laplacian)."""
        shifted = {(l + 1, k): v for (l, k), v in self.nums.items()}
        return Poly._of(self.den, shifted).combination((
            (self.linear_form(_symmetric_correction), Poly.monomial(0, 2)),
            (self.linear_form(_antisymmetric_correction), Poly.monomial(0, 3))))

    def green_power(self, n: int) -> "Poly":
        out = self
        for _ in range(n):
            out = out.green()
        return out

    # -- boundary data ------------------------------------------------------------

    def boundary_value(self, vertex: int):
        """Exact value at corner q_vertex."""
        return self.linear_form(lambda idx: TABLE.value(*idx, vertex))

    def normal_derivative(self, vertex: int):
        """Exact normal derivative at corner q_vertex."""
        return self.linear_form(lambda idx: TABLE.normal(*idx, vertex))

    def dirichlet_data(self) -> tuple:
        """Iterated Dirichlet data: for each corner q_i, the values
        Lap^s f(q_i) for s <= degree.  They fix f."""
        chain = [self.laplacian_power(s) for s in range(max(self.degree, 0) + 1)]
        return tuple(tuple(p.boundary_value(i) for p in chain) for i in range(3))

    def integral(self):
        """Exact integral against the self-similar probability measure."""
        return self.linear_form(lambda idx: TABLE.integral(*idx))

    def eval_spine(self, depth: int, target: int):
        """Exact value at F_0^depth(q_target), target in {1,2}, via scaling laws.

        P_{j,1}(F_0^m x) = 5^{-jm} P_{j,1}(x); the k=2 family picks up an extra
        (3/5)^m and the k=3 family scales as 5^{-(j+1)m}, with a sign flip at
        the q2 side by anti-symmetry.
        """
        if target not in (1, 2):
            raise ValueError("spine evaluation targets corner 1 or 2")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        m = depth
        sign = 1 if target == 1 else -1

        def weight(idx):
            j, k = idx
            if k == 1:
                return Rat(1, 5 ** (j * m)) * TABLE.alpha(j)
            if k == 2:
                return Rat(3 ** m, 5 ** ((j + 1) * m)) * TABLE.beta(j)
            return Rat(sign, 5 ** ((j + 1) * m)) * TABLE.gamma(j)
        return self.linear_form(weight)

    # -- display ----------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.nums:
            return "Poly(0)"
        terms = " + ".join(f"{rat_str(c)}*P[{j},{k}]"
                           for (j, k), c in sorted(self.coeffs.items()))
        return f"Poly({terms})"


def _reduce(den: int, nums: dict) -> tuple[int, dict]:
    """(den, nums) divided by gcd(den, every num)."""
    g = gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {idx: v // g for idx, v in nums.items()}


def _symmetric_correction(idx: Index):
    """Coefficient of P_{0,2} in G P_idx."""
    l, k = idx
    if k == 1:
        return 2 * TABLE.alpha(l + 1)
    return 2 * TABLE.beta(l + 1) if k == 2 else ZERO


def _antisymmetric_correction(idx: Index):
    """Coefficient of P_{0,3} in G P_idx."""
    l, k = idx
    return -2 * TABLE.gamma(l + 1) if k == 3 else ZERO
