"""Exact inner products of gasket polynomials and Gram matrix assembly.

The L2 inner product of two monomials is reduced to boundary data by repeated
integration by parts (Gauss-Green):

    int (f Lap(g) - g Lap(f)) = sum_l [f(q_l) dn g(q_l) - g(q_l) dn f(q_l)]

Lowering the degree of the second factor one step at a time gives the closed
reduction

    <P_{j,i}, P_{k,i'}>_2 = - sum_{s=1}^{k+1} B(P_{j+s,i}, P_{k+1-s,i'}),

with B(f, g) = sum_l [f(q_l) dn g(q_l) - g(q_l) dn f(q_l)] read off the exact
boundary tables.  Cross products of the symmetric families (k=1,2) against the
anti-symmetric family (k=3) vanish term by term.  Splitting off the s=1 term
gives the antidiagonal step

    L2(j, k) = L2(j+1, k-1) - B(P_{j+1,i}, P_{k,i'}),    L2(j, -1) = 0,

so mono_inner_l2 walks the antidiagonal j + k = const from its first cached
entry and pays one B per new entry instead of k+1.  Every entry it passes is
cached.

Order-m Sobolev products are weighted sums of degree-shifted L2 products,
since the Laplacian shifts monomial indices down:

    <f, g>_{S^m} = sum_{r=0}^m chi_r <Lap^r f, Lap^r g>_2.

poly_inner evaluates this sum in integers.  It reads the stored form of f
and g (see poly.py): integer numerators x_a, y_b over one denominator each,
D_f and D_g, so it converts nothing.  Each order r with chi_r != 0 sums
x_a y_b L2(a - r, b - r) as an integer over the common denominator of its
(cached) L2 values, so there is one rational reduction per Laplacian order
and one final division by D_f D_g, instead of three Fraction operations per
pair of terms.  mono_inner keeps the per-monomial form for Gram matrices;
gram_matrix returns their exact entries, and the CLI renders them.

`L2`, the SobolevParams with chi = (1,), is the one name of the plain L2
product.
"""

from __future__ import annotations

from .coeffs import TABLE
from .poly import Poly, _check_rational
from .rationals import ONE, ZERO, Rat, over_common_denominator

Index = tuple[int, int]

_l2_cache: dict[tuple[Index, Index], object] = {}


def _boundary_bilinear(a: Index, b: Index):
    """B(P_a, P_b) = sum over corners of [P_a dn P_b - P_b dn P_a].

    The q2 term equals the q1 term: k=3 flips the sign of both factors and
    the mixed k=3 pairs vanish, so q1 is read once and doubled.
    """
    ja, ka = a
    jb, kb = b
    if {ka, kb} in ({1, 3}, {2, 3}):
        return ZERO  # symmetric vs anti-symmetric: corner terms cancel in pairs
    value, normal = TABLE.value, TABLE.normal
    return (value(ja, ka, 0) * normal(jb, kb, 0) - value(jb, kb, 0) * normal(ja, ka, 0)
            + 2 * (value(ja, ka, 1) * normal(jb, kb, 1)
                   - value(jb, kb, 1) * normal(ja, ka, 1)))


def mono_inner_l2(a: Index, b: Index):
    """Exact <P_a, P_b> in L2 of the self-similar measure,
    by the antidiagonal walk of the module docstring."""
    if a[0] < b[0]:
        a, b = b, a  # reduce along the smaller degree
    (j, i), (k, ip) = a, b
    path = []
    value = ZERO
    while k >= 0:
        cached = _l2_cache.get(((j, i), (k, ip)))
        if cached is not None:
            value = cached
            break
        path.append((j, k))
        j, k = j + 1, k - 1
    for j, k in reversed(path):
        value = value - _boundary_bilinear((j + 1, i), (k, ip))
        _l2_cache[((j, i), (k, ip))] = value
    return value


class SobolevParams:
    """Weights of the order-m Sobolev product, m = order = len(chi) - 1.

    chi[0] = 1, and the nonnegative entry chi[r] weights <Lap^r f, Lap^r g>_2;
    chi = (1,) is the plain L2 product, `L2`.  Immutable, equal and hashed by chi.
    """

    __slots__ = ("chi",)

    def __init__(self, chi: tuple):
        # Fractions in a tuple, so that params can key the family memo; a
        # float weight is a TypeError, not a binary fraction
        chi = tuple(chi)
        for c in chi:
            _check_rational(c, "chi")
        chi = tuple(Rat(c) for c in chi)
        if not chi or chi[0] != 1:
            raise ValueError("chi[0] must be 1")
        if any(c < 0 for c in chi):
            raise ValueError("chi weights must be nonnegative")
        object.__setattr__(self, "chi", chi)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to SobolevParams.{name}")

    def __eq__(self, other):
        if other.__class__ is not SobolevParams:
            return NotImplemented
        return self.chi == other.chi

    def __hash__(self):
        return hash(self.chi)

    def __repr__(self) -> str:
        return f"SobolevParams({self.chi!r})"

    @property
    def order(self) -> int:
        return len(self.chi) - 1

    @staticmethod
    def order1(chi) -> "SobolevParams":
        return SobolevParams((ONE, chi))


L2 = SobolevParams((ONE,))


def mono_inner(params: SobolevParams, a: Index, b: Index):
    """Exact S^m inner product <P_a, P_b> of two monomials:
    sum_r chi_r <P_{a - r}, P_{b - r}>_2 over the orders r that leave both
    degrees >= 0.  It is symmetric in a and b."""
    total = ZERO
    for r, c in enumerate(params.chi):
        if a[0] - r < 0 or b[0] - r < 0:
            continue  # Lap^r annihilates the lower-degree monomial
        total += c * mono_inner_l2((a[0] - r, a[1]), (b[0] - r, b[1]))
    return total


def poly_inner(params: SobolevParams, f: Poly, g: Poly):
    """Bilinear extension of mono_inner to polynomials, exactly, in integer
    arithmetic on the stored numerators (see the module docstring)."""
    if not f.nums or not g.nums:
        return ZERO
    total = ZERO
    for r, chi in enumerate(params.chi):
        if chi == 0:
            continue
        f_r = [((j - r, k), x) for (j, k), x in f.nums.items() if j >= r]
        g_r = [((j - r, k), y) for (j, k), y in g.nums.items() if j >= r]
        den_l, l2 = over_common_denominator(
            mono_inner_l2(a, b) for a, _ in f_r for b, _ in g_r)
        n = len(g_r)
        acc = 0
        for i, (_, x) in enumerate(f_r):
            acc += x * sum(y * l for (_, y), l in zip(g_r, l2[i * n:(i + 1) * n]))
        total += chi * Rat(acc, den_l)
    return total / (f.den * g.den)


def basis_indices(family, maxdeg: int) -> list[Index]:
    """Fixed basis order: single family by degree; mixed is (j asc, k asc)."""
    if family == "mixed":
        return [(j, k) for j in range(maxdeg + 1) for k in (1, 2, 3)]
    if family not in (1, 2, 3):
        raise ValueError(f"family must be 1, 2, 3 or 'mixed', got {family!r}")
    return [(j, family) for j in range(maxdeg + 1)]


def gram_matrix(params: SobolevParams, family, maxdeg: int) -> tuple:
    """The exact Gram matrix of mono_inner values: a tuple of rows, with rows
    and columns in the order of basis_indices(family, maxdeg)."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be >= 0")
    basis = basis_indices(family, maxdeg)
    # mono_inner is symmetric: evaluate r <= c and mirror
    rows = [[mono_inner(params, a, b) for b in basis[r:]] for r, a in enumerate(basis)]
    return tuple(tuple(rows[c][r - c] for c in range(r)) + tuple(rows[r])
                 for r in range(len(basis)))
