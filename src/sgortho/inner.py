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
pair of terms.  mono_inner keeps the per-monomial form for Gram matrices.

The energy form is evaluated through Gauss-Green as well:
E(f, g) = -<Lap f, g>_2 + sum_l g(q_l) dn f(q_l), which is its normative
definition here (the graph-energy limit is used only as a test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coeffs import TABLE
from .poly import Poly, _check_rational
from .rationals import ONE, ZERO, Rat, over_common_denominator, rat_str

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


def _psd_3x3(m) -> bool:
    """Exact positive semi-definiteness test for a symmetric 3x3 matrix."""
    for r in range(3):
        for c in range(r):
            if m[r][c] != m[c][r]:
                return False
    if any(m[d][d] < 0 for d in range(3)):
        return False
    for r in range(3):
        for c in range(r + 1, 3):
            if m[r][r] * m[c][c] - m[r][c] * m[c][r] < 0:
                return False
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return det >= 0


def _rationals(values, where: str) -> tuple:
    """`values` as a tuple of Fractions; anything but an int or a Fraction
    is a TypeError."""
    values = tuple(values)
    for c in values:
        _check_rational(c, where)
    return tuple(Rat(c) for c in values)


@dataclass(frozen=True)
class SobolevParams:
    """Descriptor of an order-m Sobolev inner product.

    chi has length order+1 with chi[0] = 1; entry r weights <Lap^r f, Lap^r g>_2.
    The optional energy weights and boundary matrices add the terms
    sum_l chi'_l E(Lap^l f, Lap^l g) and the corner quadratic forms with the
    (positive semi-definite) matrices M_l.  order = 0 with no optional terms
    is the plain L2 product.
    """

    order: int = 0
    chi: tuple = (ONE,)
    energy_weights: tuple | None = None
    boundary_matrices: tuple | None = None

    def __post_init__(self):
        # Fractions in tuples all the way down, so that params can key the
        # family memo; a float weight is a TypeError, not a binary fraction
        object.__setattr__(self, "chi", _rationals(self.chi, "chi"))
        if self.energy_weights is not None:
            object.__setattr__(self, "energy_weights",
                               _rationals(self.energy_weights, "energy weight"))
        if self.boundary_matrices is not None:
            object.__setattr__(self, "boundary_matrices", tuple(
                tuple(_rationals(row, "boundary matrix entry") for row in m)
                for m in self.boundary_matrices))
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.chi) != self.order + 1:
            raise ValueError(f"chi must have {self.order + 1} entries")
        if self.chi[0] != 1:
            raise ValueError("chi[0] must be 1")
        if any(c < 0 for c in self.chi):
            raise ValueError("chi weights must be nonnegative")
        if self.energy_weights is not None:
            if len(self.energy_weights) > self.order + 1:
                raise ValueError("too many energy weights")
            if any(w < 0 for w in self.energy_weights):
                raise ValueError("energy weights must be nonnegative")
        if self.boundary_matrices is not None:
            if len(self.boundary_matrices) > self.order + 1:
                raise ValueError("too many boundary matrices")
            for m in self.boundary_matrices:
                if not _psd_3x3(m):
                    raise ValueError("boundary matrices must be symmetric PSD")

    @staticmethod
    def l2() -> "SobolevParams":
        return SobolevParams()

    @staticmethod
    def order1(chi) -> "SobolevParams":
        return SobolevParams(order=1, chi=(ONE, chi))

    @staticmethod
    def of_weights(chis) -> "SobolevParams":
        """Params from the full weight list (chi_0, ..., chi_m); chi_0 must be 1."""
        chis = tuple(chis)
        return SobolevParams(order=len(chis) - 1, chi=chis)

    def to_json_dict(self) -> dict:
        out = {"m": self.order, "chi": [rat_str(c) for c in self.chi]}
        if self.energy_weights is not None:
            out["energy_weights"] = [rat_str(w) for w in self.energy_weights]
        if self.boundary_matrices is not None:
            out["boundary_matrices"] = [[[rat_str(x) for x in row] for row in m]
                                        for m in self.boundary_matrices]
        return out


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


def energy_inner(f: Poly, g: Poly):
    """Exact energy form E(f, g) via Gauss-Green on the coefficient maps."""
    lap_f = f.laplacian()
    total = -poly_inner(SobolevParams.l2(), lap_f, g)
    for v in (0, 1, 2):
        total += g.boundary_value(v) * f.normal_derivative(v)
    return total


def extended_inner(params: SobolevParams, f: Poly, g: Poly):
    """S^m product plus optional energy terms and corner quadratic forms."""
    total = poly_inner(params, f, g)
    if params.energy_weights:
        df, dg = f, g
        for w in params.energy_weights:
            if w != 0:
                total += w * energy_inner(df, dg)
            df, dg = df.laplacian(), dg.laplacian()
    if params.boundary_matrices:
        df, dg = f, g
        for m in params.boundary_matrices:
            vf = [df.boundary_value(v) for v in (0, 1, 2)]
            vg = [dg.boundary_value(v) for v in (0, 1, 2)]
            total += sum((vf[r] * m[r][c] * vg[c]
                          for r in range(3) for c in range(3)), ZERO)
            df, dg = df.laplacian(), dg.laplacian()
    return total


def basis_indices(family, maxdeg: int) -> list[Index]:
    """Fixed basis order: single family by degree; mixed is (j asc, k asc)."""
    if family == "mixed":
        return [(j, k) for j in range(maxdeg + 1) for k in (1, 2, 3)]
    if family not in (1, 2, 3):
        raise ValueError(f"family must be 1, 2, 3 or 'mixed', got {family!r}")
    return [(j, family) for j in range(maxdeg + 1)]


@dataclass(frozen=True)
class GramMatrix:
    params: SobolevParams
    basis: tuple[Index, ...]
    entries: tuple[tuple[object, ...], ...] = field(repr=False)

    def entry(self, r: int, c: int):
        return self.entries[r][c]

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "basis": [[j, k] for j, k in self.basis],
            "entries": [[rat_str(x) for x in row] for row in self.entries],
        }


def gram_matrix(params: SobolevParams, family, maxdeg: int) -> GramMatrix:
    """Dense matrix of mono_inner values over the fixed basis order."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be >= 0")
    basis = basis_indices(family, maxdeg)
    # mono_inner is symmetric: evaluate r <= c and mirror
    rows = [[mono_inner(params, a, b) for b in basis[r:]] for r, a in enumerate(basis)]
    entries = tuple(tuple(rows[c][r - c] for c in range(r)) + tuple(rows[r])
                    for r in range(len(basis)))
    return GramMatrix(params=params, basis=tuple(basis), entries=entries)
