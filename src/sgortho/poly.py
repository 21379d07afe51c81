"""Polynomials on the gasket as exact coefficient maps over the monomial basis.

A polynomial is a finite map (degree j, family k) -> rational coefficient.
The Laplacian acts by shifting degrees down; the Dirichlet Green operator acts
on monomials by shifting degrees up and adding an explicit harmonic correction:

    G P_{l,1} = P_{l+1,1} + 2 alpha_{l+1} P_{0,2}
    G P_{l,2} = P_{l+1,2} + 2 beta_{l+1}  P_{0,2}
    G P_{l,3} = P_{l+1,3} - 2 gamma_{l+1} P_{0,3}

so that Laplacian(G f) = f and G f vanishes at all three corners.
"""

from __future__ import annotations

from .coeffs import TABLE, FAMILIES
from .rationals import ZERO, Rat, rat_str

Index = tuple[int, int]


class Poly:
    """Exact polynomial sum(c_{j,k} P_{j,k}) with an optional base point."""

    __slots__ = ("coeffs", "base_point")

    def __init__(self, coeffs: dict | None = None, base_point: int = 0):
        clean: dict[Index, object] = {}
        if coeffs:
            for (j, k), c in coeffs.items():
                if k not in FAMILIES or j < 0:
                    raise ValueError(f"bad monomial index ({j},{k})")
                if c != 0:
                    clean[(j, k)] = c
        self.coeffs = clean
        self.base_point = base_point

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(base_point: int = 0) -> "Poly":
        return Poly({}, base_point)

    @staticmethod
    def monomial(j: int, k: int, c=1, base_point: int = 0) -> "Poly":
        return Poly({(j, k): Rat(c)}, base_point)

    # -- ring structure ---------------------------------------------------------

    def _assert_compatible(self, other: "Poly") -> None:
        if self.base_point != other.base_point and self.coeffs and other.coeffs:
            raise ValueError("polynomials have different base points")

    def __add__(self, other: "Poly") -> "Poly":
        self._assert_compatible(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, ZERO) + c
        base = self.base_point if self.coeffs else other.base_point
        return Poly(out, base)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({idx: -c for idx, c in self.coeffs.items()}, self.base_point)

    def scale(self, c) -> "Poly":
        if c == 0:
            return Poly.zero(self.base_point)
        return Poly({idx: c * v for idx, v in self.coeffs.items()}, self.base_point)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs and not other.coeffs:
            return True
        return self.coeffs == other.coeffs and self.base_point == other.base_point

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.base_point))

    def __getitem__(self, idx: Index):
        return self.coeffs.get(idx, ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Max degree with a nonzero coefficient; -1 for the zero polynomial."""
        return max((j for j, _ in self.coeffs), default=-1)

    def families(self) -> set[int]:
        return {k for _, k in self.coeffs}

    def is_monic(self, family: int) -> bool:
        return self[(self.degree, family)] == 1

    # -- calculus ---------------------------------------------------------------

    def laplacian(self) -> "Poly":
        """Shift every coefficient from (j,k) to (j-1,k); degree-0 terms vanish."""
        return Poly({(j - 1, k): c for (j, k), c in self.coeffs.items() if j > 0},
                    self.base_point)

    def laplacian_power(self, n: int) -> "Poly":
        out = self
        for _ in range(n):
            out = out.laplacian()
        return out

    def green(self) -> "Poly":
        """Apply the Dirichlet Green operator (right inverse of the Laplacian)."""
        if self.base_point != 0 and self.coeffs:
            raise ValueError("Green operator is defined for base point 0 only")
        out: dict[Index, object] = {}

        def add(idx, c):
            out[idx] = out.get(idx, ZERO) + c

        for (l, k), c in self.coeffs.items():
            add((l + 1, k), c)
            if k == 1:
                add((0, 2), 2 * TABLE.alpha(l + 1) * c)
            elif k == 2:
                add((0, 2), 2 * TABLE.beta(l + 1) * c)
            else:
                add((0, 3), -2 * TABLE.gamma(l + 1) * c)
        return Poly(out, 0)

    def green_power(self, n: int) -> "Poly":
        out = self
        for _ in range(n):
            out = out.green()
        return out

    # -- boundary data ------------------------------------------------------------

    def boundary_value(self, vertex: int):
        """Exact value at corner q_vertex (base point 0 only)."""
        self._require_base0()
        return sum((c * TABLE.value(j, k, vertex) for (j, k), c in self.coeffs.items()),
                   ZERO)

    def normal_derivative(self, vertex: int):
        """Exact normal derivative at corner q_vertex (base point 0 only)."""
        self._require_base0()
        return sum((c * TABLE.normal(j, k, vertex) for (j, k), c in self.coeffs.items()),
                   ZERO)

    def dirichlet_data(self) -> tuple:
        """Iterated Dirichlet data: for each corner q_i, the values
        Lap^s f(q_i) for s <= degree (base point 0 only).  They fix f."""
        chain = [self.laplacian_power(s) for s in range(max(self.degree, 0) + 1)]
        return tuple(tuple(p.boundary_value(i) for p in chain) for i in range(3))

    def integral(self):
        """Exact integral against the self-similar probability measure."""
        return sum((c * TABLE.integral(j, k) for (j, k), c in self.coeffs.items()),
                   ZERO)

    def eval_spine(self, depth: int, target: int):
        """Exact value at F_0^depth(q_target), target in {1,2}, via scaling laws.

        P_{j,1}(F_0^m x) = 5^{-jm} P_{j,1}(x); the k=2 family picks up an extra
        (3/5)^m and the k=3 family scales as 5^{-(j+1)m}, with a sign flip at
        the q2 side by anti-symmetry.
        """
        self._require_base0()
        if target not in (1, 2):
            raise ValueError("spine evaluation targets corner 1 or 2")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        total = ZERO
        m = depth
        for (j, k), c in self.coeffs.items():
            if k == 1:
                total += c * Rat(1, 5 ** (j * m)) * TABLE.alpha(j)
            elif k == 2:
                total += c * Rat(3 ** m, 5 ** ((j + 1) * m)) * TABLE.beta(j)
            else:
                v = c * Rat(1, 5 ** ((j + 1) * m)) * TABLE.gamma(j)
                total += v if target == 1 else -v
        return total

    def _require_base0(self) -> None:
        if self.base_point != 0 and self.coeffs:
            raise ValueError("operation requires base point 0")

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {f"({j},{k})": rat_str(c)
                for (j, k), c in sorted(self.coeffs.items())}

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = " + ".join(f"{rat_str(c)}*P[{j},{k}]"
                           for (j, k), c in sorted(self.coeffs.items()))
        return f"Poly({terms})"
