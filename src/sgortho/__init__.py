"""Exact-arithmetic orthogonal polynomials on the Sierpinski gasket.

Legendre (plain L2) and Sobolev (Laplacian-weighted) orthogonal polynomial
families over the three monomial families of the gasket, with recurrence
relations, differential-equation identities, norm estimates, convergent grid
evaluation, polynomial interpolation node sets and spline quadrature rules.
Every internal quantity is an exact rational.
"""

from .coeffs import CoeffTable, TABLE
from .errors import ConsistencyError, MathematicalAssumptionError
from .families import (OPFamily, associated_family, gram_schmidt, green_seq,
                       legendre, legendre_recurrence_coeffs, limit_family_sym,
                       sobolev_four_term, sobolev_higher, sobolev_three_term)
from .grid import (FieldOnGrid, LevelGrid, build_grid, count_sign_changes,
                   harmonic_extend, multiharmonic_extend, restrict_edge)
from .addresses import VertexAddress, spine_address
from .inner import SobolevParams, gram_matrix, mono_inner, mono_inner_l2, poly_inner
from .interp import (NodeSet, QuadratureRule, composite_quadrature,
                     degenerate_spine_nodes, interpolation_matrix,
                     quadrature_error_study, quadrature_weights, spine_nodes,
                     v1_nodes)
from .odes import chi_asymptotics, higher_ode_residual, ode_residual
from .poly import Poly
from .rationals import Rat, rat_decimal, rat_from_str, rat_str
from .solver import dirichlet_solve, eval_poly_grid

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
