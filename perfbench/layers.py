"""Per-layer metrics of the traced run, and the functions they are timed at.

A layer is named by its `sgortho` module.  `<module>.<function>.calls` is
the number of calls, `.s` the cumulative time of its spans and `.self_s`
that time minus the time of the traced calls inside it.  Every function
named in such a metric is wrapped in the traced child.
"""

from __future__ import annotations

ACCEPTANCE_CHECKS = (
    "check_orthogonality", "check_recurrence_equivalence", "check_ode_identities",
    "check_coefficient_identities", "check_almost_orthogonality",
    "check_chi_asymptotics", "check_quadrature_exactness", "check_interpolation",
    "check_corner_canaries", "check_norm_chain")

# Untraced wall time of the requests of one kind in a pass.
REQUEST_METRICS = {"eval": "request.eval_s", "zeros": "request.zeros_s",
                   "quad_study": "request.quad_study_s", "ops": "request.ops_s",
                   "verify": "request.verify_s"}

_S, _N = "s", "count"
PER_LAYER = (
    ("solver.dirichlet_solve.calls", _N, "lower"),
    ("solver.dirichlet_solve.self_s", _S, "lower"),
    ("solver.eval_poly_grid.calls", _N, "lower"),
    ("solver.eval_poly_grid.s", _S, "lower"),
    ("solver.vertices_solved", _N, "lower"),
    ("grid.build_grid.s", _S, "lower"),
    ("grid.build_grid.vertices", _N, "lower"),
    ("grid.harmonic_extend.s", _S, "lower"),
    ("grid.restrict_edge.s", _S, "lower"),
    ("grid.csv_rows.s", _S, "lower"),
    ("addresses.make.calls", _N, "lower"),
    ("interp.composite_quadrature.self_s", _S, "lower"),
    ("interp.quadrature_weights.s", _S, "lower"),
    ("interp.interpolation_matrix.s", _S, "lower"),
    ("interp.eval_monomial_at.calls", _N, "lower"),
    ("linalg.bareiss_det.s", _S, "lower"),
    ("linalg.solve_exact.s", _S, "lower"),
    ("linalg.inverse_exact.s", _S, "lower"),
    ("inner.poly_inner.calls", _N, "lower"),
    ("inner.poly_inner.self_s", _S, "lower"),
    ("inner.gram_matrix.s", _S, "lower"),
    ("families.gram_schmidt.calls", _N, "lower"),
    ("families.gram_schmidt.self_s", _S, "lower"),
    ("families.legendre.calls", _N, "lower"),
    ("families.legendre.distinct_ratio", "ratio", "higher"),
    ("families.green_seq.s", _S, "lower"),
    ("families.sobolev_three_term.s", _S, "lower"),
    ("families.sobolev_four_term.s", _S, "lower"),
    ("families.sobolev_higher.s", _S, "lower"),
    ("families.out_bits_max", "bits", "lower"),
    ("odes.ode_residual.s", _S, "lower"),
    ("odes.higher_ode_residual.s", _S, "lower"),
    ("odes.chi_asymptotics.s", _S, "lower"),
    *((f"acceptance.{name}.s", _S, "lower") for name in ACCEPTANCE_CHECKS),
    ("coeffs.table_j60_s", _S, "lower"),
    ("rationals.rat_str.calls", _N, "lower"),
    ("rationals.rat_str.self_s", _S, "lower"),
    ("rationals.rat_decimal.self_s", _S, "lower"),
    ("cli.import_s", _S, "lower"),
    ("cli.main_s", _S, "lower"),
    *((name, _S, "lower") for name in REQUEST_METRICS.values()),
    ("fail_ratio", "ratio", "lower"),
    ("trace.overhead_s", _S, "lower"),
)

SPAN_SUFFIXES = (".calls", ".s", ".self_s")
# Functions reached through a class attribute rather than a module global.
METHODS = {"addresses.make": "VertexAddress.make",
           "grid.csv_rows": "FieldOnGrid.csv_rows"}
# Called so often that only a count is kept, not a span per call.
COUNT_ONLY = frozenset({"addresses.make"})
# Metrics the traced child counts itself rather than derives from spans.
COUNTERS = frozenset({"addresses.make.calls", "solver.vertices_solved",
                      "grid.build_grid.vertices"})
# Builders whose returned coefficients and norms give families.out_bits_max.
FAMILY_BUILDERS = frozenset({
    "families.gram_schmidt", "families.legendre", "families.sobolev_three_term",
    "families.sobolev_four_term", "families.sobolev_higher"})


def traced_functions() -> list[str]:
    """`module.function` of every function a span or count is kept for."""
    out = []
    for name, _unit, _better in PER_LAYER:
        for suffix in SPAN_SUFFIXES:
            if name.endswith(suffix) and name.count(".") == 2:
                out.append(name[: -len(suffix)])
    out += sorted(FAMILY_BUILDERS)
    return list(dict.fromkeys(out))
