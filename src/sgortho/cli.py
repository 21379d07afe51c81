"""Command-line front end, and the one place that renders output.

All computation is exact rational, and the library calls return exact values
(Fractions, Polys, lists of them); this module turns them into CSV rows and
JSON payloads.  Decimal rendering (controlled by --digits) is the only lossy
step, so re-running a command with identical flags produces byte-identical
output.  The weight flags --chi and --chi-list accept exact fractions
("--chi 1/2"), and `zeros` counts a grid value as a zero only when it is
exactly 0.  CSV output is comma-separated UTF-8 with LF line endings
and a header row; JSON uses a stable key order.

Exit codes (every non-zero one comes with a message on stderr): 0 on
success, 2 on a usage error (an unwritable --out path included), 3 when a
runtime mathematical assumption is violated (or `verify` finds an unexpected
failure), 4 when two exact computations of the same quantity disagree (an
internal consistency check).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .acceptance import run_all
from .coeffs import TABLE
from .errors import ConsistencyError, MathematicalAssumptionError
from .families import (gram_schmidt, legendre, sobolev_four_term,
                       sobolev_higher, sobolev_three_term)
from .grid import count_sign_changes, restrict_edge
from .inner import L2, SobolevParams, basis_indices, gram_matrix
from .interp import (degenerate_spine_nodes, det_and_condition,
                     interpolation_matrix, quadrature_error_study,
                     quadrature_weights, spine_nodes, v1_nodes)
from .odes import chi_asymptotics
from .poly import Poly
from .rationals import Rat, rat_decimal, rat_from_str, rat_str
from .solver import eval_poly_grid


def _weights(text: str):
    """Comma-separated Sobolev weights: non-negative rationals."""
    weights = []
    for part in text.split(","):
        try:
            value = rat_from_str(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"not a rational: {part!r}") from exc
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, not {part!r}")
        weights.append(value)
    return tuple(weights)


def _size(text: str) -> int:
    """A degree, level, order or count: a non-negative integer."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


class UsageError(Exception):
    """Flags that parse one by one but do not fit together."""


def _write(out_path: str | None, text) -> None:
    """Write a string, or an iterable of lines as they come."""
    lines = [text] if isinstance(text, str) else text
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: "
                             f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.writelines(lines)


def _check_out(out_path: str | None) -> None:
    """Refuse, before any work, an --out that names a directory or lies in
    one that does not exist; the file itself is not touched until `_write`."""
    if not out_path:
        return
    if os.path.isdir(out_path):
        reason = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(out_path) or "."):
        reason = errno.ENOENT
    else:
        return
    raise UsageError(f"cannot write --out {out_path}: {os.strerror(reason)}")


def _csv(rows, header):
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# -- JSON payloads of exact values: rationals as rat_str, keys in a fixed order

def _params_json(params: SobolevParams) -> dict:
    return {"m": params.order, "chi": [rat_str(c) for c in params.chi]}


def _poly_json(p: Poly) -> dict:
    return {f"({j},{k})": rat_str(c) for (j, k), c in sorted(p.coeffs.items())}


def _matrix_json(basis, entries) -> dict:
    return {"basis": [[j, k] for j, k in basis],
            "entries": [[rat_str(x) for x in row] for row in entries]}


def _family_json(fam) -> dict:
    """The family, with each recurrence table keyed "n" or "n,l"."""
    rec = {name: {(",".join(map(str, k)) if isinstance(k, tuple) else str(k)):
                  rat_str(v) for k, v in sorted(table.items())}
           for name, table in fam.recurrence.items()}
    return {"family": fam.family, "params": _params_json(fam.params),
            "method": fam.method, "polys": [_poly_json(p) for p in fam.polys],
            "norms_sq": [rat_str(v) for v in fam.norms_sq], "recurrence": rec}


def _params_from_args(args) -> SobolevParams:
    order, chis = args.m, args.chi
    if order == 0:
        if chis is not None:
            raise UsageError("--chi needs --m >= 1; --m 0 is plain L2")
        return L2
    if chis is None:
        chis = (Rat(1),) * order
    if len(chis) == 1 and order > 1:
        chis = chis * order
    if len(chis) != order:
        raise UsageError(f"--chi gives {len(chis)} weights; --m {order} needs "
                         f"1 or {order}")
    return SobolevParams((Rat(1),) + tuple(chis))


def _build_family(family: int, params: SobolevParams, degree: int, method: str):
    if method == "gram-schmidt":
        return gram_schmidt(params, family, degree)
    if params.order >= 2:
        if family == 1:
            # k=1 has no order-m recurrence, so there is no table to add
            return gram_schmidt(params, family, degree)
        if params.chi[-1] == 0:
            raise UsageError(f"--chi: the order-{params.order} recurrence needs "
                             f"chi_{params.order} > 0 (ops --method gram-schmidt "
                             f"accepts chi_{params.order} = 0)")
        return sobolev_higher(params, family, degree)
    chi = params.chi[1] if params.order == 1 else None
    if chi is None:
        return legendre(family, degree)
    if family == 1:
        return sobolev_four_term(chi, degree)
    return sobolev_three_term(family, chi, degree)


def _solve_level(args) -> int | None:
    if args.solve_level is not None and args.solve_level < args.level:
        raise UsageError(f"--solve-level {args.solve_level} is below "
                         f"--level {args.level}")
    return args.solve_level


def cmd_coeffs(args) -> int:
    rows = []
    for j in range(args.max_j + 1):
        rows.append((j, rat_str(TABLE.alpha(j)), rat_str(TABLE.beta(j)),
                     rat_str(TABLE.gamma(j)), rat_str(TABLE.eta(j))))
    if args.format == "csv":
        _write(args.out, _csv(rows, ("j", "alpha", "beta", "gamma", "eta")))
    else:
        payload = {"coefficients": [
            {"j": r[0], "alpha": r[1], "beta": r[2], "gamma": r[3], "eta": r[4]}
            for r in rows]}
        _write(args.out, _json(payload))
    return 0


def cmd_gram(args) -> int:
    params = _params_from_args(args)
    family = "mixed" if args.family == "mixed" else int(args.family)
    entries = gram_matrix(params, family, args.maxdeg)
    _write(args.out, _json({"params": _params_json(params),
                            **_matrix_json(basis_indices(family, args.maxdeg),
                                           entries)}))
    return 0


def cmd_ops(args) -> int:
    params = _params_from_args(args)
    fam = _build_family(args.family, params, args.degree, args.method)
    _write(args.out, _json(_family_json(fam)))
    return 0


def _selected_poly(which: str, params: SobolevParams, args) -> Poly:
    """The polynomial of --family and --degree that `which` names: the
    monomial, the Legendre member or the Sobolev member."""
    if which == "monomial":
        return Poly.monomial(args.degree, args.family)
    if which == "legendre":
        return legendre(args.family, args.degree).polys[args.degree]
    return _build_family(args.family, params, args.degree,
                         "recurrence").polys[args.degree]


def cmd_eval(args) -> int:
    params = _params_from_args(args)
    solve_level = _solve_level(args)
    field = eval_poly_grid(_selected_poly(args.which, params, args),
                           args.level, solve_level)
    # the values are exact before --out is opened; only the rendering streams
    _write(args.out, _csv(field.csv_rows(args.digits),
                          ("address", "x", "y", "value")))
    return 0


def cmd_zeros(args) -> int:
    params = _params_from_args(args)
    whiches = args.which.split(",")
    if not set(whiches) <= {"legendre", "sobolev"}:
        raise UsageError(f"--which takes legendre and/or sobolev, not {args.which!r}")
    solve_level = _solve_level(args)
    rows = []
    for which in whiches:
        field = eval_poly_grid(_selected_poly(which, params, args),
                               args.level, solve_level)
        for edge in ("bottom", "left", "right"):
            changes, zeros = count_sign_changes(restrict_edge(field, edge))
            rows.append((which, args.degree, edge, changes, zeros))
    _write(args.out, _csv(rows, ("which", "degree", "edge", "sign_changes",
                                 "exact_zeros")))
    return 0


def cmd_interp(args) -> int:
    if args.nodes == "spine":
        nodes = spine_nodes(args.n)
    elif args.nodes == "degenerate":
        nodes = degenerate_spine_nodes(args.n)
    else:
        if args.n != 1:
            raise UsageError(f"--nodes v1 is the degree-1 set; it needs --n 1, "
                             f"not --n {args.n}")
        nodes = v1_nodes()
    matrix = interpolation_matrix(nodes)
    det, condition = det_and_condition(matrix)
    # every entry is exact, so the determinant carries no error bound
    payload = {
        "nodes": args.nodes,
        "n": args.n,
        "node_addresses": [str(a) for a in nodes.nodes],
        "fully_exact": True,
        "det": rat_str(det),
        "det_decimal": rat_decimal(det, args.digits),
        "det_error_bound": "0",
    }
    if condition is not None:
        payload["condition_inf"] = condition
    if args.matrix:
        payload["matrix"] = _matrix_json(basis_indices("mixed", nodes.n), matrix)
    _write(args.out, _json(payload))
    return 0


def cmd_quad(args) -> int:
    if args.study_degree is not None and args.m_max < args.n:
        raise UsageError(f"--m-max {args.m_max} is below --n {args.n}")
    rule = quadrature_weights(args.n)
    if args.study_degree is None:
        _write(args.out, _json({"n": rule.n,
                                "nodes": [str(a) for a in rule.nodes.nodes],
                                "weights": [rat_str(w) for w in rule.weights]}))
        return 0
    f = Poly.monomial(args.study_degree, args.study_family)
    rows = quadrature_error_study(args.n, f, args.m_max)
    table = []
    for r in rows:
        table.append((r["m"], rat_decimal(r["estimate"], args.digits),
                      rat_decimal(r["exact"], args.digits),
                      rat_decimal(r["abs_error"], args.digits),
                      rat_decimal(r["ratio"], 4) if "ratio" in r else ""))
    _write(args.out, _csv(table, ("m", "estimate", "exact", "abs_error", "ratio")))
    return 0


def cmd_sweep_chi(args) -> int:
    rep = chi_asymptotics(args.family, args.n, args.chi_list)
    rep["rows"] = [{key: rat_str(v) for key, v in row.items()} for row in rep["rows"]]
    if "chi_b_tilde_limit" in rep:
        rep["chi_b_tilde_limit"] = rat_str(rep["chi_b_tilde_limit"])
    _write(args.out, _json(rep))
    return 0


def cmd_verify(args) -> int:
    results = run_all(include_slow=not args.quick)
    width = max(len(r.name) for r in results)
    lines = []
    ok = True
    for r in results:
        lines.append(f"{r.status:18s} {r.name:{width}s} {r.detail}")
        print(f"{r.seconds:7.2f}s {r.name}", file=sys.stderr)
        ok = ok and r.ok
    lines.append("summary: " + ("all checks passed (documented exceptions "
                                "reported above)" if ok else "UNEXPECTED FAILURES"))
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if ok else 3


_LEVEL_HELP = "grid level L: (3^(L+1)+3)/2 vertices, so level 12 has 797,163"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgortho",
        description="Exact Legendre/Sobolev orthogonal polynomials on the "
                    "Sierpinski gasket: coefficients, Gram matrices, "
                    "recurrences, grid evaluation, zero counts, interpolation "
                    "and quadrature.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, digits=True):
        p.add_argument("--out", help="write output to this file instead of stdout")
        if digits:
            p.add_argument("--digits", type=_size, default=12,
                           help="decimal digits for rendered values (default 12)")

    p = sub.add_parser("coeffs", help="fundamental coefficient sequences as "
                                      "exact rationals")
    p.add_argument("--max-j", type=_size, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p, digits=False)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("gram", help="exact Gram matrix of monomials as JSON")
    p.add_argument("--family", choices=("1", "2", "3", "mixed"), required=True)
    p.add_argument("--maxdeg", type=_size, required=True)
    p.add_argument("--m", type=_size, default=0, help="Sobolev order (default 0 = plain L2)")
    p.add_argument("--chi", type=_weights,
                   help="comma-separated weights chi_1..chi_m (default all 1)")
    add_common(p, digits=False)
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("ops", help="orthogonal polynomial family as JSON")
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--degree", type=_size, required=True)
    p.add_argument("--m", type=_size, default=1, help="Sobolev order (default 1)")
    p.add_argument("--chi", type=_weights, help="weights chi_1..chi_m (default 1)")
    p.add_argument("--method", choices=("recurrence", "gram-schmidt"),
                   default="recurrence")
    add_common(p, digits=False)
    p.set_defaults(fn=cmd_ops)

    p = sub.add_parser("eval", help="evaluate a polynomial on a level grid "
                                    "(CSV: address,x,y,value)")
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--degree", type=_size, required=True)
    p.add_argument("--m", type=_size, default=1)
    p.add_argument("--chi", type=_weights)
    p.add_argument("--which", choices=("sobolev", "legendre", "monomial"),
                   default="sobolev")
    p.add_argument("--level", type=_size, required=True,
                   help=_LEVEL_HELP)
    p.add_argument("--solve-level", type=_size,
                   help="collocation solve level, at least --level "
                        "(default level + 2)")
    add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("zeros", help="edge sign-change counts for Legendre and "
                                     "Sobolev polynomials")
    p.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--degree", type=_size, required=True)
    p.add_argument("--m", type=_size, default=1)
    p.add_argument("--chi", type=_weights)
    p.add_argument("--which", default="legendre,sobolev")
    p.add_argument("--level", type=_size, default=7,
                   help=_LEVEL_HELP + " (default 7)")
    p.add_argument("--solve-level", type=_size)
    add_common(p, digits=False)
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("interp", help="interpolation matrix determinant and "
                                      "condition report")
    p.add_argument("--nodes", choices=("spine", "v1", "degenerate"),
                   default="spine")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--matrix", action="store_true", help="include the matrix entries")
    add_common(p)
    p.set_defaults(fn=cmd_interp)

    p = sub.add_parser("quad", help="quadrature rule export / composite error study")
    p.add_argument("--n", type=_size, required=True, help="rule exactness degree")
    p.add_argument("--study-degree", type=_size,
                   help="run the error study for the monomial of this degree")
    p.add_argument("--study-family", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--m-max", type=_size, default=4)
    add_common(p)
    p.set_defaults(fn=cmd_quad)

    p = sub.add_parser("sweep-chi", help="large-weight convergence study of the "
                                         "Sobolev family (exact)")
    p.add_argument("--family", type=int, choices=(2, 3), required=True)
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--chi-list", type=_weights, required=True)
    add_common(p, digits=False)
    p.set_defaults(fn=cmd_sweep_chi)

    p = sub.add_parser("verify", help="run the exact property suite and print a "
                                      "pass/fail table")
    p.add_argument("--quick", action="store_true",
                   help="skip the grid-based checks")
    add_common(p, digits=False)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except UsageError as exc:
        parser.error(str(exc))
    except MathematicalAssumptionError as exc:
        print(f"mathematical assumption violated: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
