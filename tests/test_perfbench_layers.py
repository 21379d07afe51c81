"""The traced benchmark's layer names must resolve in the package.

`perfbench/trace_child.py` wraps every function that `perfbench/layers.py`
names and reads `build_grid(m).vertices` for its vertex counter; a rename in
the package would break `perfbench/run.py --trace 1` without failing any
other test.  `layers.py` is executed from its source, so nothing is written
under `perfbench/`.  The harness also reads some names outside the tracer
(`checks.py`, `run.py`, `trace_child.py`); those are checked here too.
"""

import importlib
import runpy
from pathlib import Path

from sgortho.grid import build_grid

LAYERS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"))


def _resolve(layer: str, path: str):
    module_name, _ = layer.split(".")
    owner = importlib.import_module("sgortho." + module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_traced_functions_resolve():
    methods = LAYERS["METHODS"]
    for layer in LAYERS["traced_functions"]():
        assert callable(_resolve(layer, methods.get(layer, layer.split(".")[1]))), layer


def test_method_owners_resolve():
    for layer, path in LAYERS["METHODS"].items():
        assert callable(_resolve(layer, path)), layer


def test_build_grid_lists_every_vertex():
    # the tracer's grid.build_grid.vertices counter reads this list
    for m in range(5):
        assert len(build_grid(m).vertices) == 3 * (3**m + 1) // 2


def test_names_read_outside_the_tracer_resolve():
    import sgortho
    from sgortho import cli, rationals
    from sgortho.coeffs import CoeffTable

    # checks.py: the output checks rebuild polynomials from the package root
    params = sgortho.SobolevParams.order1(sgortho.rat_from_str("1/2"))
    family = sgortho.gram_schmidt(params, 2, 2)
    monomial = sgortho.Poly.monomial(1, 1)
    assert family.polys[2].eval_spine(1, 1) is not None
    assert monomial.integral() is not None
    # run.py: the coefficient-table timing and the backend name
    table = CoeffTable()
    for accessor in (table.alpha, table.beta, table.gamma, table.eta):
        assert accessor(3) is not None
    assert rationals.HAVE_GMPY2 in (True, False)
    # trace_child.py: out_bits_max reads every family's polys and norms,
    # and the request runs through cli.main
    assert len(family.polys) == len(family.norms_sq) == 3
    assert all(isinstance(c, type(sgortho.Rat(0)))
               for c in monomial.coeffs.values())
    assert callable(cli.main)
