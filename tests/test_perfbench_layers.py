"""The traced benchmark's layer names must resolve in the package.

`perfbench/trace_child.py` wraps every function that `perfbench/layers.py`
names and reads `build_grid(m).vertices` for its vertex counter; a rename in
the package would break `perfbench/run.py --trace 1` without failing any
other test.  `layers.py` is executed from its source, so nothing is written
under `perfbench/`.
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
