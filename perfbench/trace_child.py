"""Run one sgortho CLI request in-process, with spans at the layer boundaries.

    python3 perfbench/trace_child.py --spans FILE --request-id N -- ARGV...

Every function listed by `layers.traced_functions()` is replaced, in every
`sgortho` module namespace that binds it, by a wrapper that records a span
(name, start, end, parent, request id).  Spans stay in memory and are written
to FILE as JSON when the request ends, also when it fails; the exit status
and stdout are the CLI's own.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from collections import Counter

import layers

clock = time.perf_counter


class Tracer:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.legendre_args: set = set()
        self.families: dict[int, object] = {}

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "sgortho" or name.startswith("sgortho.")]
        for layer in layers.traced_functions():
            module_name, func_name = layer.split(".")
            module = sys.modules["sgortho." + module_name]
            owner_name, _, attr = layers.METHODS.get(layer, func_name).rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = inspect.getattr_static(owner, attr)
                is_static = isinstance(raw, staticmethod)
                wrapper = self._wrap(layer, raw.__func__ if is_static else raw)
                setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
                continue
            func = getattr(module, attr)
            wrapper = self._wrap(layer, func)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is func]:
                    setattr(mod, key, wrapper)

    def _wrap(self, layer: str, func):
        counts = self.counts
        if layer in layers.COUNT_ONLY:
            key = layer + ".calls"

            @functools.wraps(func)
            def counted(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)
            return counted

        spans, stack = self.spans, self.stack
        generator = inspect.isgeneratorfunction(func)
        after = self._after(layer, func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
                if generator:  # time the rows, not the generator's creation
                    result = list(result)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return iter(result) if generator else result
        return traced

    def _after(self, layer: str, func):
        """A hook that counts work from a call's arguments or result."""
        counts = self.counts
        if layer == "solver.dirichlet_solve":
            return lambda a, k, r: counts.update({"solver.vertices_solved": len(r.values)})
        if layer == "grid.build_grid":
            return lambda a, k, r: counts.update({"grid.build_grid.vertices": len(r.vertices)})
        if layer == "families.legendre":
            signature = inspect.signature(func)

            def remember(a, k, r):
                self.legendre_args.add(tuple(signature.bind(*a, **k).arguments.values()))
                self.families[id(r)] = r
            return remember
        if layer in layers.FAMILY_BUILDERS:
            return lambda a, k, r: self.families.__setitem__(id(r), r)
        return None

    def out_bits_max(self) -> int:
        bits = 0
        for fam in self.families.values():
            values = list(fam.norms_sq)
            for poly in fam.polys:
                values.extend(poly.coeffs.values())
            for v in values:
                bits = max(bits, int(v.numerator).bit_length(),
                           int(v.denominator).bit_length())
        return bits

    def dump(self, path: str, import_s: float, main_s: float) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "request_id": self.request_id,
            "import_s": import_s,
            "main_s": main_s,
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], self.request_id]
                      for s in self.spans],
            "counts": dict(self.counts),
            "legendre_distinct": len(self.legendre_args),
            "out_bits_max": self.out_bits_max(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--request-id", type=int, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = clock()
    from sgortho import cli
    import_s = clock() - start
    tracer = Tracer(args.request_id)
    tracer.install()
    start = clock()
    try:
        return cli.main(argv)
    finally:
        main_s = clock() - start
        sys.stdout.flush()
        tracer.dump(args.spans, import_s, main_s)


if __name__ == "__main__":
    sys.exit(main())
