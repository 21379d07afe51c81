"""Output checks that hold for any correct implementation, not just this one.

Exact outputs (`ops`, `coeffs`, `gram`, `sweep-chi`, `interp`, `quad --n`)
must match the recorded sha256 of stdout.  Approximate outputs are checked
by properties, so a more accurate evaluation algorithm still passes:

- `eval`: the level-m grid has 3(3^m+1)/2 rows, and each of its 2(m+1)
  spine rows matches the closed form `Poly.eval_spine` of the Gram-Schmidt
  polynomial within the collocation bound, about half the largest spine
  value at solve level 8.  The other rows are checked by their count only.
- `zeros`: the sign-change table equals the recorded one.
- quadrature study: the `exact` column is the exact integral, and the
  geometric mean of the error ratios lies in [15, 40].
- `verify --quick`: the status and name columns match; the timings it
  prints vary from run to run.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from proc import SRC

REFERENCES = Path(__file__).resolve().parent / "references.json"
SHA_KINDS = frozenset({"ops", "coeffs", "gram", "sweep_chi", "interp", "quad"})
KNOWN_DEFECT = ("rat_str exceeds CPython's 4300-digit int-to-string limit "
                "after the family is built")
DEFECT_SIGNATURE = b"Exceeds the limit (4300 digits) for integer string conversion"

# Bound on the collocation error of eval_poly_grid on the spine, relative to
# the largest exact spine value, times 5^solve_level.  The error shrinks 5x
# per solve level; this factor measured 1.1e5 for family 2 and 3.3e4 for
# family 3 (degree 5, chi in {1, 1/9, 7/8, 9}, solve levels 5 to 7).
COLLOCATION_FACTOR = 2 * 10**5
RATIO_RANGE = (15, 40)


@dataclass
class Verdict:
    ok: bool
    known_defect: bool = False
    reason: str = ""


def verify_table(text: str) -> dict:
    """Status and name columns of `verify` output, and its summary line."""
    lines = text.rstrip("\n").split("\n")
    rows = [[line[:18].strip(), line[19:].split(" ", 1)[0]] for line in lines[:-1]]
    return {"rows": rows, "summary": lines[-1]}


def decimal(value: Fraction, digits: int) -> str:
    """Round-half-even rendering with `digits` fractional digits."""
    sign = "-" if value < 0 else ""
    q, r = divmod(abs(value.numerator) * 10**digits, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q % 2):
        q += 1
    whole, frac = divmod(q, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def spine_key(line: str):
    """(depth, corner) of an `eval` row at the spine vertex F_0^depth(q_corner),
    or None for a row elsewhere."""
    word, corner = line.split(",", 1)[0].split(".")
    word = "" if word == "e" else word
    return (len(word), int(corner)) if corner in "12" and set(word) <= {"0"} else None


def _option(argv, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


class Checker:
    """Checks the output of one request against references or properties."""

    def __init__(self):
        self.refs = json.loads(REFERENCES.read_text())
        self._polys: dict = {}
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def check(self, req, returncode: int, stdout: bytes, stderr: bytes) -> Verdict:
        if returncode != 0:
            if req.key in self.refs["known_defects"] and DEFECT_SIGNATURE in stderr:
                return Verdict(False, True, "known defect: " + KNOWN_DEFECT)
            tail = stderr.decode(errors="replace").strip().split("\n")[-1]
            return Verdict(False, reason=f"exit {returncode}: {tail}")
        if req.kind in SHA_KINDS:
            reason = self._sha(req, stdout)
        else:
            try:
                reason = getattr(self, "_" + req.kind)(req, stdout.decode())
            except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
                reason = f"unparsable output: {exc!r}"
        return Verdict(reason is None, reason=reason or "")

    def _sha(self, req, stdout: bytes):
        want = self.refs["sha256"].get(req.key)
        if want is None:
            return "no reference recorded"
        if hashlib.sha256(stdout).hexdigest() != want:
            return "sha256 of stdout differs from the reference"
        return None

    def _zeros(self, req, text: str):
        if text != self.refs["zeros"].get(req.key):
            return "sign-change table differs from the reference"
        return None

    def _verify(self, req, text: str):
        if verify_table(text) != self.refs["verify"]:
            return "status column differs from the reference"
        return None

    def _sobolev_poly(self, family: int, chi: str, degree: int):
        key = (family, chi, degree)
        if key not in self._polys:
            from sgortho import SobolevParams, gram_schmidt, rat_from_str
            params = SobolevParams.order1(rat_from_str(chi))
            self._polys[key] = gram_schmidt(params, family, degree).polys[degree]
        return self._polys[key]

    def _eval(self, req, text: str):
        argv = req.argv
        level = int(_option(argv, "--level"))
        solve_level = int(_option(argv, "--solve-level", level + 2))
        digits = int(_option(argv, "--digits", 12))
        poly = self._sobolev_poly(int(_option(argv, "--family")),
                                  _option(argv, "--chi", "1"),
                                  int(_option(argv, "--degree")))
        lines = text.rstrip("\n").split("\n")
        if lines[0] != "address,x,y,value":
            return "bad header"
        if len(lines) - 1 != 3 * (3**level + 1) // 2:
            return f"{len(lines) - 1} rows for level {level}"
        spine = {}
        for line in lines[1:]:
            key = spine_key(line)
            if key is not None:
                spine[key] = Fraction(line.rsplit(",", 1)[1])
        if sorted(spine) != [(d, t) for d in range(level + 1) for t in (1, 2)]:
            return "spine rows missing"
        exact = {k: poly.eval_spine(*k) for k in spine}
        scale = max(abs(v) for v in exact.values())
        bound = (COLLOCATION_FACTOR * scale / 5**solve_level
                 + Fraction(1, 2 * 10**digits))
        worst = max(abs(spine[k] - exact[k]) for k in spine)
        if worst > bound:
            return f"spine error {float(worst):.3e} above bound {float(bound):.3e}"
        return None

    def _quad_study(self, req, text: str):
        from sgortho import Poly
        argv = req.argv
        n, m_max = int(_option(argv, "--n")), int(_option(argv, "--m-max", 4))
        digits = int(_option(argv, "--digits", 12))
        f = Poly.monomial(int(_option(argv, "--study-degree")),
                          int(_option(argv, "--study-family", 1)))
        exact = decimal(f.integral(), digits)
        lines = text.rstrip("\n").split("\n")
        if lines[0] != "m,estimate,exact,abs_error,ratio":
            return "bad header"
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(n, m_max + 1)):
            return "wrong levels"
        if any(r[2] != exact for r in rows):
            return "exact column is not the exact integral"
        ratios = [float(r[4]) for r in rows if r[4]]
        if not ratios:
            return "no error ratios"
        mean = math.exp(sum(map(math.log, ratios)) / len(ratios))
        if not RATIO_RANGE[0] <= mean <= RATIO_RANGE[1]:
            return f"error-ratio geometric mean {mean:.2f} outside {RATIO_RANGE}"
        return None
