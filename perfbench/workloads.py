"""Request lists of the three benchmark workloads, drawn from a seed.

Every request is one cold `sgortho` CLI process.  A template names its
seed-drawn parameters in braces: `{chi}` is a Sobolev weight p/q with
p, q <= 9, and the `{fam...}` fields are the gasket families a request may
take.  Seed 0 takes the first choice of every field, which gives the
reference lists below; any other seed draws each field independently.

A seed changes which numbers are computed but not how much work a pass
is: a family is offered only where its cost matches the default's within
run-to-run noise.  The k=3 quadrature study (about 15% more) and the
Legendre build of another family (k=1 about 12% less, k=2 about 13% more
CPU at degree 16) are therefore not offered.

chi is not restricted, because its cost is within that noise.  Eleven
values (2, 9, 1/9, 1/2, 8/9, 9/8, 7/9, 9/7, 5/7, 7/5, 3/8) were timed, each
run between two chi=1 runs, three times, in the family requests, the grid
eval and the battery gram.  The CPU time of a chi run over the mean of its
two neighbours had median 0.99 to 1.01 per request and IQR/median 0.07 to
0.14 (all values 0.76 to 1.17).  The ratio of the two chi=1 neighbours
themselves had IQR/median 0.10 to 0.23 (2-vCPU VM).
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0
WORKLOADS = ("grid", "family", "battery")

CHIS = tuple(str(c) for c in sorted(
    {Fraction(p, q) for p in range(1, 10) for q in range(1, 10)},
    key=lambda c: (c != 1, c)))

CHOICES = {
    "chi": CHIS,
    "fam_grid": ("3", "2"),
    "fam_study": ("1", "2"),
    "fam_three_term": ("2", "3"),
    "fam_order2": ("3", "2"),
    "fam_sweep": ("3", "2"),
}

FULL = {"eval_degree": 5, "eval_level": 6, "zeros_level": 5, "m_max": 4,
        "ops_degree": 16, "order2_degree": 13, "max_j": 60, "gram_maxdeg": 10}
SMOKE = {"eval_degree": 3, "eval_level": 2, "zeros_level": 2, "m_max": 2,
         "ops_degree": 4, "order2_degree": 4, "max_j": 5, "gram_maxdeg": 3}

# (kind, template); sizes are filled from FULL or SMOKE first.
TEMPLATES = {
    # Solver and grid layers do >= 95% of the work; eval renders 1,095 rows
    # while the quadrature study renders five and solves at four levels.
    # eval solves at level 8 at either size (the default for level 6): below
    # that the spine bound of checks.COLLOCATION_FACTOR exceeds the spine
    # values themselves, so the smoke check could not tell a wrong value.
    "grid": (
        ("eval", "eval --family {fam_grid} --degree {eval_degree} --chi {chi} "
                 "--level {eval_level} --solve-level 8"),
        ("zeros", "zeros --family {fam_grid} --degree {eval_degree} "
                  "--level {zeros_level}"),
        ("quad_study", "quad --n 1 --study-degree 2 --study-family {fam_study} "
                       "--m-max {m_max}"),
    ),
    # High-degree construction, where rational bit growth dominates and the
    # solver is never called: four-term, three-term, Legendre, order 2.
    "family": (
        ("ops", "ops --family 1 --chi {chi} --degree {ops_degree}"),
        ("ops", "ops --family {fam_three_term} --chi {chi} --degree {ops_degree}"),
        ("ops", "ops --family 3 --m 0 --degree {ops_degree}"),
        ("ops", "ops --family {fam_order2} --m 2 --chi {chi} "
                "--degree {order2_degree}"),
    ),
    # Many small builds with heavy repetition, where process start-up is
    # about a quarter of the wall time.
    "battery": (
        ("verify", "verify --quick"),
        ("coeffs", "coeffs --max-j {max_j}"),
        ("gram", "gram --family mixed --maxdeg {gram_maxdeg} --m 1 --chi {chi}"),
        ("sweep_chi", "sweep-chi --family {fam_sweep} --n 3 "
                      "--chi-list 100,10000,1000000"),
        ("interp", "interp --nodes spine --n 3"),
        ("interp", "interp --nodes v1 --n 1"),
        ("quad", "quad --n 3"),
    ),
}

# The no-op request whose wall time is setup_s.
SETUP = ("coeffs", "coeffs --max-j 0")


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _fields(template: str) -> list[str]:
    return [name for _text, name, _spec, _conv in string.Formatter().parse(template)
            if name in CHOICES]


def _request(kind: str, template: str, values: dict) -> Request:
    return Request(kind, tuple(template.format(**values).split()))


def requests(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """The request list of one pass, the same for the same seed."""
    sizes = SMOKE if smoke else FULL
    rng = random.Random(seed)
    out = []
    for kind, template in TEMPLATES[workload]:
        picks = {name: (CHOICES[name][0] if seed == DEFAULT_SEED
                        else rng.choice(CHOICES[name]))
                 for name in _fields(template)}
        out.append(_request(kind, template, {**sizes, **picks}))
    return out


def all_variants(workload: str) -> list[Request]:
    """Every full-size request any seed can draw for this workload."""
    out = []
    for kind, template in TEMPLATES[workload]:
        names = _fields(template)
        for combo in itertools.product(*(CHOICES[n] for n in names)):
            out.append(_request(kind, template, {**FULL, **dict(zip(names, combo))}))
    return out


def setup_request() -> Request:
    return _request(*SETUP, {})
