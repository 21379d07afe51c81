"""Alternating parent/change runs of the benchmark, written to BENCH_<pr>.json.

    python3 bench/pairs.py --pr N [--workloads grid,family,battery] [--seed 0]
    python3 bench/pairs.py --check

The parent side is `git archive HEAD`; the change side is the working tree
(tracked and untracked files, minus what .gitignore names).  Both are
exported into sibling directories of one temporary directory, so neither
side starts its processes from a different place.

For each workload the script runs `perfbench/run.py --workload W --seed S`
once per side and pair, ten pairs, alternating which side runs first, then
two `--trace 1` runs per side in the order parent, change, change, parent;
run.py sets the run length.  Each traced layer's values are kept per side
as a list (`merge_traces`).  It records each side's environment as run.py
reports it (Python version, rationals backend, nproc, source digest), and
each end-to-end metric's values, median and quartiles per side, the pairs
the change won (ties count for neither side) and a verdict per metric (see
`verdict`).  The output is BENCH_<pr>.json for seed 0 and BENCH_<pr>_seed<S>.json
for any other seed, so a held-out seed gets a file of its own.

Before timing, it runs every command of `digest_commands()` on both sides
and records the sha256 of its stdout and its exit code.  The file is
written either way; the exit code is 1 when a digest differs or a benchmark
run reports an incorrect output, else 0.

`--check` runs no timing.  It runs every command of `digest_commands()` on
the working tree and compares its sha256 and exit code with the `change`
side of the newest BENCH_<n>.json.  A command that file does not list is
reported as new, not as a difference.  The exit code is 1 on any
difference, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid", "family", "battery")
PAIRS = 10
# Traced runs, in order: each side runs once early and once late, so drift
# over the four runs moves both sides' lists alike.
TRACE_ORDER = ("parent", "change", "change", "parent")

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import proc
    import workloads
finally:
    sys.path.pop(0)


def digest_commands() -> list[str]:
    """The CLI commands whose stdout must not change: every seed-0 benchmark
    request, the degree-16 recurrence builds, Gram-Schmidt at orders 0-2,
    the full verify, the coefficient table (to j = 60, past it to j = 90,
    and with the CSV format named), a mixed Gram matrix, the exact-rule
    requests the seed-0 requests miss (an off-spine interpolation node,
    quadrature studies of every family), the exact solves they miss
    (a large interpolation matrix, a singular one, an order-4 rule),
    high-degree builds, where the exact numbers are largest, and the edges of
    the recurrence tables (degrees 1 to m + 1, order 3, unequal order-2
    weights, large weights and a k=1 grid field), and the option paths of
    the weight flags and --which (an order-2 Gram matrix with two weights,
    an order-2 k=1 family, a Legendre grid field, Sobolev zero counts at
    chi = 1/2, and --chi with --m 0, which exits 2), and the collocated grid
    values at the solve levels the seed-0 requests miss (an eval three levels
    deep, a monomial eval with the solve level equal to the level, and zero
    counts four levels deep), and the recurrence families too short for a
    step, each naming its empty tables (four-term at degree 2, order 2 at
    degree 2 and three-term at degree 0), and the payloads the CLI renders
    from exact values that no other command reaches (the corrected n = 2
    large-weight limit, a sweep with zero errors, no ratio and no limit key,
    and a single-family Gram matrix with L2 weights), and the edge paths of
    the depth-first grid walk (an eval eight levels deep, deeper than any
    other, the corners alone at level 0, and --digits 0), and the spine node
    set at n = 0, where it is not singular."""
    out = [req.key for w in WORKLOADS for req in workloads.requests(w, 0)]
    out += [f"ops --family {k} --degree 16" for k in (1, 2, 3)]
    out += [f"ops --family {k} --m {m} --degree 12 --method gram-schmidt"
            for m in (0, 1, 2) for k in (1, 2, 3)]
    out += ["verify", "coeffs --max-j 60", "gram --family mixed --maxdeg 10"]
    out += ["coeffs --max-j 90", "coeffs --max-j 60 --format csv"]
    out += ["interp --nodes v1 --n 1 --matrix",
            "quad --n 0 --study-degree 1 --study-family 2 --m-max 5",
            "quad --n 2 --study-degree 3 --study-family 3 --m-max 4",
            "interp --nodes spine --n 5 --matrix",
            "interp --nodes degenerate --n 1", "quad --n 4"]
    out += ["ops --family 3 --m 0 --degree 24",
            "ops --family 2 --chi 3/8 --degree 20",
            "ops --family 1 --chi 9/7 --degree 20",
            "ops --family 2 --m 1 --degree 16 --method gram-schmidt"]
    out += ["ops --family 2 --degree 1", "ops --family 1 --degree 3",
            "ops --family 3 --m 2 --degree 3",
            "ops --family 3 --m 3 --chi 1,2,5 --degree 12",
            "ops --family 2 --m 2 --chi 1/2,3 --degree 16",
            "sweep-chi --family 2 --n 4 --chi-list 100,10000",
            "eval --family 1 --degree 4 --level 3"]
    out += ["gram --family 3 --maxdeg 5 --m 2 --chi 1/2,3",
            "ops --family 1 --m 2 --chi 2 --degree 6",
            "eval --family 2 --degree 3 --level 2 --which legendre",
            "zeros --family 2 --degree 3 --level 3 --which sobolev --chi 1/2",
            "ops --family 2 --m 0 --chi 1 --degree 3"]
    out += ["eval --family 1 --degree 4 --level 3 --solve-level 6",
            "eval --family 2 --degree 6 --level 4 --which monomial --solve-level 4",
            "zeros --family 3 --degree 5 --level 5 --solve-level 9"]
    out += ["ops --family 1 --degree 2", "ops --family 3 --m 2 --degree 2",
            "ops --family 2 --degree 0"]
    out += ["sweep-chi --family 3 --n 2 --chi-list 1/2,100",
            "sweep-chi --family 2 --n 1 --chi-list 3,30",
            "gram --family 2 --maxdeg 4 --m 0"]
    out += ["eval --family 3 --degree 5 --level 8 --which legendre",
            "eval --family 1 --degree 2 --level 0",
            "eval --family 2 --degree 3 --level 3 --digits 0",
            "interp --nodes degenerate --n 0"]
    return list(dict.fromkeys(out))


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export_rev(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    listing = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listing.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a deleted file may still be in the index
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def digest(side: Path, command: str) -> dict:
    """sha256 of the stdout of one CLI command run from `side`'s sources, in
    the benchmark's hermetic environment."""
    done = subprocess.run(proc.cli_command(command.split()), cwd=side,
                          env=proc.child_env({"PYTHONPATH": str(side / "src")}),
                          capture_output=True)
    return {"sha256": hashlib.sha256(done.stdout).hexdigest(),
            "returncode": done.returncode}


def newest_bench_file() -> Path:
    numbered = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    if not numbered:
        raise SystemExit("no BENCH_<n>.json to check against")
    return max(numbered)[1]


def check() -> int:
    """Digest-only comparison of the working tree with the newest BENCH file."""
    reference = newest_bench_file()
    recorded = json.loads(reference.read_text())["digests"]["commands"]
    commands = digest_commands()
    differ = 0
    for cmd in commands:
        got = digest(ROOT, cmd)
        want = recorded.get(cmd, {}).get("change")
        if want is None:
            status = "new"
        elif got == want:
            status = "same"
        else:
            status = "DIFFERS"
            differ += 1
        print(f"{status:8s} exit {got['returncode']}  {cmd}", flush=True)
    print(f"{differ} of {len(commands)} digests differ from "
          f"{reference.name}", file=sys.stderr)
    return 1 if differ else 0


def bench(side: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: (the environment it reports, its result line)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--trace", str(trace)],
        cwd=side, check=True, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("# workload="))
    return json.loads(env.split(" env=", 1)[1]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def merge_traces(runs: list[dict]) -> dict:
    """Each metric's values over one side's traced runs, in run order, from
    the `metrics` blocks of their result lines; None where a run lacks it."""
    names = dict.fromkeys(name for run in runs for name in run)
    return {name: [run[name]["value"] if name in run else None for run in runs]
            for name in names}


def verdict(parent: dict, change: dict, won: int, better: str,
            bound: float) -> str:
    """`gain` when the change wins at least 9 in 10 pairs and its median is
    better by more than the parent's interquartile range; `worse` when its
    median is worse by more than `bound` (the metric's bound in
    BENCHMARK.json, a fraction of the parent's median); else `unresolved`."""
    worse_by = change["median"] - parent["median"]
    if better == "higher":
        worse_by = -worse_by
    if 10 * won >= 9 * parent["n"] and -worse_by > parent["q3"] - parent["q1"]:
        return "gain"
    if worse_by > bound * abs(parent["median"]):
        return "worse"
    return "unresolved"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pr", type=int)
    mode.add_argument("--check", action="store_true",
                      help="compare digests with the newest BENCH file; no timing")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.check:
        return check()
    names = args.workloads.split(",")
    if not set(names) <= set(WORKLOADS):
        parser.error("workloads must be among " + ",".join(WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent_sha = _git("rev-parse", "HEAD").decode().strip()

    base = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        sides = {"parent": base / "parent", "change": base / "change"}
        for path in sides.values():
            path.mkdir()
        export_rev(parent_sha, sides["parent"])
        export_worktree(sides["change"])

        digests = {cmd: {s: digest(p, cmd) for s, p in sides.items()}
                   for cmd in digest_commands()}
        identical = all(d["parent"] == d["change"] for d in digests.values())
        report = {
            "pr": args.pr,
            "parent": parent_sha,
            "change": "working tree on " + parent_sha,
            "command": (f"python3 perfbench/run.py --workload W --seed {args.seed}; "
                        f"{PAIRS} pairs, alternating which side runs first; "
                        "then --trace 1 runs in the order "
                        + ", ".join(TRACE_ORDER)),
            "env": {},
            "digests": {"identical": identical, "commands": digests},
            "workloads": {},
        }
        correct = True
        for w in names:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for s in order:
                    env, result = bench(sides[s], w, args.seed, 0)
                    report["env"].setdefault(s, env)
                    runs[s].append(result)
                    print(f"{w} pair {i} {s}: "
                          f"wall_s {result['metrics']['wall_s']['value']:.4f}",
                          file=sys.stderr)
            row = {}
            for s, results in runs.items():
                correct &= all(r["correct"] for r in results)
                row[s] = {"runs": len(results),
                          "correct_all": all(r["correct"] for r in results),
                          "failed_total": sum(r["failed"] for r in results),
                          **{m: summary([r["metrics"][m]["value"] for r in results])
                             for m in better}}
            row["pairs_won_by_change"] = {
                m: sum((c < p) if better[m] == "lower" else (c > p)
                       for p, c in zip(row["parent"][m]["values"],
                                       row["change"][m]["values"]))
                for m in better}
            row["verdict"] = {
                m: verdict(row["parent"][m], row["change"][m],
                           row["pairs_won_by_change"][m], better[m], bound[m])
                for m in better}
            traced = {"parent": [], "change": []}
            for s in TRACE_ORDER:
                traced[s].append(bench(sides[s], w, args.seed, 1)[1]["metrics"])
            row["trace"] = {s: merge_traces(ms) for s, ms in traced.items()}
            report["workloads"][w] = row
    finally:
        shutil.rmtree(base, ignore_errors=True)

    suffix = "" if args.seed == 0 else f"_seed{args.seed}"
    out = ROOT / f"BENCH_{args.pr}{suffix}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}; digests identical: {identical}; outputs correct: {correct}",
          file=sys.stderr)
    return 0 if identical and correct else 1


if __name__ == "__main__":
    sys.exit(main())
