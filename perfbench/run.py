"""Benchmark of the sgortho CLI: one cold process per request.

    python3 perfbench/run.py --workload grid|family|battery|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

One client sends requests in a closed loop, one child process at a time, and
checks every output (see checks.py).  A pass is one run of the workload's
request list (workloads.py); passes repeat while the next one fits in
--seconds, and each metric is the median over passes.

--trace 0 reports the end-to-end metrics.  setup_s is the median wall time
of the no-op request `coeffs --max-j 0` (interpreter start, package import,
argument parsing), sampled before the first pass and after every pass, with
bytecode caches warmed by one untimed request.

--trace 1 alternates an untraced pass with a traced pass, in which every
request runs under trace_child.py, and reports the per-layer metrics of
layers.py; trace.overhead_s is the traced minus the untraced pass time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --smoke runs every workload at tiny sizes,
in both modes, and exits non-zero unless every metric of BENCHMARK.json is
emitted with its unit and every output check runs and rejects a corrupted
output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
import proc  # noqa: E402
import workloads  # noqa: E402

HARD_LIMIT_S = 165.0  # a run must end within 180 s
SETUP_FIRST = 5
SETUP_PER_PASS = 2


@dataclass
class Pass:
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    def kind_s(self, kind: str) -> float:
        return sum(w for w, k in zip(self.walls, self.kinds) if k == kind)


class Client:
    """The closed-loop client: runs and checks requests, counts failures."""

    def __init__(self, workdir: Path, start: float):
        self.workdir = workdir
        self.hard_deadline = start + HARD_LIMIT_S
        self.checker = checks.Checker()
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.per_request: dict[str, list] = defaultdict(list)

    def request(self, req, traced: bool = False, request_id: int = 0,
                counted: bool = True):
        spans = self.workdir / "spans.json"
        command = (proc.traced_command(req.argv, spans, request_id) if traced
                   else proc.cli_command(req.argv))
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        result = proc.run(command, self.workdir, timeout)
        verdict = self.checker.check(req, result.returncode, result.stdout,
                                     result.stderr)
        if counted:
            self.attempted += 1
            self.failed += not verdict.ok
        if not verdict.ok and not verdict.known_defect:
            self.unexpected.append(f"{req.key}: {verdict.reason}")
        trace = json.loads(spans.read_text()) if traced and spans.exists() else None
        if traced:
            spans.unlink(missing_ok=True)
        return result, trace

    def run_pass(self, reqs, traced: bool = False) -> Pass:
        out = Pass()
        for i, req in enumerate(reqs):
            result, trace = self.request(req, traced, request_id=i)
            out.walls.append(result.wall_s)
            out.cpus.append(result.cpu_s)
            out.rss.append(result.rss_mb)
            out.kinds.append(req.kind)
            if trace is not None:
                out.traces.append(trace)
            if not traced:
                self.per_request[req.key].append(result.wall_s)
        return out

    def setup_samples(self, count: int) -> list[float]:
        req = workloads.setup_request()
        return [self.request(req, counted=False)[0].wall_s for _ in range(count)]


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, from its requests' spans."""
    calls, cumulative, self_s, counts = Counter(), Counter(), Counter(), Counter()
    totals = Counter()
    distinct, bits = 0, 0
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        inner = [0.0] * len(spans)
        for name_i, start, end, parent, _rid in spans:
            if parent >= 0:
                inner[parent] += end - start
        for i, (name_i, start, end, parent, _rid) in enumerate(spans):
            name = names[name_i]
            calls[name] += 1
            self_s[name] += end - start - inner[i]
            while parent >= 0 and spans[parent][0] != name_i:
                parent = spans[parent][3]
            if parent < 0:  # outermost call of this name: no double counting
                cumulative[name] += end - start
        counts.update(trace["counts"])
        totals.update({"cli.import_s": trace["import_s"], "cli.main_s": trace["main_s"]})
        distinct += trace["legendre_distinct"]
        bits = max(bits, trace["out_bits_max"])
    out = dict(totals)
    legendre_calls = calls["families.legendre"]
    out["families.legendre.distinct_ratio"] = (distinct / legendre_calls
                                               if legendre_calls else 0.0)
    out["families.out_bits_max"] = bits
    for name, _unit, _better in layers.PER_LAYER:
        if name in out:
            continue
        if name in layers.COUNTERS:
            out[name] = counts[name]
        elif name.count(".") == 2:
            base, suffix = name.rsplit(".", 1)
            table = {"calls": calls, "s": cumulative, "self_s": self_s}.get(suffix)
            if table is not None:
                out[name] = table[base]
    return out


def coeff_table_seconds(repeats: int = 5) -> float:
    """Median time for a fresh CoeffTable to answer every query up to j=60."""
    from sgortho.coeffs import CoeffTable
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        table = CoeffTable()
        for j in range(61):
            table.alpha(j), table.beta(j), table.gamma(j), table.eta(j)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(seed: int) -> dict:
    from sgortho import rationals
    digest = hashlib.sha256()
    for path in sorted((proc.SRC / "sgortho").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (proc.ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(proc.ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {"python": sys.version.split()[0],
            "backend": "gmpy2" if rationals.HAVE_GMPY2 else "fractions.Fraction",
            "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def measure(client: Client, workload: str, seed: int, seconds: float,
            trace: bool, smoke: bool, start: float) -> tuple[dict, list[str]]:
    """Metrics {name: (value, unit)} of one run, and its report lines."""
    reqs = workloads.requests(workload, seed, smoke)
    deadline = start + seconds
    client.request(workloads.setup_request(), counted=False)  # warm bytecode
    if trace:
        return _measure_traced(client, reqs, deadline)
    setup = client.setup_samples(SETUP_FIRST)
    passes = []
    while True:
        passes.append(client.run_pass(reqs))
        setup += client.setup_samples(SETUP_PER_PASS)
        if not _fits(deadline, client, passes[-1].wall_s):
            break
    med = statistics.median
    ok = 1 - client.failed / client.attempted
    metrics = {
        "setup_s": (med(setup), "s"),
        "wall_s": (med(p.wall_s for p in passes), "s"),
        "cpu_s": (med(sum(p.cpus) for p in passes), "s"),
        "peak_rss_mb": (med(max(p.rss) for p in passes), "MB"),
        "ok_ratio": (ok, "ratio"),
    }
    lines = [f"{len(passes)} passes, {len(setup)} setup samples",
             f"{'request':64s} {'n':>3s} {'median_s':>9s} {'min_s':>8s} {'max_s':>8s}"]
    for key, walls in client.per_request.items():
        lines.append(f"{key:64s} {len(walls):3d} {med(walls):9.4f} "
                     f"{min(walls):8.4f} {max(walls):8.4f}")
    kinds = {p_kind for p in passes for p_kind in p.kinds}
    report = dict(metrics)
    report["fail_ratio"] = (1 - ok, "ratio")
    for kind in layers.REQUEST_METRICS:
        report[kind + "_s"] = ((med(p.kind_s(kind) for p in passes), "s")
                               if kind in kinds else (None, "s"))
    lines.append(f"{'metric':14s} {'value':>12s} unit   n")
    for name, (value, unit) in report.items():
        n = len(setup) if name == "setup_s" else len(passes)
        shown = "n/a" if value is None else f"{value:.4f}"
        lines.append(f"{name:14s} {shown:>12s} {unit:6s} {n}")
    return metrics, lines


def _fits(deadline: float, client: Client, last: float) -> bool:
    now = time.perf_counter()
    return now + last <= deadline and now + 1.5 * last < client.hard_deadline


def _measure_traced(client: Client, reqs, deadline: float):
    plain, traced = [], []
    while True:
        plain.append(client.run_pass(reqs))
        traced.append(client.run_pass(reqs, traced=True))
        if not _fits(deadline, client, plain[-1].wall_s + traced[-1].wall_s):
            break
    per_pass = [layer_metrics(p.traces) for p in traced]
    for untraced, tr, row in zip(plain, traced, per_pass):
        for kind, name in layers.REQUEST_METRICS.items():
            row[name] = untraced.kind_s(kind)
        row["trace.overhead_s"] = tr.wall_s - untraced.wall_s
    metrics = {}
    for name, unit, _better in layers.PER_LAYER:
        if name == "coeffs.table_j60_s":
            value = coeff_table_seconds()
        elif name == "fail_ratio":
            value = client.failed / client.attempted
        else:
            value = statistics.median_low(row[name] for row in per_pass)
        metrics[name] = (value, unit)
    lines = [f"{len(traced)} traced passes",
             f"{'request':64s} {'traced_s':>9s} {'plain_s':>9s} {'overhead_s':>10s}"]
    for i, req in enumerate(reqs):
        t = statistics.median(p.walls[i] for p in traced)
        u = statistics.median(p.walls[i] for p in plain)
        lines.append(f"{req.key:64s} {t:9.4f} {u:9.4f} {t - u:10.4f}")
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    start = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=proc.ROOT))
    try:
        client = Client(workdir, start)
        metrics, lines = measure(client, workload, seed, seconds, trace, smoke, start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# workload={workload} seed={seed} trace={int(trace)} "
          f"smoke={int(smoke)} env={json.dumps(environment(seed))}")
    for line in lines + [f"unexpected failure: {u}" for u in client.unexpected]:
        print("# " + line)
    return {"correct": not client.unexpected,
            "attempted": client.attempted,
            "failed": client.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _corrupt(req: workloads.Request, out: bytes) -> bytes:
    """A wrong output of the right shape: `verify` reports a failed check,
    `eval` has its largest spine value negated, any other output has its
    first digit 1 turned into 2."""
    if req.kind == "verify":
        return out.replace(b"PASS", b"FAIL", 1)
    if req.kind != "eval":
        return out.replace(b"1", b"2", 1)
    lines = out.decode().split("\n")
    spine = [i for i, line in enumerate(lines[1:-1], 1)
             if checks.spine_key(line) is not None]
    i = max(spine, key=lambda i: abs(Fraction(lines[i].rsplit(",", 1)[1])))
    head, value = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{value[1:] if value.startswith('-') else '-' + value}"
    return "\n".join(lines).encode()


def _corrupt_rejected(checker: checks.Checker, workload: str) -> list[str]:
    """Names of smoke requests whose checker accepts a corrupted output."""
    bad = []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=proc.ROOT))
    try:
        for req in workloads.requests(workload, workloads.DEFAULT_SEED, smoke=True):
            out = proc.run(proc.cli_command(req.argv), workdir, timeout=120).stdout
            if checker.check(req, 0, _corrupt(req, out), b"").ok:
                bad.append(req.key)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return bad


def smoke() -> int:
    spec = json.loads((proc.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(workload, workloads.DEFAULT_SEED, 1, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={int(trace)}: metrics {got} != {want}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: output checks failed")
        problems += [f"{workload}: corrupted output accepted for {key}"
                     for key in _corrupt_rejected(checks.Checker(), workload)]
    for p in problems:
        print("# SMOKE FAIL " + p)
    print(json.dumps({"smoke": "fail" if problems else "pass"}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (proc.SRC / "sgortho" / "cli.py").is_file():
        print(f"error: no sgortho sources under {proc.SRC}", file=sys.stderr)
        return 2
    if not checks.REFERENCES.is_file():
        print(f"error: missing {checks.REFERENCES}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
