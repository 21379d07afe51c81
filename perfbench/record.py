"""Record the output references the benchmark checks against.

    python3 perfbench/record.py

Runs every full-size request any seed can draw, and the smoke-size requests
of the default seed (the only ones `--smoke` runs), once each, two at a time,
and writes perfbench/references.json:

- `sha256`: digest of stdout for the requests whose output must be exact.
  They run with the int-to-string digit limit lifted, so a request that the
  default limit makes fail still gets the digest of its correct output.
- `known_defects`: those requests (an integer of more than 4300 digits is
  printed), which exit 1 under the default limit.
- `zeros`: the sign-change table of each `zeros` request.
- `verify`: the status and name columns of `verify --quick`.

Run it only at a commit whose outputs are trusted; the benchmark then
treats any other output as wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import proc  # noqa: E402
import workloads  # noqa: E402

LONG_INT = re.compile(rb"\d{4301}")
POOL_SIZE = 2


def _record_one(req: workloads.Request, scratch: Path) -> tuple:
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    env = proc.child_env({"PYTHONINTMAXSTRDIGITS": "0"})
    result = proc.run(proc.cli_command(req.argv), workdir, timeout=600, env=env)
    if result.returncode != 0:
        raise RuntimeError(f"{req.key}: exit {result.returncode}\n"
                           f"{result.stderr.decode(errors='replace')}")
    return req, result


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()

    todo = {workloads.setup_request().key: workloads.setup_request()}
    for workload in workloads.WORKLOADS:
        for req in (workloads.all_variants(workload)
                    + workloads.requests(workload, workloads.DEFAULT_SEED, smoke=True)):
            if req.kind in checks.SHA_KINDS | {"zeros", "verify"}:
                todo[req.key] = req
    refs = {"sha256": {}, "known_defects": {}, "zeros": {}, "verify": None}
    with tempfile.TemporaryDirectory(prefix=".perfbench-record-",
                                     dir=proc.ROOT) as scratch, \
            ThreadPoolExecutor(POOL_SIZE) as pool:
        jobs = [pool.submit(_record_one, req, Path(scratch)) for req in todo.values()]
        for done, job in enumerate(jobs, 1):
            req, result = job.result()
            if req.kind == "zeros":
                refs["zeros"][req.key] = result.stdout.decode()
            elif req.kind == "verify":
                refs["verify"] = checks.verify_table(result.stdout.decode())
            else:
                refs["sha256"][req.key] = hashlib.sha256(result.stdout).hexdigest()
                if LONG_INT.search(result.stdout):
                    refs["known_defects"][req.key] = checks.KNOWN_DEFECT
            print(f"[{done}/{len(jobs)}] {result.wall_s:6.2f}s {req.key}", flush=True)
    for table in ("sha256", "known_defects", "zeros"):
        refs[table] = dict(sorted(refs[table].items()))
    checks.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {checks.REFERENCES}: {len(refs['sha256'])} digests, "
          f"{len(refs['known_defects'])} known defects")
    return 0


if __name__ == "__main__":
    sys.exit(main())
