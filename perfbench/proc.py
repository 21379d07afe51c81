"""One cold CLI process: hermetic environment, wall time and rusage."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"


def child_env(extra: dict | None = None) -> dict:
    """A fixed environment: only PATH survives from the caller.

    SGOP_CACHE_DIR (the CLI's on-disk coefficient cache) and
    PYTHONDONTWRITEBYTECODE are left out, so every request starts from the
    same state and the warm-up request leaves bytecode caches warm.
    """
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(SRC),
           "PYTHONHASHSEED": "0",
           "PYTHONIOENCODING": "utf-8",
           "LC_ALL": "C"}
    env.update(extra or {})
    return env


@dataclass
class Run:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run(command: list[str], workdir: Path, timeout: float,
        env: dict | None = None) -> Run:
    """Run `command` to completion; stdout and stderr go through files in
    `workdir` so the child can be reaped with os.wait4 for its rusage."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT,
                                env=env if env is not None else child_env())
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(returncode=proc.returncode, wall_s=wall,
               cpu_s=usage.ru_utime + usage.ru_stime,
               rss_mb=usage.ru_maxrss / 1024.0,
               stdout=out_path.read_bytes(), stderr=err_path.read_bytes())


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "sgortho.cli", *argv]


def traced_command(argv, spans_path: Path, request_id: int) -> list[str]:
    return [sys.executable, str(TRACE_CHILD), "--spans", str(spans_path),
            "--request-id", str(request_id), "--", *argv]
