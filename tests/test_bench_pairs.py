"""`bench/pairs.py --check`: digests compared with the newest BENCH file.

The module is loaded from its source without writing bytecode, because it
imports helpers from `perfbench/`, which stays unchanged.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest


@pytest.fixture
def pairs(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "digest_commands", lambda: ["one", "two", "three"])
    return module


def _write_bench(root, name, commands):
    digests = {cmd: {"parent": {"sha256": "old", "returncode": 0},
                     "change": {"sha256": sha, "returncode": 0}}
               for cmd, sha in commands.items()}
    (root / name).write_text(json.dumps({"digests": {"commands": digests}}))


def test_check_compares_with_the_newest_numbered_bench_file(pairs, tmp_path,
                                                            monkeypatch, capsys):
    _write_bench(tmp_path, "BENCH_9.json", {"one": "x", "two": "x"})
    _write_bench(tmp_path, "BENCH_10.json", {"one": "sha-one", "two": "sha-two"})
    _write_bench(tmp_path, "BENCH_11_seed1.json", {"one": "x", "two": "x"})
    monkeypatch.setattr(pairs, "digest",
                        lambda side, cmd: {"sha256": "sha-" + cmd, "returncode": 0})
    assert pairs.check() == 0
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()] == ["same", "same", "new"]
    assert "0 of 3 digests differ from BENCH_10.json" in err


def test_check_fails_on_a_changed_digest_or_exit_code(pairs, tmp_path, monkeypatch,
                                                      capsys):
    _write_bench(tmp_path, "BENCH_10.json", {"one": "sha-one", "two": "sha-two"})
    monkeypatch.setattr(pairs, "digest", lambda side, cmd: {
        "sha256": "sha-" + cmd, "returncode": 3 if cmd == "two" else 0})
    assert pairs.check() == 1
    out, _ = capsys.readouterr()
    assert out.splitlines()[1].startswith("DIFFERS")
