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


def _side(values):
    return {"median": sorted(values)[len(values) // 2], "q1": min(values),
            "q3": max(values), "n": len(values)}


@pytest.mark.parametrize("change, won, better, expected", [
    # 9 of 10 pairs and a median lower by more than the parent's IQR (0.02)
    ([0.8] * 10, 9, "lower", "gain"),
    ([0.8] * 10, 10, "lower", "gain"),
    # 8 of 10 pairs is not enough, however large the gain
    ([0.5] * 10, 8, "lower", "unresolved"),
    # every pair won, but by less than the parent's IQR
    ([0.99] * 10, 10, "lower", "unresolved"),
    # worse, but within the 25% bound
    ([1.2] * 10, 0, "lower", "unresolved"),
    # worse by more than the bound
    ([1.3] * 10, 0, "lower", "worse"),
    # higher is better: a lower median is a loss
    ([0.7] * 10, 0, "higher", "worse"),
    ([1.3] * 10, 10, "higher", "gain"),
])
def test_verdict_on_synthetic_runs(pairs, change, won, better, expected):
    parent = _side([0.99, 1.0, 1.0, 1.01] * 2 + [0.99, 1.01])
    assert parent["median"] == 1.0 and parent["q3"] - parent["q1"] == pytest.approx(0.02)
    assert pairs.verdict(parent, _side(change), won, better, 0.25) == expected
