"""Command-line interface: formats, determinism, exit codes."""

import importlib
import json
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import sgortho
from sgortho import cli, linalg
from sgortho.errors import ConsistencyError, MathematicalAssumptionError
from sgortho.odes import chi_asymptotics
from sgortho.rationals import Rat, rat_str


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "sgortho.cli", *args],
                          capture_output=True, text=True, **kwargs)


def test_coeffs_csv(capsys):
    assert cli.main(["coeffs", "--max-j", "10"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "j,alpha,beta,gamma,eta"
    assert len(lines) == 12  # header + 11 rows
    assert lines[1] == "0,1,-1/2,1/2,0"
    assert lines[2] == "1,1/6,-2/45,1/60,1/2"


def test_coeffs_json(capsys):
    assert cli.main(["coeffs", "--max-j", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"][2]["alpha"] == "1/180"


def test_gram_json(capsys):
    assert cli.main(["gram", "--family", "3", "--maxdeg", "1", "--m", "1",
                     "--chi", "1/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"m": 1, "chi": ["1", "1/2"]}
    assert payload["basis"] == [[0, 3], [1, 3]]
    entries = [[Rat(x) for x in row] for row in payload["entries"]]
    assert entries[0][1] == entries[1][0]


def test_ops_json_orthogonality(capsys):
    assert cli.main(["ops", "--family", "3", "--chi", "1", "--degree", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == 3
    assert len(payload["polys"]) == 7
    assert len(payload["norms_sq"]) == 7
    # rebuild polynomials and verify pairwise orthogonality from the JSON
    from sgortho.inner import SobolevParams, poly_inner
    from sgortho.poly import Poly

    def parse(d):
        coeffs = {}
        for key, val in d.items():
            j, k = key.strip("()").split(",")
            coeffs[(int(j), int(k))] = Rat(val)
        return Poly(coeffs)

    polys = [parse(d) for d in payload["polys"]]
    params = SobolevParams.order1(Rat(payload["params"]["chi"][1]))
    for i in range(7):
        for j in range(i):
            assert poly_inner(params, polys[i], polys[j]) == 0


def test_ops_gram_schmidt_method_matches_recurrence(capsys):
    assert cli.main(["ops", "--family", "2", "--degree", "4",
                     "--method", "gram-schmidt"]) == 0
    gs = capsys.readouterr().out
    assert cli.main(["ops", "--family", "2", "--degree", "4"]) == 0
    rec = capsys.readouterr().out
    assert json.loads(gs)["polys"] == json.loads(rec)["polys"]


def test_eval_csv_layout(capsys):
    assert cli.main(["eval", "--family", "3", "--degree", "2", "--chi", "1",
                     "--level", "2", "--which", "sobolev"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "address,x,y,value"
    assert len(lines) == 1 + 15  # header + |V_2|
    assert lines[1].startswith("e.0,")


def test_eval_monomial_low_degree_matches_spine(capsys):
    assert cli.main(["eval", "--family", "1", "--degree", "1",
                     "--which", "monomial", "--level", "1",
                     "--digits", "12"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rows = {line.split(",")[0]: line.split(",")[3] for line in lines[1:]}
    assert rows["0.1"] == "0.033333333333"  # 1/30 at the first spine midpoint


def test_zeros_csv(capsys):
    assert cli.main(["zeros", "--family", "3", "--degree", "2", "--level", "3",
                     "--which", "legendre"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "which,degree,edge,sign_changes,exact_zeros"
    assert len(lines) == 4


def test_interp_report(capsys):
    assert cli.main(["interp", "--nodes", "spine", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fully_exact"] is True
    assert Rat(payload["det"]) != 0
    assert payload["condition_inf"] > 1
    assert cli.main(["interp", "--nodes", "degenerate", "--n", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["det"] == "0"
    assert "condition_inf" not in payload


def test_interp_matrix_holds_only_basis_and_entries(capsys):
    # the degree and the node addresses are the payload's "n" and
    # "node_addresses"; the matrix does not repeat them
    assert cli.main(["interp", "--nodes", "v1", "--n", "1", "--matrix"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["matrix"]) == ["basis", "entries"]
    assert len(payload["matrix"]["basis"]) == 6
    assert len(payload["matrix"]["entries"]) == len(payload["node_addresses"]) == 6


def test_interp_eliminates_matrix_once(capsys, monkeypatch):
    sizes = []
    eliminate = linalg._eliminate

    def counting(matrix, columns=()):
        sizes.append(len(matrix))
        return eliminate(matrix, columns)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    for nodes, n in (("spine", 2), ("degenerate", 1)):
        sizes.clear()
        assert cli.main(["interp", "--nodes", nodes, "--n", str(n)]) == 0
        capsys.readouterr()
        assert sizes.count(3 * (n + 1)) == 1  # the det and the inverse together


def test_quad_rule_and_study(capsys, tmp_path):
    assert cli.main(["quad", "--n", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weights"] == ["0", "5/6", "1/6"]
    out = tmp_path / "study.csv"
    assert cli.main(["quad", "--n", "0", "--study-degree", "1",
                     "--m-max", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,estimate,exact,abs_error,ratio"
    assert len(lines) == 4


def test_sweep_chi(capsys):
    assert cli.main(["sweep-chi", "--family", "3", "--n", "3",
                     "--chi-list", "10,1000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["limit"] == "f_3"
    assert len(payload["rows"]) == 2
    assert "ratio_sq_prev" in payload["rows"][1]


def test_sweep_chi_renders_the_exact_report(capsys):
    rep = chi_asymptotics(3, 2, [Fraction(1, 2), 100])
    numbers = [v for row in rep["rows"] for v in row.values()]
    assert all(type(v) is Fraction for v in numbers + [rep["chi_b_tilde_limit"]])
    assert "ratio_sq_prev" in rep["rows"][1] and "chi_b_tilde" in rep["rows"][0]
    assert cli.main(["sweep-chi", "--family", "3", "--n", "2",
                     "--chi-list", "1/2,100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["family", "n", "limit", "rows", "chi_b_tilde_limit"]
    assert payload == {
        "family": 3, "n": 2, "limit": rep["limit"],
        "rows": [{key: rat_str(v) for key, v in row.items()} for row in rep["rows"]],
        "chi_b_tilde_limit": rat_str(rep["chi_b_tilde_limit"])}


def test_only_the_cli_renders_output():
    modules = [importlib.import_module(f"sgortho.{info.name}")
               for info in pkgutil.iter_modules(sgortho.__path__)]
    for module in modules:
        classes = [v for v in vars(module).values() if isinstance(v, type)]
        assert not any("to_json_dict" in vars(c) for c in classes), module
        if module is not cli:
            assert "json" not in vars(module), module
    for name in ("families", "inner", "interp", "odes"):
        assert "rat_str" not in vars(importlib.import_module(f"sgortho.{name}")), name


def test_determinism_byte_identical():
    args = ["ops", "--family", "3", "--chi", "2/3", "--degree", "5"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    args = ["eval", "--family", "2", "--degree", "2", "--chi", "1",
            "--level", "2"]
    assert run_cli(args).stdout == run_cli(args).stdout
    args = ["verify", "--quick"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert "exact-orthogonality" in first.stderr  # per-check seconds


def test_usage_error_exit_code_2():
    proc = run_cli(["coeffs"])  # missing --max-j
    assert proc.returncode == 2
    proc = run_cli(["nonsense"])
    assert proc.returncode == 2
    proc = run_cli(["ops", "--family", "5", "--degree", "2"])
    assert proc.returncode == 2
    proc = run_cli(["ops", "--family", "2", "--degree", "2", "--chi", "x"])
    assert proc.returncode == 2


def test_usage_error_chi_count_mismatch():
    proc = run_cli(["ops", "--family", "2", "--degree", "2", "--m", "2",
                    "--chi", "1,2,3"])
    assert proc.returncode == 2
    assert "--chi" in proc.stderr


@pytest.mark.parametrize("args", [
    ["gram", "--family", "1", "--maxdeg", "1", "--m", "0", "--chi", "5"],
    ["ops", "--family", "3", "--m", "0", "--chi", "7", "--degree", "1"],
])
def test_usage_error_chi_with_order_0(args):
    # --m 0 is plain L2 and has no weights; a --chi there used to be dropped
    proc = run_cli(args)
    assert proc.returncode == 2
    assert "--chi" in proc.stderr
    assert proc.stdout == ""


def test_usage_error_v1_nodes_need_degree_1():
    proc = run_cli(["interp", "--nodes", "v1", "--n", "2"])
    assert proc.returncode == 2
    assert "v1" in proc.stderr


def test_usage_error_unknown_zero_set():
    proc = run_cli(["zeros", "--family", "3", "--degree", "2", "--level", "2",
                    "--which", "legendre,bad"])
    assert proc.returncode == 2
    assert "bad" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_usage_error(tmp_path, where):
    path = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    proc = run_cli(["coeffs", "--max-j", "1", "--out", str(path)])
    assert proc.returncode == 2
    assert f"cannot write --out {path}: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_refused_before_the_command_runs(tmp_path, where,
                                                          monkeypatch, capsys):
    # verify used to run all its checks and only then fail to write
    path = tmp_path / "missing" / "x" if where == "missing directory" else tmp_path
    calls = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args) or 0)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--quick", "--out", str(path)])
    assert exc.value.code == 2
    assert calls == []
    assert f"cannot write --out {path}: " in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_writable_out_is_created_only_by_the_write(tmp_path, monkeypatch):
    path = tmp_path / "x.txt"
    seen = []
    monkeypatch.setattr(cli, "cmd_verify",
                        lambda args: seen.append(path.exists()) or 0)
    assert cli.main(["verify", "--quick", "--out", str(path)]) == 0
    assert seen == [False] and not path.exists()


@pytest.mark.parametrize("level", [0, 4])
def test_eval_out_writes_the_stdout_bytes(tmp_path, level, capsysbinary):
    args = ["eval", "--family", "2", "--degree", "3", "--level", str(level)]
    assert cli.main(args) == 0
    printed = capsysbinary.readouterr().out
    path = tmp_path / "eval.csv"
    assert cli.main([*args, "--out", str(path)]) == 0
    assert path.read_bytes() == printed
    assert printed.count(b"\n") == 1 + 3 * (3**level + 1) // 2


@pytest.mark.parametrize("args", [
    # each of these used to escape as a ValueError traceback (exit 1)
    ["ops", "--family", "2", "--degree", "-1"],
    ["eval", "--family", "2", "--degree", "2", "--level", "-1"],
    ["gram", "--family", "1", "--maxdeg", "-2"],
    ["interp", "--n", "-1"],
    ["quad", "--n", "-1"],
    ["zeros", "--family", "3", "--degree", "-1", "--level", "2"],
    # ... and each of these used to exit 0 with empty or partial output
    ["coeffs", "--max-j", "-1"],
    ["quad", "--n", "1", "--study-degree", "2", "--m-max", "-1"],
    ["sweep-chi", "--family", "2", "--n", "-1", "--chi-list", "1,2"],
    # negative weights used to escape as a ValueError traceback (exit 1)
    ["ops", "--family", "2", "--chi", "-1", "--degree", "3"],
    ["gram", "--family", "1", "--maxdeg", "2", "--m", "1", "--chi", "-2"],
    ["sweep-chi", "--family", "3", "--n", "3", "--chi-list", "-1"],
])
def test_negative_size_is_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0" in captured.err


@pytest.mark.parametrize("args", [
    # a zero top weight used to escape as a ValueError traceback (exit 1)
    ["ops", "--family", "2", "--m", "2", "--chi", "1,0", "--degree", "4"],
    ["ops", "--family", "3", "--m", "2", "--chi", "0", "--degree", "4"],
    ["eval", "--family", "2", "--m", "2", "--chi", "1,0", "--degree", "4",
     "--level", "1"],
])
def test_zero_top_weight_on_recurrence_is_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--method gram-schmidt" in captured.err


def test_zero_top_weight_with_gram_schmidt(capsys):
    assert cli.main(["ops", "--family", "2", "--m", "2", "--chi", "1,0",
                     "--degree", "4", "--method", "gram-schmidt"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["chi"] == ["1", "1", "0"]
    assert len(payload["polys"]) == 5


def test_usage_error_solve_level_below_level(capsys):
    # used to escape as a ValueError traceback (exit 1)
    for cmd in ("eval", "zeros"):
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, "--family", "2", "--degree", "1", "--level", "3",
                      "--solve-level", "1"])
        assert exc.value.code == 2
        assert "--solve-level 1 is below --level 3" in capsys.readouterr().err


def test_usage_error_m_max_below_n(capsys):
    # used to print a CSV header only and exit 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["quad", "--n", "2", "--study-degree", "3", "--m-max", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m-max 1 is below --n 2" in captured.err
    # without a study, --m-max is unused and the rule is exported
    assert cli.main(["quad", "--n", "2", "--m-max", "1"]) == 0


def test_usage_error_zero_level_with_quick(capsys):
    # the zero-count report has one level, so --zero-level is an unknown flag
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--quick", "--zero-level", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--zero-level" in captured.err


def test_sobolev_order_zero_is_valid(capsys):
    assert cli.main(["ops", "--family", "2", "--m", "0", "--degree", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "legendre"


def test_consistency_error_exit_code_4(monkeypatch, capsys):
    def boom(_n):
        raise ConsistencyError("synthetic disagreement")

    monkeypatch.setattr(cli, "quadrature_weights", boom)
    assert cli.main(["quad", "--n", "1"]) == 4
    err = capsys.readouterr().err
    assert "synthetic disagreement" in err and len(err.strip().split("\n")) == 1


def test_math_assumption_exit_code_3(monkeypatch, capsys):
    def boom(**_kwargs):
        raise MathematicalAssumptionError("synthetic violation")

    monkeypatch.setattr(cli, "run_all", boom)
    assert cli.main(["verify", "--quick"]) == 3
    assert "mathematical assumption" in capsys.readouterr().err


def test_verify_quick_exit_zero():
    proc = run_cli(["verify", "--quick"])
    assert proc.returncode == 0
    assert "summary: all checks passed" in proc.stdout
    assert "FAIL (documented)" in proc.stdout
