import json
from pathlib import Path

import pytest

from padicstats.cli import dispatch

# a path below a regular file: opening it for writing always fails
UNWRITABLE = str(Path(__file__) / "r.json")


def test_list(capsys):
    assert dispatch(["list"]) == 0
    out = capsys.readouterr().out
    assert "E_Zp_count" in out
    assert "det_moment" in out
    assert "pair_corr_zp" in out


def test_formula_evaluation(capsys):
    assert dispatch(["formula", "det_moment", "--q", "2", "--n", "1", "--k", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0.6666666666")
    # the prime spelling works for residue-field-size formulas too
    assert dispatch(["formula", "det_moment", "--p", "2", "--n", "1", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip().startswith("0.6666666666")
    assert dispatch(["formula", "island_law", "--p", "2", "--d", "1", "--j", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0.2887880")
    assert dispatch(["formula", "higher_degree_bounds", "--p", "3", "--f", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("[") and "," in out


def test_formula_errors(capsys):
    assert dispatch(["formula", "no_such_formula"]) == 2
    assert dispatch(["formula", "det_moment", "--bogus", "1"]) == 2
    assert dispatch(["formula", "det_moment", "--q"]) == 2


def test_run_writes_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = dispatch([
        "run", "det_moment", "--p", "2", "--n", "1", "--k", "1",
        "--trials", "3000", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload[0]["name"] == "det_moment"
    assert payload[0]["verdict"] == "PASS"
    # byte-identical round trip of the serialized report
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out.read_text()


def test_run_writes_csv(tmp_path):
    out = tmp_path / "r.csv"
    code = dispatch([
        "run", "points_on_variety", "--p", "2", "--s", "1", "--out", str(out),
        "--format", "csv",
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith("experiment,params,")
    assert "points_on_variety" in text


def test_seed_determines_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "det_moment", "--trials", "2000", "--seed", "11"]
    assert dispatch(args + ["--out", str(a)]) == 0
    assert dispatch(args + ["--out", str(b)]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    for row_a, row_b in zip(da, db):
        row_a.pop("wall_ms")
        row_b.pop("wall_ms")
    assert da == db


def test_enumerate_only_accepts_exact(capsys):
    assert dispatch(["enumerate", "poly_variety", "--p", "3", "--s", "1"]) == 0
    assert dispatch(["enumerate", "E_Zp_count"]) == 2


def test_unknown_arguments_error():
    assert dispatch(["run", "no_such_experiment"]) == 2
    assert dispatch(["run", "det_moment", "--nonsense", "3"]) == 2
    assert dispatch(["bogus_command"]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "E_Zp_count", "--trials", "0"],
    ["run", "E_Zp_count", "--p", "4", "--trials", "64"],
    ["run", "det_moment", "--mode", "FOO"],
    ["run", "E_Zp_count", "--precision", "2", "--trials", "64"],
    ["enumerate", "det_moment_exact", "--n", "2"],
    ["run", "det_moment", "--tol", "0.5"],
    ["suite", "--filter", "det_moment*", "--trials", "0"],
    ["run", "points_on_variety", "--points", "abc"],
    ["run", "points_on_variety", "--points", "0,1,"],
    ["enumerate", "poly_variety", "--p", "3", "--n", "2", "--points", "0,1,2"],
    ["enumerate", "poly_variety", "--p", "2", "--n", "3", "--points", "0,4"],
    ["run", "det_moment_exact", "--out", UNWRITABLE],
    ["enumerate", "poly_variety", "--out", UNWRITABLE],
    ["suite", "--filter", "det_moment_exact", "--out", UNWRITABLE],
])
def test_bad_run_parameters_are_usage_errors(argv, capsys):
    # rejected with exit 2 and a message, before any report is printed
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["run", "det_moment", "--n", "0"],
    ["run", "det_moment", "--workers", "0"],
    ["run", "det_moment", "--workers", "-3"],
    ["run", "det_moment", "--seed", "-1"],
    ["run", "det_moment", "--seed", str(2 ** 64)],
    ["run", "island_law", "--d", "0"],
    ["suite", "--filter", "det_moment*", "--workers", "0"],
    ["run", "points_on_variety", "--points", "1,1"],
    ["run", "poly_variety", "--points", "0,0"],
    ["run", "points_on_variety_gl", "--points", "1,1"],
    ["run", "quad_chain", "--label", "FOO", "--trials", "300"],
    ["run", "quad_chain", "--m", "0"],
    ["run", "cok_joint_chain", "--m", "0"],
    ["run", "cok_markov", "--points", "0,1"],
    ["run", "det_moment", "--label", "RAMIFIED"],
    ["run", "island_law", "--c", "2"],
    ["run", "points_on_variety", "--m", "2"],
    ["run", "det_moment", "--k", "-1"],
    ["run", "points_on_variety", "--s", "0"],
    ["run", "points_on_variety_gl", "--s", "0"],
    ["run", "poly_variety", "--s", "0"],
    ["run", "charpoly_det_identity", "--c", "0"],
    ["run", "charpoly_det_identity", "--c", "1"],
    ["run", "points_on_variety_gl", "--m", "2"],
    ["run", "points_on_variety_gl", "--p", "3", "--points", "0,1"],
    ["run", "points_on_variety_gl", "--points", "3,1"],
    ["run", "det_moment_exact", "--n", "2"],
    ["run", "E_Zp_count", "--precision", "2"],
    ["run", "points_on_variety", "--points", "0,2"],
    ["run", "points_on_variety", "--p", "3", "--points", "0,3"],
    ["run", "points_on_variety", "--p", "3", "--points", "0,1,2"],
    ["run", "points_on_variety", "--n", "7"],
])
def test_bad_size_worker_seed_and_degree_are_usage_errors(argv, capsys):
    # n, workers, d, m and s below 1, k below 0, seeds outside [0, 2^64),
    # repeated points, an n other than the number of points of a matrix
    # law, a GL point divisible by p, clustered points at an s
    # where the exact matrix law fails (s <= 2v), a label other than
    # UNRAMIFIED/RAMIFIED, a c that is a square mod p, a parameter the
    # experiment does not read, N below the precision policy and an
    # enumeration past its budget are refused before sampling, with exit 2
    # and a usage message
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ["run", "E_Zp_count", "--n", "30", "--precision", "19"],
    ["run", "E_Zp_count", "--precision", "40"],
    ["run", "island_law", "--p", "1009", "--n", str(2 ** 53 // 1008 ** 2 + 1)],
    ["run", "cok_markov", "--precision", "32"],
    ["run", "quad_chain", "--label", "RAMIFIED", "--precision", "19"],
    ["run", "gl_support", "--p", "2", "--n", "64", "--trials", "8"],
])
def test_kernel_budget_is_a_usage_error(argv, capsys):
    # past the batched kernels' exact range (GL sampling at p = 2 ranks with
    # the packed F_2 kernels, n <= 63): refused before any sampling
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_clustered_points_pass_past_twice_their_valuation(capsys):
    # points (0, 2) agree mod 2, so the exact law needs s >= 3
    assert dispatch(["run", "points_on_variety", "--points", "0,2", "--s", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "[3, 3] (exact)" in out


def test_points_past_int64_are_reduced_before_enumeration(capsys):
    # 2^70 + 1 = 1 mod 2: the law at points (0, 1) holds
    argv = ["run", "points_on_variety", "--points", "0,1180591620717411303425"]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "[3/2, 3/2] (exact)" in out


@pytest.mark.parametrize("argv", [
    ["run", "quad_census", "--p", "2", "--trials", "200"],
    ["run", "expected_quad", "--p", "2"],
    ["run", "quad_chain", "--label", "UNRAMIFIED", "--p", "2"],
])
def test_quadratic_experiments_refuse_p_2(argv, capsys):
    # odd-p only: refused before sampling, not a traceback after it
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_workers_env_default(tmp_path, monkeypatch, capsys):
    out1, out2 = tmp_path / "w1.json", tmp_path / "w4.json"
    args = ["run", "det_moment", "--trials", "2048", "--seed", "3"]
    monkeypatch.delenv("PADIC_WORKERS", raising=False)
    assert dispatch(args + ["--out", str(out1)]) == 0
    monkeypatch.setenv("PADIC_WORKERS", "4")
    assert dispatch(args + ["--out", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    # worker count affects scheduling only, never the result
    assert d1[0]["estimate"] == d2[0]["estimate"]
    assert d1[0]["se"] == d2[0]["se"]


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_workers_env_is_a_usage_error(value, monkeypatch, capsys):
    monkeypatch.setenv("PADIC_WORKERS", value)
    for argv in (["run", "det_moment", "--trials", "2000"],
                 ["suite", "--filter", "det_moment_exact"]):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ["formula", "pair_corr_zp", "--p", "3", "--m", "-1"],
    ["formula", "quad_density", "--p", "2", "--label", "RAMIFIED", "--m", "0"],
    ["formula", "det_moment", "--p", "2", "--n", "0", "--k", "1"],
    ["formula", "det_moment", "--p", "1", "--n", "1", "--k", "1"],
    ["formula", "det_moment", "--p", "0", "--n", "1", "--k", "1"],
    ["formula", "island_law", "--p", "4", "--d", "1", "--j", "0"],
    ["formula", "pair_corr_zp", "--p", "6", "--m", "1"],
])
def test_bad_formula_parameters_are_usage_errors(argv, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_suite_filter(tmp_path, capsys):
    out = tmp_path / "suite.json"
    code = dispatch([
        "suite", "--filter", "poly_variety", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "pass" in text
    payload = json.loads(out.read_text())
    assert len(payload) == 3  # the three grid points
    assert dispatch(["suite", "--filter", "zzz_nothing"]) == 2
