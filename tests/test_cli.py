import json

import pytest

from padicstats.cli import dispatch


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
])
def test_bad_run_parameters_are_usage_errors(argv, capsys):
    # rejected with exit 2 and a message, before any report is printed
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


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
