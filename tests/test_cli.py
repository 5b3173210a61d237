"""End-to-end CLI contract: exit codes, formats, determinism, config."""

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from msf import dirac
from msf.specfun import DomainError, TruncationError
from msf.cli import (RunConfig, TABULATE_TARGETS, _parse_grid, main, report_json,
                     table_csv, tabulate, verify_suite)


def run_cli(args, env=None, cwd=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "msf.cli", *args],
                          capture_output=True, text=True, env=full_env, cwd=cwd)


def test_exit_code_pass():
    res = run_cli(["verify", "--suite", "moments"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["records"][0]["status"] == "pass"


def test_exit_code_usage_error(tmp_path, capsys):
    assert run_cli(["verify", "--suite", "unknown"]).returncode == 2
    # an unknown suite: one error line, which lists the choices
    capsys.readouterr()
    assert main(["verify", "--suite", "bogus"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "embed-3p1" in lines[0]
    assert run_cli(["bogus-command"]).returncode == 2
    assert run_cli(["tabulate", "weight", "--u", "bad"]).returncode == 2
    # a non-finite grid bound or step, a malformed label
    for argv in (["weight", "--u", "nan:1:0.5"], ["weight", "--u", "0:inf:0.5"],
                 ["weight", "--u", "0:1:nan"], ["cs-density", "--z1", "abc"]):
        assert main(["tabulate", *argv]) == 2
    # an unwritable --out: one error line, no traceback
    capsys.readouterr()
    assert main(["verify", "--suite", "moments", "--out", str(tmp_path / "no" / "r.json")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # no tolerance or quadrature-order override: --tol 1 would pass C02
    for flag in (["--tol", "1"], ["--nodes", "200"]):
        assert main(["verify", "--suite", "all", *flag]) == 2


@pytest.mark.parametrize("argv", [["state", "--theta", "inf"], ["cs-density", "--theta", "nan"],
                                  ["kernel", "--rho", "inf"], ["kernel", "--tau", "nan"],
                                  ["kernel", "--tau=-inf"]])
def test_non_finite_point_value_exits_2(argv, capsys):
    # --rho, --theta and --tau take finite floats; a non-finite one printed
    # a table of nan and exited 0
    assert main(["tabulate", *argv, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


def test_huge_label_exits_2(capsys):
    # |z1 z2| = 1e200 is past the coherent-state table limit: one error
    # line, not a traceback from the row length
    assert main(["tabulate", "cs-density", "--z1", "1e200", "--format", "csv"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "label too large" in lines[0]


@pytest.mark.parametrize("suite", ["dirac", "kernel-rel"])
def test_suite_domain_error_exits_2(suite, capsys):
    # at zero flux the vartheta = -1 row l = 0 needs Laguerre order -1
    assert main(["verify", "--suite", suite, "--mu", "0"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("args", [["--suite", "moments", "--mu", "1.5"],
                                  ["--suite", "moments", "--gamma", "-1"],
                                  ["--suite", "orthonormality", "--mass", "-2"],
                                  ["--suite", "rel-cs", "--mass", "nan"],
                                  ["--suite", "propagator", "--gamma", "inf"]])
def test_out_of_range_option_exits_2(args, capsys):
    # every suite refuses a value outside the field and Dirac ranges, even
    # one that never reads it
    assert main(["verify", *args]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_truncation_error_exits_2(monkeypatch, capsys):
    # a series that cannot serve an input (the Marcum lower tail at
    # u = 1e8, v = 1e4 stops at its term cap after seconds): one error
    # line and exit 2, not a traceback with the check-failure status
    import msf.cli as cli

    def capped(*args):
        raise TruncationError("Poisson-gamma mixture did not converge", -1.0, 1.0)

    monkeypatch.setattr(cli, "weight_fn", capped)
    argv = ["tabulate", "weight", "--u", "1e8:1e8:1", "--v", "1e4:1e4:1", "--format", "csv"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_verify_suite_rejects_unknown_name():
    with pytest.raises(DomainError, match="unknown suite"):
        verify_suite(RunConfig(), "bogus")


def test_exit_code_check_failure():
    # the fractional-flux exponential sum rule genuinely fails at mu=0.25,
    # so this suite must exit 1 and list the failing records
    res = run_cli(["verify", "--suite", "cs-normalization", "--mu", "0.25"])
    assert res.returncode == 1
    assert "FAIL" in res.stderr


def test_verify_report_schema(tmp_path):
    out = tmp_path / "rep.json"
    res = run_cli(["verify", "--suite", "weights", "--out", str(out)])
    assert res.returncode == 0
    rep = json.loads(out.read_text())
    assert set(rep) == {"meta", "records"}
    assert rep["meta"]["suite"] == "weights"
    for rec in rep["records"]:
        assert set(rec) == {"name", "parameters", "achieved_error", "tolerance", "status"}
        assert (rec["achieved_error"] <= rec["tolerance"]) == (rec["status"] == "pass")


def test_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["verify", "--suite", "g-matrix", "--out", str(a)])
    run_cli(["verify", "--suite", "g-matrix", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_report_all_deterministic_with_warm_caches(tmp_path):
    # the second in-process pass reads the rules, panel blocks and unity
    # grids the first one cached; a fresh process builds them anew
    paths = [tmp_path / f"{k}.json" for k in range(3)]
    args = ["verify", "--suite", "all", "--format", "json", "--out"]
    for p in paths[:2]:
        main([*args, str(p)])
    run_cli([*args, str(paths[2])])
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_tabulate_weight_csv(tmp_path):
    out = tmp_path / "w.csv"
    res = run_cli(["tabulate", "weight", "--mu", "0.5", "--u", "0:4:0.5",
                   "--v", "0:4:0.5", "--format", "csv", "--out", str(out)])
    assert res.returncode == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "u,v,w0,w1"
    assert len([ln for ln in lines if ln]) == 82  # header + 81 grid points
    # LF endings, no CR
    assert "\r" not in out.read_text()


def test_tabulate_spectrum_shows_flux_splitting(tmp_path):
    out = tmp_path / "s.csv"
    run_cli(["tabulate", "spectrum", "--mu", "0.3", "--lmax", "2", "--mmax", "1",
             "--format", "csv", "--out", str(out)])
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    energies = {(int(r[0]), int(r[1]), int(r[2])): float(r[4]) for r in rows}
    # branch-1 levels carry the flux shift, branch-0 levels do not
    assert energies[(1, 1, 0)] == pytest.approx(1.0 + 0.3 + 0.5)
    assert energies[(0, -1, 0)] == pytest.approx(0.5)


def test_tabulate_kernel(tmp_path):
    out = tmp_path / "k.csv"
    res = run_cli(["tabulate", "kernel", "--l", "-1", "--mu", "0.3", "--tau", "0.05",
                   "--rho", "1.0", "--rhop", "0:6:0.05", "--format", "csv",
                   "--out", str(out)])
    assert res.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "rhop,re,im"
    assert len(lines) == 122


def test_label_with_leading_minus_takes_the_equals_form(capsys):
    # argparse reads "-0.3j" after a space as an option, so a value with a
    # leading minus is written --z2=-0.3j: the default label, byte for byte
    base = ["tabulate", "cs-density", "--rhop", "0:2:0.5", "--format", "csv"]
    assert main(base) == 0
    default = capsys.readouterr().out
    assert main([*base, "--z2=-0.3j"]) == 0
    assert capsys.readouterr().out == default
    assert main([*base, "--z2", "-0.3j"]) == 2


def test_tabulate_cs_density_large_label():
    # |z| = 20: the linear-space series overflowed here
    res = run_cli(["tabulate", "cs-density", "--j", "1", "--z1", "10+10j", "--z2", "(-10+10j)",
                   "--theta", "0.3", "--rhop", "0:6:3", "--format", "csv"])
    assert res.returncode == 0
    rows = [ln.split(",") for ln in res.stdout.strip().split("\n")]
    assert rows[0] == ["rho", "re", "im", "abs2"]
    values = [float(c) for row in rows[1:] for c in row]
    assert len(values) == 12 and all(math.isfinite(x) for x in values)


def test_tabulate_json_schema(tmp_path):
    out = tmp_path / "t.json"
    run_cli(["tabulate", "state", "--j", "1", "--l", "1", "--m", "0",
             "--rhop", "0:2:0.5", "--out", str(out)])
    obj = json.loads(out.read_text())
    assert set(obj) == {"meta", "records"}
    assert obj["meta"]["columns"] == ["rho", "re", "im"]
    assert len(obj["records"]) == 5


def test_config_file_and_cli_precedence(tmp_path):
    cfgfile = tmp_path / "msf.cfg"
    cfgfile.write_text("mu = 0.25\ngamma = 2.0\n")
    out = tmp_path / "o.json"
    run_cli(["tabulate", "spectrum", "--lmax", "1", "--mmax", "0", "--out", str(out)],
            env={"MSF_CONFIG": str(cfgfile)})
    obj = json.loads(out.read_text())
    assert obj["meta"]["config"]["mu"] == 0.25
    assert obj["meta"]["config"]["gamma"] == 2.0
    # command line wins over the file
    run_cli(["tabulate", "spectrum", "--lmax", "1", "--mmax", "0", "--mu", "0.75",
             "--out", str(out)], env={"MSF_CONFIG": str(cfgfile)})
    obj = json.loads(out.read_text())
    assert obj["meta"]["config"]["mu"] == 0.75


def test_bad_config_file(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "bad.cfg"
    monkeypatch.setenv("MSF_CONFIG", str(cfgfile))
    # config values get the type and choice checks of their flags
    for text in ("nonsense value", "tol = 1", "nodes = 200", "format = xml", "vartheta = 0"):
        cfgfile.write_text(text + "\n")
        assert main(["verify", "--suite", "moments"]) == 2, text
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), text


def _records(argv, tmp_path) -> list:
    out = tmp_path / "rep.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())["records"]


def test_vartheta_pins_dirac_suite(tmp_path):
    both = _records(["verify", "--suite", "dirac"], tmp_path)
    pinned = _records(["verify", "--suite", "dirac", "--vartheta", "-1"], tmp_path)
    assert len(both) == 6 and len(pinned) == 3
    assert json.dumps(pinned) == json.dumps([r for r in both if "vt=-1" in r["parameters"]])


@pytest.mark.parametrize("source", ["flag", "config"])
def test_vartheta_pins_rel_cs_suite(source, tmp_path, monkeypatch):
    # pinned to vartheta = -1, branch 1 starts at the irregular l = 0 row
    seen, rel_cs = set(), dirac.rel_cs

    def spy(j, lab, dc, *args, **kwargs):
        seen.add((j, dc.vartheta))
        return rel_cs(j, lab, dc, *args, **kwargs)

    monkeypatch.setattr(dirac, "rel_cs", spy)
    argv = ["verify", "--suite", "rel-cs", "--mu", "0.15"]
    if source == "flag":
        argv += ["--vartheta", "-1"]
    else:
        cfgfile = tmp_path / "msf.cfg"
        cfgfile.write_text("vartheta = -1\n")
        monkeypatch.setenv("MSF_CONFIG", str(cfgfile))
    pinned = _records(argv, tmp_path)
    assert seen == {(1, -1), (0, -1)}
    assert [(r["name"], r["parameters"], r["status"]) for r in pinned] == [
        ("rel-cs-unit-norm", "mu=0.15 both branches/charges", "pass"),
        ("rel-cs-overlap-dual", "mu=0.15", "pass")]


def test_grid_parse():
    grid = _parse_grid("0:4:0.5")
    assert len(grid) == 9 and grid[0] == 0.0 and grid[-1] == 4.0
    # a step that does not divide the span stops short of stop
    assert list(_parse_grid("0:1:0.6")) == [0.0, 0.6]
    # (0.3 - 0.1) / 0.1 rounds below 2: the exact multiple keeps its end point
    assert len(_parse_grid("0.1:0.3:0.1")) == 3


def test_verify_suite_api():
    rep = verify_suite(RunConfig(), "moments")
    assert rep.passed
    text = report_json(rep)
    assert json.loads(text)["meta"]["suite"] == "moments"


def test_table_csv_keeps_the_per_cell_rule():
    # one format per column equals the rule applied cell by cell: %.12g
    # for a float (np.float64 included), str for anything else
    columns = [
        [0, -3, 7, 12, 1, 2, 3, 4],
        ["a", "b;c", "100%", "", "x", "y", "z", "w"],
        list(np.array([0.1, 1.0 / 3.0, -2.5e17, 1e-5, 7.0, 0.0, -1.0, 123456789.123456789])),
        [math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, 1.0 / 3.0, 2.0**70],
    ]
    header = ["i", "s", "f64", "f"]
    rows = [",".join(f"{c:.12g}" if isinstance(c, float) else str(c) for c in row)
            for row in zip(*columns)]
    assert table_csv(header, columns) == "\n".join(["i,s,f64,f", *rows]) + "\n"
    # an empty table is its header line alone
    assert table_csv(header, [[] for _ in header]) == "i,s,f64,f\n"


TABULATE_ARGS = SimpleNamespace(u="0:1:0.5", v="0:1:0.5", rho=1.0, rhop="0:2:0.5", theta=0.3,
                                tau=0.05, l=-2, m=1, j=1, z1=0.5 + 0.2j, z2=-0.3j, lmax=1,
                                mmax=1)


@pytest.mark.parametrize("target", TABULATE_TARGETS)
def test_tabulate_returns_one_typed_column_per_header_entry(target):
    header, columns = tabulate(RunConfig(mu=0.3), target, TABULATE_ARGS)
    assert len(columns) == len(header)
    assert len({len(col) for col in columns}) == 1 and len(columns[0]) > 0
    for col in columns:  # Python scalars, one type per column
        assert isinstance(col, list) and len({type(c) for c in col}) == 1
        assert type(col[0]) in (int, float)


@pytest.mark.parametrize("argv", [
    ["weight", "--u", "0:1:0.5", "--v", "0:1:0.5"],
    ["spectrum", "--lmax", "1", "--mmax", "1"],
    ["spectrum", "--lmax", "-1"],
    ["kernel", "--rhop", "0:2:0.5"],
    ["state", "--l", "-2", "--m", "1", "--rhop", "0:2:0.5"],
    ["cs-density", "--rhop", "0:2:0.5"],
], ids=["weight", "spectrum", "spectrum-empty", "kernel", "state", "cs-density"])
def test_tabulate_csv_and_json_agree(argv, capsys):
    assert main(["tabulate", *argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["tabulate", *argv, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    header = obj["meta"]["columns"]
    assert lines[0] == ",".join(header)
    assert len(lines) - 1 == len(obj["records"])
    for line, rec in zip(lines[1:], obj["records"]):
        assert line.split(",") == [format(rec[name], ".12g") for name in header]
    if argv[-1] == "-1":  # no angular number: the header line and no records
        assert lines == ["j,l,m,n1,energy"] and obj["records"] == []
