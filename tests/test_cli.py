"""Command line front end: exit codes, artifacts, determinism, the
builtin expression grammar."""

import filecmp
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenfrac import cli
from degenfrac.errors import (ConfigError, DegeneracyError, DomainError,
                              RegimeError, ResolutionError, SolverError,
                              VerificationError)
from degenfrac.fracops import TimeWarp, warp_forward
from degenfrac.solver import _TimeFactor

from profile_strategies import (MODES, no_argument_profiles, profile_names,
                                profile_texts)

LAMBDA1_HALF = 4.739066397843349  # closed-form route, beta = 0.5


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# eigen

def test_eigen_artifacts(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["eigen", "--beta", "0.5", "--modes", "4",
                   "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "eigenvalues.csv")
    assert header == ["k", "lambda"]
    assert len(rows) == 4 and rows[0][0] == "1"
    lam1 = float(rows[0][1])
    assert lam1 == pytest.approx(LAMBDA1_HALF, rel=2e-4)
    # values are written in full-precision scientific form
    assert "e" in rows[0][1] and len(rows[0][1].split(".")[1]) >= 17

    header, rows = _read_csv(out / "eigenfunctions.csv")
    assert header == ["x", "v1", "v2", "v3", "v4"]
    assert len(rows) == 64  # x_points default 65, x=0 dropped

    rep = json.loads((out / "orthogonality.json").read_text())
    assert rep["modes"] == 4
    assert rep["max_offdiag_l2"] <= 1e-6
    assert not any("time" in k or "date" in k for k in rep)


def test_eigen_bessel_oracle(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["eigen", "--beta", "0.5", "--modes", "4",
                   "--oracle", "bessel", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "orthogonality.json").read_text())
    assert rep["cross_oracle_max_rel_delta"] <= 1e-4
    _, rows = _read_csv(out / "eigenvalues.csv")
    assert float(rows[0][1]) == pytest.approx(LAMBDA1_HALF, rel=1e-10)


def test_eigen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["eigen", "--beta", "1.5", "--modes", "3",
                         "--out", str(out)]) == 0
    for name in ("eigenvalues.csv", "eigenfunctions.csv",
                 "orthogonality.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


@pytest.mark.parametrize("source", ["sep:one|sin:3", "sep:quadratic|one"])
def test_solve_deterministic_bytes(tmp_path, source):
    # a time-varying source (the convolution) and a declared constant one
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"f = {source}\n")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["solve", "--config", str(cfgf), "--modes", "4",
                         "--out", str(out)]) == 0
    for name in ("solution.csv", "diagnostics.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_readme_auto_modes_example_exits_0(tmp_path):
    # the README's `solve --modes auto` example, as printed there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(ln for ln in readme.replace("\\\n", "").splitlines()
                if ln.startswith("degenfrac solve") and "--modes auto" in ln)
    argv = shlex.split(line)[1:]
    out = tmp_path / "run"
    argv[argv.index("--out") + 1] = str(out)
    assert cli.main(argv) == 0
    assert json.loads((out / "diagnostics.json").read_text())["modes"] == 32


def test_json_artifacts_are_canonical(tmp_path):
    out = tmp_path / "o"
    cli.main(["eigen", "--beta", "0.5", "--modes", "2", "--out", str(out)])
    text = (out / "orthogonality.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


#: small grids for each command, as config-file keys
_SMALL = {"modes": "3", "x_points": 5, "t_points": 3, "fd_nx": 32,
          "fd_nt": 16, "modes_ladder": "2,4", "mesh_ladder": "16,32"}


@pytest.mark.parametrize("command,keys,names", [
    ("eigen", {}, ["eigenvalues.csv", "eigenfunctions.csv",
                   "orthogonality.json"]),
    ("solve", {"f": "sep:one|sin:3"}, ["solution.csv", "diagnostics.json"]),
    ("solve", {"format": "json"}, ["solution.json", "diagnostics.json"]),
    ("verify", {"tol": 1.0}, ["verify.json"]),
    ("convergence", {}, ["convergence_modes.csv", "convergence_mesh.csv",
                         "convergence.json"]),
])
def test_main_writes_exactly_the_map_a_command_fills(tmp_path, command, keys,
                                                     names):
    # a command called directly puts its artifacts in the map and touches
    # no file; main writes exactly the map's bytes, and no other file
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("".join(f"{k} = {v}\n"
                            for k, v in {**_SMALL, **keys}.items()))
    out = tmp_path / "o"
    cfg = cli.load_config(cfgf)
    cfg.out = str(out)
    files = {}
    assert cli._COMMANDS[command][0](cfg, files) == 0
    assert list(files) == names and not out.exists()
    assert cli.main([command, "--config", str(cfgf), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == files[name].encode(), name


# ---------------------------------------------------------------------------
# exit codes

def test_degenerate_parameters_exit_2(tmp_path, capsys):
    assert cli.main(["eigen", "--beta", "1.0", "--modes", "2",
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["eigen", "--beta", "2.0", "--modes", "2",
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["solve", "--theta", "1.2", "--out", str(tmp_path)]) == 2
    # T > a, but s(T) = T^p - a^p rounds to 0: once blamed on the times
    capsys.readouterr()
    assert cli.main(["solve", "--theta", "0.99", "--a", "1",
                     "--T", "1.0000000000000002", "--out", str(tmp_path)]) == 2
    assert "s(T) = 0" in capsys.readouterr().err


def test_usage_problems_exit_1(tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["eigen", "--config", str(tmp_path / "nope.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key = 3\n")
    assert cli.main(["eigen", "--config", str(bad)]) == 1
    bad.write_text("alpha = fast\n")
    assert cli.main(["eigen", "--config", str(bad)]) == 1
    bad.write_text("alpha 0.5\n")
    assert cli.main(["eigen", "--config", str(bad)]) == 1
    # not UTF-8 (a traceback once), and a file that cannot be read
    bad.write_bytes(b"alpha = 0.5\xff\n")
    for path in (bad, tmp_path):
        capsys.readouterr()
        assert cli.main(["eigen", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ")
        assert len(err.splitlines()) == 1
    assert cli.main(["eigen", "--modes", "auto",
                     "--out", str(tmp_path)]) == 1
    bad.write_text("phi = sin:abc\n")
    capsys.readouterr()
    assert cli.main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: sin wants a number, got 'abc'\n"


@pytest.mark.parametrize("keys, name", [
    ("phi = quadratic:7\n", "quadratic"), ("phi = quadratic:\n", "quadratic"),
    ("phi = zero:1\n", "zero"), ("f = sep:one:abc|one:2\n", "one"),
    ("f = sep:one|one:2\n", "one")],
    ids=["quadratic:7", "quadratic:", "zero:1", "sep-space", "sep-time"])
def test_an_argument_a_profile_does_not_take_exits_1_naming_it(
        tmp_path, capsys, keys, name):
    # each of these once solved as if it had no argument, and exited 0
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(keys)
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli.main(["solve", "--config", str(cfgf), "--modes", "2",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {name} takes no argument, got ")
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--f", "json"], ["--f", "sep:one|sin:3"],
                                  ["--be", "0.7"]],
                         ids=["f-json", "f-source", "be"])
def test_an_abbreviated_flag_exits_1_naming_it(tmp_path, capsys, flag):
    # argparse once expanded a flag prefix: --f json set format and wrote
    # solution.json, --f sep:one|sin:3 blamed format, and --be set beta
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli.main(["solve", "--modes", "2", *flag, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: unrecognized arguments: {' '.join(flag)}"]
    assert not out.exists()


@pytest.mark.parametrize("kind, code", [
    (ConfigError, 1), (DomainError, 2), (DegeneracyError, 2),
    (ResolutionError, 3), (SolverError, 3), (VerificationError, 4),
    (RegimeError, 4)])
def test_each_error_kind_exits_with_its_code(tmp_path, capsys, monkeypatch,
                                             kind, code):
    # no CLI input reaches a SolverError or a RegimeError, so a stubbed
    # command raises each kind; main prints one line and writes no out
    def cmd(cfg, files):
        raise kind(f"stub {kind.__name__}")

    monkeypatch.setitem(cli._COMMANDS, "eigen", (cmd, "stub"))
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli.main(["eigen", "--out", str(out)]) == code
    assert capsys.readouterr().err == f"error: stub {kind.__name__}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "convergence"])
def test_a_collapsing_fd_time_mesh_exits_3_with_advice_a_run_can_take(
        tmp_path, capsys, command):
    # T - a = 1e-14: every FD time mesh of 4 or more steps maps its first
    # nodes back onto t = a.  The refusal once advised a lower time
    # grading, which no config key sets
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("a = 1\nT = 1.00000000000001\nf = sep:one|sin:3\n")
    capsys.readouterr()
    assert cli.main([command, "--config", str(cfgf),
                     "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: time mesh collapses")
    assert "grading" not in err[0]
    assert err[0].endswith("use fewer time steps or a longer horizon")


@pytest.mark.parametrize("argv", [["eigen", "--modes", "2"],
                                  ["solve", "--modes", "2"]])
@pytest.mark.parametrize("sub", ["", "sub"])
def test_an_unwritable_out_exits_1(tmp_path, capsys, argv, sub):
    # an out that is a file, or lies under one: an uncaught FileExistsError
    # or NotADirectoryError once, with a traceback
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(afile / sub)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write the artifacts to {afile / sub}")
    assert afile.read_text() == "keep\n"


def test_nan_tol_exits_1(tmp_path):
    # NaN fails every "<= tol" test, so it would reach kmax in solve and
    # fail every suite in verify
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("kmax = 8\n")
    for cmd in ("solve", "verify"):
        assert cli.main([cmd, "--config", str(cfgf), "--modes", "auto",
                         "--tol", "nan", "--out", str(tmp_path / cmd)]) == 1


def test_auto_modes_start_at_the_largest_mode_profile(tmp_path):
    # mode:k needs K >= k, so the ladder starts at max(4, k)
    cfgf = tmp_path / "run.cfg"
    for keys, K in (("phi = mode:5\n", 5),
                    ("phi = zero\nf = sep:(mode:6)|one\n", 6)):
        cfgf.write_text(keys)
        out = tmp_path / str(K)
        assert cli.main(["solve", "--config", str(cfgf), "--beta", "0.5",
                         "--modes", "auto", "--tol", "1e-3",
                         "--out", str(out)]) == 0
        assert json.loads((out / "diagnostics.json").read_text())["modes"] == K


@pytest.mark.parametrize("keys", ["phi = mode:{}\n",
                                  "phi = zero\nf = sep:(mode:{})|sin:3\n"],
                         ids=["phi", "f"])
def test_auto_modes_read_a_mode_index_as_the_grammar_does(tmp_path, keys):
    # the ladder's first K once came from a regex that the grammar did not
    # share: mode: 5 solved at K = 4 and exited 1 (mode index 5 outside
    # 1..4), where int() reads it as mode:5
    cfgf = tmp_path / "run.cfg"
    outs = []
    for spelling in ("5", " 5", "+5"):
        cfgf.write_text(keys.format(spelling))
        outs.append(tmp_path / f"k{spelling.strip()}")
        assert cli.main(["solve", "--config", str(cfgf), "--beta", "0.5",
                         "--modes", "auto", "--tol", "1e-3",
                         "--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert json.loads((outs[0] / "diagnostics.json").read_text())["modes"] == 5
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        assert all((out / n).read_bytes() == (outs[0] / n).read_bytes()
                   for n in names)


def test_a_short_horizon_writes_finite_source_series(tmp_path):
    # T - a below ~256 ulps of T: the 257 nodes the source series are
    # differentiated on repeat, and np.gradient divided by 0, wrote null
    # after nine numpy warnings and exited 0
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("a = 1\nT = 1.00000000000001\nf = sep:one|sin:3\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["solve", "--config", str(cfgf), "--modes", "4",
                         "--out", str(out)]) == 0
    norms = json.loads((out / "diagnostics.json").read_text())["norms"]
    assert all(math.isfinite(v) for v in norms.values())
    assert norms["series_source_deriv"] > 0.0


def test_auto_modes_kmax_exhaustion_exit_3(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("kmax = 8\nf = one\n")
    rc = cli.main(["solve", "--config", str(cfgf), "--modes", "auto",
                   "--tol", "1e-13", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert not (tmp_path / "o").exists()  # no artifact, no directory


def test_refined_mesh_tail_is_not_a_false_zero(tmp_path):
    # at beta 0.95 lambda_64 takes the 16,384-cell mesh.  When the modes
    # were orthonormal under the Gauss rule there only to about 1e-7, |phi|^2
    # - sum c_k^2 read -5.6e-10 for the quadratic phi, whose defect is
    # 9.1e-6: the tail must not clamp to 0, and --modes auto at the default
    # tol 1e-6 must not claim convergence
    out = tmp_path / "k64"
    assert cli.main(["solve", "--beta", "0.95", "--modes", "64",
                     "--out", str(out)]) == 0
    tail = json.loads((out / "diagnostics.json").read_text())["tail"]
    assert 8e-6 < tail["phi_projection_defect_l2"] < 1e-5
    assert tail["tail_estimate_l2"] == tail["phi_projection_defect_l2"]
    assert cli.main(["solve", "--beta", "0.95", "--modes", "auto",
                     "--out", str(tmp_path / "auto")]) == 3


# ---------------------------------------------------------------------------
# config files

def test_config_file_with_overrides(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(
        "# leading comment\n"
        "\n"
        "beta = 0.3   # trailing comment\n"
        "modes = 3\n")
    out = tmp_path / "o"
    rc = cli.main(["eigen", "--config", str(cfgf), "--beta", "0.5",
                   "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "eigenvalues.csv")
    assert len(rows) == 3  # modes from the file
    assert float(rows[0][1]) == pytest.approx(LAMBDA1_HALF, rel=2e-4)


#: a valid raw value for each flag, as it would appear after "key =" in a
#: config file
_FLAG_VALUES = (("beta", "1.5"), ("alpha", "0.25"), ("theta", "-0.5"),
                ("a", "0.1"), ("T", "2.5"), ("modes", "auto"),
                ("out", "elsewhere"), ("format", "json"),
                ("oracle", "bessel"), ("tol", "none"), ("tol", "1e-3"))


@pytest.mark.parametrize("key,raw", _FLAG_VALUES)
def test_a_flag_reads_its_value_as_the_config_file_does(tmp_path, key, raw):
    # the flags once had their own types: --tol none was a usage error
    assert {k for k, _ in _FLAG_VALUES} == set(cli._FLAGS)
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"{key} = {raw}\n")
    args = cli._build_parser().parse_args(["solve", f"--{key}", raw])
    assert cli._config_from_args(args) == cli.load_config(cfgf)


def test_load_config_types(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("alpha = 0.25\nmodes = auto\nfd_nx = 128\nphi = sin:2\n")
    cfg = cli.load_config(cfgf)
    assert cfg.alpha == 0.25
    assert cfg.modes == "auto"
    assert cfg.fd_nx == 128
    assert cfg.phi == "sin:2"
    assert cfg.beta == 0.5  # untouched default


# ---------------------------------------------------------------------------
# solve

def test_solve_classical(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["solve", "--beta", "0.5", "--modes", "6",
                   "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "solution.csv")
    assert header[0] == "t" and len(header) == 66
    assert len(rows) == 17
    diags = json.loads((out / "diagnostics.json").read_text())
    assert diags["regime"] == "classical"
    assert diags["residual"]["kind"] == "strong"
    assert diags["residual"]["sup_rel"] <= 1e-3
    assert diags["tail"]["tail_estimate_l2"] >= 0.0


def test_solve_weak_regime(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["solve", "--beta", "1.5", "--modes", "6",
                   "--out", str(out)])
    assert rc == 0
    diags = json.loads((out / "diagnostics.json").read_text())
    assert diags["regime"] == "weak"
    assert diags["residual"]["kind"] == "weak"


def test_solve_auto_modes(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["solve", "--beta", "0.5", "--modes", "auto",
                   "--tol", "1e-4", "--out", str(out)])
    assert rc == 0
    diags = json.loads((out / "diagnostics.json").read_text())
    assert diags["modes"] >= 4
    assert diags["tail"]["tail_estimate_l2"] <= 1e-4


@pytest.mark.parametrize("argv,f", [
    (["--alpha", "0.02"], "none"),
    (["--alpha", "0.01"], "none"),
    (["--alpha", "0.02", "--beta", "1.5"], "sep:one|sin:3"),
])
def test_small_alpha_solve_writes_a_finite_residual(tmp_path, argv, f):
    # below alpha ~ 0.0206 the residual's graded grid underflows onto 0;
    # these runs exited 0 and wrote "sup_rel": null
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"f = {f}\n")
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", str(cfgf), *argv,
                     "--out", str(out)]) == 0
    res = json.loads((out / "diagnostics.json").read_text())["residual"]
    assert res["sup_rel"] is not None and res["sup_rel"] < 1e-3


@pytest.mark.parametrize("keys,message", [
    ("phi = const:inf", "phi must be finite on (0, 1)"),
    ("phi = poly:1e308,1e308", "phi must be finite on (0, 1)"),
    ("f = sep:one|cos:inf", "f must be finite on [a, T]"),
])
def test_non_finite_data_exits_2_naming_it(tmp_path, capsys, keys, message):
    # such data once ran the whole solve, and the residual then blamed f
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(keys + "\n")
    capsys.readouterr()
    assert cli.main(["solve", "--config", str(cfgf),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize("q", ["inf", "nan", "-inf"])
def test_a_non_finite_spow_exponent_exits_1_naming_spow(tmp_path, capsys, q):
    # spow:inf once solved a source that is 0 on [a, T) and 1 at T and
    # exited 0, and spow:nan exited 2 blaming f
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"f = sep:one|spow:{q}\nmodes = 2\n")
    capsys.readouterr()
    assert cli.main(["solve", "--config", str(cfgf),
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: spow exponent must be a finite number >= 0, "
                   f"got {float(q)}"]


@pytest.mark.parametrize("keys,message", [
    ("phi = poly:1e308,1e308", "phi must be finite on (0, 1)"),
    ("f = sep:one|cos:inf", "f must be finite on [a, T]"),
])
def test_non_finite_data_prints_only_its_error_line(tmp_path, keys, message):
    # numpy's overflow and invalid-value warnings from sampling such data
    # once reached stderr ahead of the error line
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(keys + "\nmodes = 2\n")
    proc = subprocess.run([sys.executable, "-m", "degenfrac", "solve",
                           "--config", str(cfgf), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=_source_env())
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


def test_solve_json_format(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["solve", "--beta", "0.5", "--modes", "4",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    sol = json.loads((out / "solution.json").read_text())
    assert len(sol["t"]) == 17 and len(sol["x"]) == 65
    assert len(sol["u"]) == 17 and len(sol["u"][0]) == 65


def test_solve_takes_its_modes_from_the_chosen_oracle(tmp_path):
    # lambda_64 at beta 0.99 is past the Galerkin meshes, not the Bessel zeros
    args = ["solve", "--beta", "0.99", "--modes", "64"]
    assert cli.main(args + ["--out", str(tmp_path / "g")]) == 3
    assert cli.main(args + ["--oracle", "bessel",
                            "--out", str(tmp_path / "b")]) == 0
    # at K = 8 the two fields differ by the Galerkin eigen error alone
    # (lambda_8 off by 1.2e-5; the field by 2.4e-7 of its sup)
    u = {}
    for oracle in ("galerkin", "bessel"):
        out = tmp_path / f"k8-{oracle}"
        assert cli.main(["solve", "--modes", "8", "--oracle", oracle,
                         "--out", str(out)]) == 0
        u[oracle] = np.loadtxt(out / "solution.csv", delimiter=",",
                               skiprows=1)[:, 1:]
    d = np.max(np.abs(u["bessel"] - u["galerkin"]))
    assert 0.0 < d <= 1e-6 * np.max(np.abs(u["galerkin"]))


def test_convergence_takes_its_reference_from_the_chosen_oracle(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("modes_ladder = 2,4\nmesh_ladder = 16,32\n")
    rep = {}
    for oracle in ("galerkin", "bessel"):
        out = tmp_path / oracle
        assert cli.main(["convergence", "--config", str(cfgf), "--oracle",
                         oracle, "--out", str(out)]) == 0
        rep[oracle] = json.loads((out / "convergence.json").read_text())
    for key in ("modes_err_l2_rel", "mesh_err_l2_rel"):
        g, b = np.array(rep["galerkin"][key]), np.array(rep["bessel"][key])
        assert np.all(g != b) and np.allclose(b, g, rtol=1e-3, atol=0.0), key


# ---------------------------------------------------------------------------
# verify / convergence

def test_verify_all_suites_pass(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["verify", "--beta", "0.5", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "verify.json").read_text())
    assert rep["all_pass"] is True
    assert set(rep["suites"]) == {"ml_recurrence", "orthogonality",
                                  "kernel_equivalence", "flux_limit",
                                  "uniqueness", "spectral_vs_fd"}
    assert all(s["pass"] for s in rep["suites"].values())


def test_spectral_vs_fd_suite_reads_the_fd_mesh_keys(monkeypatch):
    meshes = []
    build = cli.FDMesh.build

    def spy(*args, **kwargs):
        meshes.append((kwargs["nx"], kwargs["nt"]))
        return build(*args, **kwargs)

    monkeypatch.setattr(cli.FDMesh, "build", spy)
    value = cli._suite_spectral_vs_fd(cli.RunConfig(fd_nx=64, fd_nt=48))
    assert meshes == [(64, 48)]
    assert 0.0 < value <= 1e-2


def test_verify_refuses_an_oracle_it_would_ignore(tmp_path, capsys):
    # verify checks the Galerkin route against the Bessel one itself
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("oracle = bessel\n")
    for extra in (["--oracle", "bessel"], ["--config", str(cfgf)]):
        out = tmp_path / "o"
        assert cli.main(["verify", *extra, "--out", str(out)]) == 1
        assert "oracle" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(ConfigError, match="oracle"):
        cli.cmd_verify(cli.RunConfig(oracle="bessel", out=str(tmp_path / "o")),
                       {})


def test_verify_impossible_tol_exits_4(tmp_path, capsys):
    # main writes verify.json after cmd_verify raises VerificationError
    out = tmp_path / "o"
    rc = cli.main(["verify", "--beta", "0.5", "--tol", "0",
                   "--out", str(out)])
    assert rc == 4
    rep = json.loads((out / "verify.json").read_text())
    assert rep["all_pass"] is False
    failed = [name for name, _, _ in cli._SUITES
              if not rep["suites"][name]["pass"]]
    assert capsys.readouterr().err == ("error: failing invariants: "
                                       + ", ".join(failed) + "\n")


def test_convergence_ladders(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("modes_ladder = 2,4,8\nmesh_ladder = 32,64\n")
    out = tmp_path / "o"
    rc = cli.main(["convergence", "--config", str(cfgf), "--beta", "0.5",
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "convergence.json").read_text())
    assert all(o > 1.0 for o in rep["modes_orders"])
    assert rep["mesh_err_l2_rel"][1] < rep["mesh_err_l2_rel"][0]
    assert (out / "convergence_modes.csv").is_file()
    assert (out / "convergence_mesh.csv").is_file()


def test_convergence_bad_ladder_exit_1(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("modes_ladder = 8\n")
    assert cli.main(["convergence", "--config", str(cfgf),
                     "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("ladder", ["2,4,96", "2,4,128"])
def test_convergence_refuses_a_top_rung_at_its_reference(tmp_path, capsys,
                                                         ladder):
    # the reference takes min(2 top, 96) modes: 96 compared the rung with
    # itself (error 0.0, exit 0), and 128 asked for more modes than it has
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"modes_ladder = {ladder}\n")
    rc = cli.main(["convergence", "--config", str(cfgf),
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:") and "96" in err[0]
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# expression grammar

def test_space_expr_profiles():
    assert cli.space_expr("quadratic")(0.25) == pytest.approx(0.1875)
    assert cli.space_expr("poly:1,2")(0.5) == pytest.approx(2.0)


@pytest.mark.parametrize("text, expect", [
    ("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float))),
    ("one", lambda x: np.ones_like(np.asarray(x, dtype=float))),
    ("const:2.5", lambda x: 2.5 * np.ones_like(np.asarray(x, dtype=float))),
    ("sin:2", lambda x: np.sin(2.0 * np.pi * x)),
    ("cos:3", lambda x: np.cos(3.0 * np.pi * x)),
], ids=["zero", "one", "const:2.5", "sin:2", "cos:3"])
@pytest.mark.parametrize("x", [np.linspace(0.0, 1.0, 101), 0.3],
                         ids=["array", "scalar"])
def test_space_expr_profile_families_keep_their_bits(text, expect, x):
    # zero, one and const share one branch, sin and cos another; each
    # profile keeps the bits of its own numpy expression
    got, want = cli.space_expr(text)(x), expect(x)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_space_expr_mode_profile(eig):
    sys_ = eig(0.5, 3)
    fn = cli.space_expr("mode:2", sys_)
    x = np.array([0.3, 0.7])
    assert np.allclose(fn(x), sys_.eigen_eval(2, x)[0])
    with pytest.raises(ConfigError):
        cli.space_expr("mode:2")  # no system available
    with pytest.raises(ConfigError):
        cli.space_expr("mode:9", sys_)


def test_space_expr_errors():
    with pytest.raises(ConfigError):
        cli.space_expr("gauss")
    for text in ("poly:a,b", "sin:abc", "cos:", "const:", "mode:x", "mode:1.5"):
        with pytest.raises(ConfigError):
            cli.space_expr(text)


def test_time_expr_factors():
    warp = TimeWarp(0.3, 0.5)
    assert cli.time_expr("one", warp) == 1.0
    assert cli.time_expr("const:3", warp) == 3.0
    assert cli.time_expr("sin:2", warp)(0.5) == pytest.approx(math.sin(1.0))
    assert cli.time_expr("poly:0,1", warp)(2.5) == pytest.approx(2.5)
    assert cli.time_expr("spow:1", warp)(1.5) == \
        pytest.approx(warp_forward(warp, 1.5))
    with pytest.raises(ConfigError):
        cli.time_expr("spow:-1", warp)
    for text in ("tanh", "sin:abc", "cos:", "const:", "spow:x"):
        with pytest.raises(ConfigError):
            cli.time_expr(text, warp)


def test_time_factors_take_arrays_and_match_scalar_forms():
    warp = TimeWarp(0.3, 0.5)
    t = np.linspace(0.5, 2.0, 301)
    scalar = {
        "sin:3": lambda v: math.sin(3.0 * v),
        "cos:2.5": lambda v: math.cos(2.5 * v),
        "poly:1,-0.5,2": lambda v: 1.0 + v * (-0.5 + v * 2.0),
        "spow:1.7": lambda v: warp_forward(warp, v) ** 1.7,
    }
    for text, ref in scalar.items():
        fn = cli.time_expr(text, warp)
        got = fn(t)
        assert got.shape == t.shape
        want = np.array([ref(float(v)) for v in t])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), text
        assert float(fn(0.75)) == pytest.approx(ref(0.75), rel=1e-15)
    spow = cli.time_expr("spow:0.5", warp)
    for below in (0.4, np.array([0.6, 0.45])):
        with pytest.raises(DomainError):
            spow(below)


def _lambda_time_factor(text, warp):
    """A frozen copy of time_expr's lambdas before its factors became
    values: the reference for their bits."""
    name, _, arg = text.partition(":")
    if name == "sin":
        w = float(arg)
        return lambda t: np.sin(w * t)
    if name == "cos":
        w = float(arg)
        return lambda t: np.cos(w * t)
    if name == "poly":
        coefs = [float(c) for c in arg.split(",")]
        return lambda x: np.polynomial.polynomial.polyval(x, coefs)
    q = float(arg)
    return lambda t: warp_forward(warp, t) ** q


@pytest.mark.parametrize("text,a", [
    ("sin:3", 0.0), ("cos:2", 0.0), ("poly:0,1,-0.5", 0.0),
    ("poly:1.5", 0.0), ("spow:0.5", 0.0), ("spow:0.5", 0.3),
    ("spow:1.7", 0.3)])
def test_time_factor_values_evaluate_the_lambdas_bit_for_bit(text, a):
    warp = TimeWarp(0.3, a)
    got, want = cli.time_expr(text, warp), _lambda_time_factor(text, warp)
    t = a + np.linspace(0.0, 1.4, 257) ** 2
    assert got(t).tobytes() == want(t).tobytes()
    for v in (a, a + 0.75, a + 1.4):
        g, w = got(v), want(v)
        assert type(g) is type(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_time_factors_are_immutable_values():
    warp, other = TimeWarp(0.3, 0.0), TimeWarp(0.3, 0.3)
    for text in ("sin:3", "cos:2", "poly:0,1,-0.5", "spow:0.5"):
        one, two = cli.time_expr(text, warp), cli.time_expr(text, warp)
        assert one is not two
        assert one == two and hash(one) == hash(two)
        with pytest.raises(AttributeError):
            one.nums = (4.0,)
        assert isinstance(one.nums, tuple)
    # a different number, or its sign at zero, is another value
    for a, b in (("sin:3", "sin:4"), ("cos:2", "cos:2.000000001"),
                 ("sin:0", "sin:-0"), ("poly:0,1", "poly:0,1,0"),
                 ("poly:0,1,-0.5", "poly:0,1,-0.25"), ("sin:3", "cos:3"),
                 ("spow:0.5", "spow:1.5")):
        assert cli.time_expr(a, warp) != cli.time_expr(b, warp), (a, b)
    # the warp is part of spow's value, and of no other factor's
    assert cli.time_expr("spow:0.5", warp) != cli.time_expr("spow:0.5", other)
    assert cli.time_expr("sin:3", warp) == cli.time_expr("sin:3", other)
    assert cli.time_expr("sin:3", warp) != (lambda t: np.sin(3.0 * t))


def test_source_expr_forms():
    warp = TimeWarp(0.0, 0.0)
    assert cli.source_expr("none", warp) is None
    assert cli.source_expr("", warp) is None
    bare = cli.source_expr("one", warp)
    assert bare(0.3, 99.0) == pytest.approx(1.0)
    sep = cli.source_expr("sep:sin:1|cos:3", warp)
    assert sep(0.25, 0.5) == pytest.approx(
        math.sin(math.pi * 0.25) * math.cos(1.5))
    with pytest.raises(ConfigError):
        cli.source_expr("sep:sin:1", warp)  # missing time factor


def _readme_grammar():
    """[(axis, [(name, kind), ...])] of the two backticked profile lists of
    the README's CLI section; a placeholder names its argument's kind."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    lists = [re.sub(r"\s+", " ", span) for span in
             re.findall(r"`([^`]*)`", section) if " | " in span]
    assert len(lists) == 2, lists
    kinds = {"": None, "c": "number", "k": "integer", "c0,c1,...": "numbers"}
    return [(axis, [(name, kinds[arg]) for name, _, arg in
                    (entry.partition(":") for entry in span.split(" | "))])
            for axis, span in zip(("space", "time"), lists)]


def test_readme_grammar_is_the_profile_table():
    table = [(axis, [(name, cli._PROFILES[name][0])
                     for name in profile_names(axis)])
             for axis in ("space", "time")]
    assert _readme_grammar() == table


def _frozen_space_expr(text, system=None):
    """A frozen copy of space_expr before the grammar became one table: the
    reference for the bits of every accepted text."""
    name, _, arg = text.strip().partition(":")
    if name in ("zero", "one", "const"):
        c = float(arg) if name == "const" else float(name == "one")
        return lambda x: c * np.ones_like(np.asarray(x, dtype=float))
    if name == "quadratic":
        return lambda x: x * (1.0 - x)
    if name in ("sin", "cos"):
        k, wave = float(arg), getattr(np, name)
        return lambda x: wave(k * np.pi * x)
    if name == "poly":
        coefs = [float(c) for c in arg.split(",")]
        return lambda x: np.polynomial.polynomial.polyval(x, coefs)
    k = int(arg)
    return lambda x: system._rows(slice(k - 1, k), x, deriv=False)[0]


def _frozen_time_expr(text, warp):
    """A frozen copy of time_expr before the grammar became one table."""
    name, _, arg = text.strip().partition(":")
    if name == "one":
        return 1.0
    if name == "const":
        return float(arg)
    if name == "poly":
        return _TimeFactor(name, [float(c) for c in arg.split(",")])
    return _TimeFactor(name, (float(arg),), warp if name == "spow" else None)


#: accepted arguments of each profile, spelled as a config file may
_ROUND_TRIP = {
    "zero": [None], "one": [None], "quadratic": [None],
    "const": ["2.5", "-0", " 1e-3", "inf"], "sin": ["2", "0.5", "-0"],
    "cos": ["3", "1e2"], "poly": ["1,-0.5,2", "0", " 1 , 2"],
    "mode": ["2", " 3", "+1"], "spow": ["0", "1.7", "0.5 "]}


def test_every_profile_parses_as_before_the_table(eig):
    system, warp = eig(0.5, 3), TimeWarp(0.3, 0.5)
    x = np.linspace(0.0, 1.0, 65)[1:]
    t = np.linspace(0.5, 2.0, 33)
    assert list(_ROUND_TRIP) == list(cli._PROFILES)
    for name, args in _ROUND_TRIP.items():
        for arg in args:
            text = name if arg is None else f"{name}:{arg}"
            if name in profile_names("space"):
                got = cli.space_expr(text, system)
                want = _frozen_space_expr(text, system)
                for xs in (x, 0.3):
                    assert np.asarray(got(xs)).tobytes() == \
                        np.asarray(want(xs)).tobytes(), text
            if name in profile_names("time"):
                got = cli.time_expr(text, warp)
                want = _frozen_time_expr(text, warp)
                assert type(got) is type(want) and got == want, text
                assert hash(got) == hash(want), text
                if callable(got):
                    assert got(t).tobytes() == want(t).tobytes(), text


@settings(max_examples=80, derandomize=True, deadline=None)
@given(space=profile_texts("space"), time=profile_texts("time"),
       bare=no_argument_profiles(),
       arg=st.text(alphabet="01.,:-+e xq", max_size=4))
def test_drawn_profiles_parse_finite_and_take_only_their_arguments(
        eig, space, time, bare, arg):
    system, warp = eig(0.5, MODES), TimeWarp(0.3, 0.5)
    x = np.linspace(0.0, 1.0, 33)[1:]
    t = np.linspace(0.5, 2.0, 17)
    assert np.all(np.isfinite(cli.space_expr(space, system)(x))), space
    factor = cli.time_expr(time, warp)
    assert np.all(np.isfinite(factor(t) if callable(factor) else factor)), time
    axis, name = bare
    parse = cli.space_expr if axis == "space" else \
        (lambda text: cli.time_expr(text, warp))
    with pytest.raises(ConfigError) as refused:
        parse(f"{name}:{arg}")
    assert str(refused.value).startswith(f"{name} takes no argument")


def _source_env():
    """Environment for a subprocess that imports degenfrac from this source
    checkout, without installation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point_help():
    # python -m degenfrac works from a source checkout, without installation
    env = _source_env()
    proc = subprocess.run([sys.executable, "-m", "degenfrac", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "eigen" in proc.stdout and "solve" in proc.stdout


def test_import_leaves_scipy_interpolate_unloaded():
    env = _source_env()
    code = ("import sys, degenfrac.cli; "
            "print([m for m in ('scipy.interpolate', 'scipy.sparse') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_main_keeps_one_parser_across_calls(tmp_path):
    # two requests in one process, the first a usage error, give the exit
    # codes and artifacts of two fresh processes
    assert cli._build_parser() is cli._build_parser()
    bad = ["eigen", "--modes", "3", "--no-such-flag"]
    good = ["eigen", "--beta", "0.5", "--modes", "3"]
    env = _source_env()
    fresh = [subprocess.run([sys.executable, "-m", "degenfrac", *argv],
                            capture_output=True, env=env).returncode
             for argv in (bad, good + ["--out", str(tmp_path / "fresh")])]
    code = ("from degenfrac.cli import main; "
            f"print(main({bad!r}), main({good + ['--out', str(tmp_path / 'one')]!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert fresh == [1, 0]
    assert proc.stdout.splitlines()[-1].split() == ["1", "0"]
    for name in ("eigenvalues.csv", "eigenfunctions.csv", "orthogonality.json"):
        assert filecmp.cmp(tmp_path / "fresh" / name, tmp_path / "one" / name,
                           shallow=False), name


def test_write_csv_matches_per_value_format():
    def per_value(header, rows):
        # each value by its own type: str for an int, %.16e for the rest
        lines = [",".join(str(h) for h in header)]
        lines += [",".join(str(v) if isinstance(v, (int, np.integer))
                           else "%.16e" % float(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    rng = np.random.default_rng(3)
    grid = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    grid[0, :3] = (0.0, -0.0, 1.0)
    field = [[float(t)] + list(row) for t, row in zip(grid[:, 0], grid[:, 1:])]
    eigen = [[k + 1, lam] for k, lam in enumerate(np.abs(grid[:, 0]))]
    ladder = [[np.int64(8), 0.5], [np.int64(16), 1e-300]]
    for name, header, rows in (("grid", ["x", "a", "b", "c", "d"], grid),
                               ("field", ["t", "u1", "u2", "u3", "u4"], field),
                               ("eigen", ["k", "lambda"], eigen),
                               ("ladder", ["modes", "err"], ladder)):
        assert cli._csv(header, iter(rows)) == per_value(header, rows), name


# ---------------------------------------------------------------------------
# installed entry point

def test_console_script_help():
    proc = subprocess.run(["degenfrac", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "eigen" in proc.stdout and "solve" in proc.stdout
