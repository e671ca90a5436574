"""The ledger of known defects: each silent failure measured on the package
as a test of the property that should hold.

Each test carries xfail(strict=True) with the ROADMAP item that owns the
defect, so the suite reports it as xfailed while the defect stands.  A
change that mends a defect makes its test pass, which strict xfail
reports as a failure: that change removes the marker, and the test stays
as a regression test.  No marker goes on a test that passes.
"""
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from degenfrac import cli
from degenfrac.solver import assemble, residual_strong
from degenfrac.spectral import _Projector, solve_eigen

SRC = Path(cli.__file__).resolve().parents[1]

#: the README's forced example at K = 16
FORCED = cli.RunConfig(f="sep:one|sin:3", modes="16")


def known(reason):
    """The ledger's marker: a strict xfail that only the property's own
    assertion satisfies, so an unrelated error still fails the suite."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.fixture(scope="module")
def system16():
    """The K = 16 eigensystem of the forced example's beta 0.5, shared by
    the entries that solve it."""
    return cli._eigensystem(FORCED, 16)


def _field(cfg, system, conv_cells=None):
    """cfg's field on the CLI's grids at cfg.modes, and its problem."""
    spec = cli._build_problem(cfg, system)
    kw = {} if conv_cells is None else {"conv_cells": conv_cells}
    K = int(cfg.modes)
    return assemble(spec, system, K, *cli._solve_grids(cfg), **kw), spec


def _change(cfg, system, cells):
    """The sup relative change of cfg's field from the default convolution
    cells to cells."""
    got, ref = _field(cfg, system)[0], _field(cfg, system, cells)[0]
    return np.max(np.abs(got.values - ref.values)) / np.max(np.abs(ref.values))


@known(
    "ROADMAP item 3: at T = 50 the 128 convolution cells leave sin:3 "
    "0.39 off the 8,192-cell field, and the solve exits 0")
def test_a_long_horizon_solve_is_within_1e_2_of_the_refined_field(system16):
    assert _change(replace(FORCED, T=50.0), system16, 8192) <= 1e-2


@known(
    "ROADMAP item 10: at theta 0.99 the nodes graded toward s = 0 leave "
    "sin:3 0.20 off the 32,768-cell field, and the solve exits 0")
def test_a_theta_0_99_solve_is_within_1e_2_of_the_refined_field(system16):
    assert _change(replace(FORCED, theta=0.99), system16, 32768) <= 1e-2


@known(
    "ROADMAP item 10: at theta -10 with no source the strong residual "
    "reads 4.35, while FD and spectral agree within 1.1e-3")
def test_the_theta_minus_10_strong_residual_reads_below_1e_3(system16):
    cfg = replace(FORCED, theta=-10.0, f="none")
    field, spec = _field(cfg, system16)
    assert residual_strong(field, spec).sup_rel < 1e-3


@known(
    "ROADMAP item 6: at beta 1.95, K = 32 the value written at x = 0 is a "
    "diverging partial sum, -1.70e14, and the solve exits 0")
def test_a_weak_regime_solve_writes_u_0_within_the_data_bound(tmp_path):
    # no source: the field stays within max |phi| = 1/4 of quadratic, so a
    # solve that exits 0 writes no larger value at x = 0
    out = tmp_path / "o"
    rc = cli.main(["solve", "--beta", "1.95", "--modes", "32",
                   "--out", str(out)])
    if rc == 0:
        rows = (out / "solution.csv").read_text().splitlines()[1:]
        u0 = np.array([float(row.split(",")[1]) for row in rows])
        assert np.max(np.abs(u0)) <= 0.25


@known(
    "ROADMAP item 2: with no source at K = 16 the tail reads 2.0e-4, "
    "against a true error of 1.2e-7")
def test_the_no_source_tail_is_within_10x_of_the_true_error(system16):
    cfg = replace(FORCED, f="none")
    ts, x = np.geomspace(0.05, cfg.T, 16), np.linspace(0.0, 1.0, 3)
    field = assemble(cli._build_problem(cfg, system16), system16, 16, x, ts)
    # the true error: the sup over t in [0.05, 1] of the L2 distance to
    # the K = 96 field on an 8,192-cell mesh, under that mesh's rule
    ref_sys = solve_eigen(cfg.beta, 96, 8192)
    ref = assemble(cli._build_problem(cfg, ref_sys), ref_sys, 96, x, ts)
    proj = _Projector(ref_sys, slice(96))
    modes16 = system16.basis_matrix(proj.X)
    true = max(
        math.sqrt(np.dot(proj.W, (proj.values(ref.mode_values[:, j])
                                  - field.mode_values[:, j] @ modes16) ** 2))
        for j in range(ts.size))
    assert field.diagnostics["tail_estimate_l2"] <= 10.0 * true


@known(
    "ROADMAP item 17: with every eigenvalue scaled by 1.01, spectral_vs_fd "
    "reads 9.1e-3 against its 1e-2, and verify --beta 0.5 exits 0")
def test_verify_fails_on_eigenvalues_scaled_by_1_01(tmp_path, monkeypatch):
    real = cli.solve_eigen

    def scaled(*args, **kwargs):
        system = real(*args, **kwargs)
        system.lambdas = 1.01 * system.lambdas
        return system

    monkeypatch.setattr(cli, "solve_eigen", scaled)
    rc = cli.main(["verify", "--beta", "0.5", "--out", str(tmp_path / "o")])
    assert rc == 4


@known(
    "ROADMAP item 22: verify --tol 0.5 replaces every declared tolerance, "
    "so uniqueness passes at 0.5 against its 1e-12")
def test_verify_tol_never_loosens_a_suite(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["verify", "--tol", "0.5", "--out", str(out)])
    if rc != 1:  # verify may refuse a tol that loosens a suite
        suites = json.loads((out / "verify.json").read_text())["suites"]
        for name, _, declared in cli._SUITES:
            assert suites[name]["tol"] <= declared, name


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
@known(
    "ROADMAP item 7: eigen --modes 64 --beta 0.95 writes different bytes "
    "at one and at two BLAS threads")
def test_eigen_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / threads)
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   **{name: threads for name in ("OPENBLAS_NUM_THREADS",
                                                 "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS")})
        subprocess.run([sys.executable, "-m", "degenfrac", "eigen",
                        "--modes", "64", "--beta", "0.95",
                        "--out", str(outs[-1])],
                       env=env, check=True, capture_output=True)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        one, two = ((out / name).read_bytes() for out in outs)
        assert one == two, name
