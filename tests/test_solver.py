"""Mode reduction, closed-form relaxation kernels, field assembly,
residual dispatch."""

import dataclasses
import inspect
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from degenfrac import cli, fracops, solver, special, spectral
from degenfrac.errors import DomainError, RegimeError, ResolutionError
from degenfrac.fracops import (SampledFunction, TimeWarp, _l1_cells, _l1_rows,
                               graded_grid, hb_caputo, warp_forward)
from degenfrac.oraclefd import FDMesh, compare
from degenfrac.solver import (
    ModeODE,
    ProblemSpec,
    SeparableSource,
    assemble,
    fourier_coeff,
    mode_solution,
    mode_solution_alt,
    residual_strong,
    residual_weak,
    solution_norms,
    _eval_vec,
    _mode_residuals,
    _mode_values,
    _modes_values,
    _value_at,
)
from degenfrac.special import ml_bound_fit, ml_eval, ml_eval_many
from degenfrac.spectral import bessel_eigen, solve_eigen


def _quadratic(x):
    return x * (1.0 - x)


def test_problem_spec_validation():
    ProblemSpec(1.0, 0.0, 0.5, 0.0, 1.0, _quadratic)  # alpha = 1 allowed
    with pytest.raises(DomainError):
        ProblemSpec(1.2, 0.0, 0.5, 0.0, 1.0, _quadratic)
    with pytest.raises(DomainError):
        ProblemSpec(0.0, 0.0, 0.5, 0.0, 1.0, _quadratic)
    with pytest.raises(DomainError):
        ProblemSpec(0.5, 1.0, 0.5, 0.0, 1.0, _quadratic)
    with pytest.raises(DomainError):
        ProblemSpec(0.5, 0.0, 1.0, 0.0, 1.0, _quadratic)
    with pytest.raises(DomainError):
        ProblemSpec(0.5, 0.0, 0.5, 2.0, 1.0, _quadratic)
    with pytest.raises(DomainError):
        ProblemSpec(0.5, 0.0, 0.5, -0.1, 1.0, _quadratic)
    with pytest.raises(DomainError):  # an (fx, ft) pair is no source form
        ProblemSpec(0.5, 0.0, 0.5, 0.0, 1.0, _quadratic, (np.sin, 1.0))


@pytest.mark.parametrize("field,message", [
    ("alpha", "^alpha must"), ("theta", "^theta must"), ("beta", "^beta must"),
    ("a", "^a must"), ("T", "^need a < T")])
@pytest.mark.parametrize("bad", ["0", None, -math.inf])
def test_problem_spec_refuses_a_non_number_scalar(field, message, bad):
    # "0" and None once failed with "'<' not supported" (TypeError), and
    # theta = -inf made a spec whose warp exponent p was infinite
    good = dict(alpha=0.6, theta=0.3, beta=0.5, a=0.0, T=1.0)
    with pytest.raises(DomainError, match=message):
        ProblemSpec(**dict(good, **{field: bad}), phi=_quadratic)


def test_problem_spec_regime():
    assert ProblemSpec(0.5, 0.0, 0.5, 0.0, 1.0, _quadratic).regime == "classical"
    assert ProblemSpec(0.5, 0.0, 1.5, 0.0, 1.0, _quadratic).regime == "weak"


def test_separable_source():
    src = SeparableSource(lambda x: 2.0 * x, lambda t: t ** 2)
    assert src(0.5, 3.0) == pytest.approx(9.0)
    assert SeparableSource(lambda x: 2.0 * x, 3.0)(0.5, 7.0) == pytest.approx(3.0)
    for bad in (math.nan, "one"):
        with pytest.raises(DomainError):
            SeparableSource(lambda x: x, bad)


def test_mode_ode_lambda_star_negative():
    ode = ModeODE(1, 0.6, 4.0, 1.0, None, TimeWarp(0.3, 0.0))
    assert ode.lambda_star < 0.0
    assert ode.lambda_star == pytest.approx(-4.0 / 0.7 ** 0.6)


def test_fourier_coeff_orthonormal_delta(eig):
    sys = eig(0.5, 3)
    for k in (1, 2, 3):
        for j in (1, 2, 3):
            g = lambda x: sys.eigen_eval(j, x)[0]
            c = fourier_coeff(g, sys, k)
            assert c == pytest.approx(1.0 if j == k else 0.0, abs=5e-9)


@pytest.mark.parametrize("f", [
    SeparableSource(lambda x: x * (1.0 - x), np.cos),
    lambda x, t: np.sqrt(x) * (1.0 - x) * np.sin(3.0 * t)],
    ids=["separable", "tabulated"])
def test_galerkin_projections_tabulate_no_mode(eig, monkeypatch, f):
    # a Galerkin mode is a vector of hat coefficients: assemble, its
    # sources and fourier_coeff project through them, so no path here
    # evaluates the modes at the rule's nodes
    def tabulate(*args):
        raise AssertionError("_rule_basis called on a Galerkin system")

    for module in (spectral, solver):  # wherever the name is bound
        monkeypatch.setattr(module, "_rule_basis", tabulate, raising=False)
    sys = eig(0.5, 16)
    spec = ProblemSpec(0.6, 0.3, 0.5, 0.0, 1.0, lambda x: x * (1.0 - x), f)
    fld = assemble(spec, sys, 16, np.linspace(0.0, 1.0, 9),
                   np.linspace(0.25, 1.0, 4))
    assert np.all(np.isfinite(fld.values))
    assert fld.diagnostics["source_projection_defect_l2"] > 0.0
    assert fourier_coeff(np.cos, sys, 3) == pytest.approx(
        fourier_coeff(np.cos, solve_eigen(0.5, 3), 3), rel=1e-12)


def test_homogeneous_mode_matches_ml_kernel():
    warp = TimeWarp(0.3, 0.5)
    ode = ModeODE(1, 0.6, 2.0, 0.9, None, warp)
    ts = np.linspace(0.7, 2.0, 9)
    traj = mode_solution(ode, ts)
    for t, u in zip(ts, traj.values):
        s = warp_forward(warp, float(t))
        ref = 0.9 * ml_eval(0.6, 1.0, ode.lambda_star * s ** 0.6)
        assert u == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_mode_alpha1_is_exact_exponential():
    warp = TimeWarp(0.0, 0.0)
    ode = ModeODE(1, 1.0, 3.0, 1.0, None, warp)
    ts = np.linspace(0.1, 2.0, 8)
    traj = mode_solution(ode, ts)
    ref = np.exp(-3.0 * ts)
    assert np.max(np.abs(traj.values - ref)) <= 1e-14


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("a", [0.0, 0.5])
def test_mode_alpha1_with_a_signal_source_is_exact(theta, a):
    # at alpha = 1 the mode solves p u' + lam u = g(s) in warped time.  For
    # g = 1, u = phi e + (1 - e)/lam with e = e^(-lam s/p); for g = t^p =
    # s + a^p, linear in s and so integrated exactly by the product rule,
    # u = s/lam + c + (phi - c) e with c = (a^p - p/lam)/lam
    warp = TimeWarp(theta, a)
    p, phi = warp.p, 0.7
    ts = a + np.linspace(0.05, 1.5, 12)
    s = warp_forward(warp, ts)
    for lam in (1.0, 30.0, 1e3, 1e5):
        e = np.exp(-lam * s / p)
        one = mode_solution(ModeODE(1, 1.0, lam, phi, lambda t: np.ones_like(t),
                                    warp), ts).values
        ref = phi * e - np.expm1(-lam * s / p) / lam
        assert np.all(np.abs(one - ref) <= 1e-12 * np.abs(ref)), lam
        lin = mode_solution(ModeODE(1, 1.0, lam, phi, lambda t: t ** p, warp),
                            ts).values
        c = (a ** p - p / lam) / lam
        ref = s / lam + c + (phi - c) * e
        assert np.all(np.abs(lin - ref) <= 1e-13 * np.abs(ref)), lam


def test_mode_alpha1_single_and_split_kernels_agree():
    warp = TimeWarp(0.3, 0.5)
    ts = np.linspace(0.6, 2.0, 15)
    for lam in (1.0, 30.0, 1e3, 1e5):
        for src in (np.sin, lambda t: np.ones_like(t)):
            ode = ModeODE(1, 1.0, lam, 0.7, src, warp)
            a = mode_solution(ode, ts).values
            b = mode_solution_alt(ode, ts).values
            assert np.max(np.abs(a - b)) <= 1e-12, lam


def test_mode_source_small_lambda_limit():
    # lam -> 0: u = phi + (1/(p^a Gamma(1+a))) * s^a for f = 1
    warp = TimeWarp(0.2, 0.3)
    al = 0.7
    ode = ModeODE(1, al, 1e-12, 0.4, lambda t: 1.0, warp)
    t = 1.5
    s = warp_forward(warp, t)
    ref = 0.4 + s ** al / (warp.p ** al * math.gamma(1.0 + al))
    got = mode_solution(ode, np.array([t])).values[0]
    assert got == pytest.approx(ref, rel=1e-9)


def test_representation_equivalence_spot():
    warp = TimeWarp(-0.5, 0.5)
    ts = np.linspace(0.6, 2.0, 15)
    for fk in (None, 1.0, lambda t: 1.0, lambda t: math.sin(t)):
        ode = ModeODE(1, 0.7, 5.0, 0.7, fk, warp)
        a = mode_solution(ode, ts).values
        b = mode_solution_alt(ode, ts).values
        assert np.max(np.abs(a - b)) <= 1e-10
    assert mode_solution(ode, ts).method_tag != \
        mode_solution_alt(ode, ts).method_tag


def test_mode_t_grid_validation():
    ode = ModeODE(1, 0.6, 1.0, 1.0, None, TimeWarp(0.0, 0.5))
    with pytest.raises(DomainError):
        mode_solution(ode, np.array([0.5, 1.0]))  # t must start above a
    with pytest.raises(DomainError):
        mode_solution(ode, np.array([1.0, 0.8]))


def _basic_spec(beta, f=None, alpha=0.6, theta=0.3, a=0.0, T=1.0):
    return ProblemSpec(alpha, theta, beta, a, T, _quadratic, f)


def test_assemble_zero_data_is_zero(eig):
    spec = ProblemSpec(0.6, 0.3, 0.5, 0.0, 1.0,
                       lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    fld = assemble(spec, eig(0.5, 4), 4, np.linspace(0.0, 1.0, 33),
                   np.linspace(0.1, 1.0, 7))
    assert np.max(np.abs(fld.values)) <= 1e-12


def test_assemble_boundary_value_and_shape(eig):
    spec = _basic_spec(0.5, f=SeparableSource(lambda x: np.ones_like(x),
                                              lambda t: 1.0))
    xg = np.linspace(0.0, 1.0, 41)
    tg = np.linspace(0.2, 1.0, 5)
    fld = assemble(spec, eig(0.5, 6), 6, xg, tg)
    assert fld.values.shape == (5, 41)
    assert np.max(np.abs(fld.values[:, -1])) == 0.0  # u(1, t) = 0 exactly
    assert fld.K == 6 and fld.regime == "classical"
    assert "tail_estimate_l2" in fld.diagnostics


def test_assemble_single_mode_is_separable(eig):
    sys = eig(0.5, 2)
    spec = ProblemSpec(0.6, 0.3, 0.5, 0.0, 1.0,
                       lambda x: sys.eigen_eval(1, x)[0])
    xg = np.linspace(0.05, 0.95, 19)
    tg = np.linspace(0.25, 1.0, 4)
    fld = assemble(spec, sys, 1, xg, tg)
    v1 = sys.eigen_eval(1, xg)[0]
    warp = spec.warp
    for j, t in enumerate(tg):
        s = warp_forward(warp, float(t))
        amp = ml_eval(0.6, 1.0, -sys.lambdas[0] / warp.p ** 0.6 * s ** 0.6)
        assert np.max(np.abs(fld.values[j] - amp * v1)) <= 2e-9


def test_assemble_validation(eig):
    spec = _basic_spec(0.5)
    sys = eig(0.5, 4)
    with pytest.raises(DomainError):
        assemble(spec, sys, 5, np.linspace(0, 1, 9), np.array([0.5]))
    with pytest.raises(DomainError):
        assemble(spec, eig(1.5, 4), 4, np.linspace(0, 1, 9), np.array([0.5]))
    with pytest.raises(DomainError):
        assemble(spec, sys, 4, np.linspace(0, 1, 9), np.array([0.0, 0.5]))


def test_assemble_warns_on_incompatible_initial_profile(eig):
    spec = ProblemSpec(0.6, 0.3, 0.5, 0.0, 1.0, lambda x: 1.0 + 0.0 * x)
    with pytest.warns(UserWarning):
        assemble(spec, eig(0.5, 4), 4, np.linspace(0.0, 1.0, 9),
                 np.array([0.5]))


def test_mode_oscillating_source_is_not_taken_for_constant():
    # 1 + sin(6 pi t) equals 1 at seven equispaced points of [0, 1]; only a
    # declared number is constant, so the callable runs the convolution and
    # matches a direct quadrature of the Duhamel integral (a = theta = 0)
    al, lam = 0.6, 5.0
    warp = TimeWarp(0.0, 0.0)
    f = lambda t: 1.0 + np.sin(6.0 * np.pi * t)
    tg = np.array([0.5, 1.0])
    u = mode_solution(ModeODE(1, al, lam, 0.0, f, warp), tg).values
    ref = [quad(lambda tau: ml_eval(al, al, -lam * (t - tau) ** al) * f(tau),
                0.0, t, weight="alg", wvar=(0.0, al - 1.0))[0] for t in tg]
    assert np.max(np.abs(u - ref)) <= 1e-3  # O(conv_cells^-2) product rule
    one = mode_solution(ModeODE(1, al, lam, 0.0, 1.0, warp), tg).values
    one_fn = mode_solution(ModeODE(1, al, lam, 0.0, lambda t: 1.0, warp),
                           tg).values
    assert np.max(np.abs(u - one)) > 1e-2
    assert np.max(np.abs(one - one_fn)) <= 1e-12


def test_mode_source_bug_is_not_retried_pointwise():
    # only the errors scalar-only code raises on an array trigger the
    # point-by-point fallback; anything else is the caller's bug
    def fk(t):
        if np.ndim(t):
            raise KeyError("bug in the source")
        return 1.0

    with pytest.raises(KeyError):
        mode_solution(ModeODE(1, 0.6, 2.0, 0.0, fk, TimeWarp(0.0, 0.0)),
                      np.array([0.5]))
    scalar_only = ModeODE(1, 0.6, 2.0, 0.0, lambda t: math.cos(t),
                          TimeWarp(0.0, 0.0))
    assert np.all(np.isfinite(mode_solution(scalar_only, [0.5]).values))


def test_scalar_only_callable_keeps_array_shape():
    x = np.linspace(0.1, 2.0, 6).reshape(2, 3)
    got = _eval_vec(lambda t: math.sin(t), x)
    assert got.shape == (2, 3)
    assert np.array_equal(got, [[math.sin(v) for v in row] for row in x])


def test_constant_source_steady_state(eig):
    # f_k = c, t large: u_k -> c / lambda_k (algebraic ML tail)
    sys = eig(0.5, 1)
    lam = float(sys.lambdas[0])
    warp = TimeWarp(0.0, 0.0)
    ode = ModeODE(1, 0.7, lam, 0.0, lambda t: 1.0, warp)
    val = mode_solution(ode, np.array([400.0])).values[-1]
    assert val == pytest.approx(1.0 / lam, rel=2e-3)


def test_residual_strong_classical(eig):
    spec = _basic_spec(0.5, f=SeparableSource(lambda x: np.sin(np.pi * x),
                                              lambda t: 1.0))
    fld = assemble(spec, eig(0.5, 8), 8, np.linspace(0.0, 1.0, 65),
                   np.linspace(0.1, 1.0, 10))
    rep = residual_strong(fld, spec)
    assert rep.sup_rel <= 1e-4
    with pytest.raises(RegimeError):
        residual_weak(fld, spec)


def test_residual_weak_degenerate(eig):
    spec = _basic_spec(1.5, f=SeparableSource(lambda x: np.sin(np.pi * x),
                                              lambda t: 1.0))
    fld = assemble(spec, eig(1.5, 8), 8, np.linspace(0.0, 1.0, 65),
                   np.linspace(0.1, 1.0, 10))
    rep = residual_weak(fld, spec)
    assert rep.sup_rel <= 1e-4
    with pytest.raises(RegimeError):
        residual_strong(fld, spec)


def test_solution_norms_parseval_single_mode(eig):
    sys = eig(0.5, 2)
    spec = ProblemSpec(0.6, 0.3, 0.5, 0.0, 1.0,
                       lambda x: sys.eigen_eval(1, x)[0])
    fld = assemble(spec, sys, 2, np.linspace(0.0, 1.0, 33),
                   np.linspace(0.1, 1.0, 6))
    rep = solution_norms(fld, spec)
    # sup-in-time of |u_1| is at the first output node
    warp = spec.warp
    s0 = warp_forward(warp, 0.1)
    amp = abs(ml_eval(0.6, 1.0, -sys.lambdas[0] / warp.p ** 0.6 * s0 ** 0.6))
    assert rep.sup_l2 == pytest.approx(amp, rel=1e-6)
    assert rep.sup_energy == pytest.approx(math.sqrt(sys.lambdas[0]) * amp,
                                           rel=1e-6)
    assert rep.sup_weighted == pytest.approx(
        math.hypot(rep.sup_l2, rep.sup_energy), rel=1e-12)
    assert rep.series_phi == pytest.approx(sys.lambdas[0] ** 2, rel=1e-5)


@pytest.mark.parametrize("name,value", [
    ("alpha", 0.8), ("theta", -0.5), ("beta", 0.7), ("a", 0.1), ("T", 2.0)])
def test_diagnostics_refuse_a_spec_that_is_not_the_fields(eig, name, value):
    # the diagnostics read the time setup from spec and the modes from the
    # field: on the README forced example the strong residual read 0.128
    # at alpha 0.8 and 0.766 at theta -0.5, where the field's own spec
    # gives 1.5e-4, and a spec at beta 0.7 was ignored without a word
    spec, fld = _forced_field(eig, 16)
    other = dataclasses.replace(spec, **{name: value})
    for diagnostic in (residual_strong, solution_norms):
        with pytest.raises(DomainError, match=f"^spec.{name} = "):
            diagnostic(fld, other)
    # an equal spec is the field's own, whatever object carries it
    assert (residual_strong(fld, dataclasses.replace(spec)).sup_abs
            == residual_strong(fld, spec).sup_abs)


def test_assemble_field_carries_mode_data(eig):
    spec = _basic_spec(0.5)
    fld = assemble(spec, eig(0.5, 5), 5, np.linspace(0.0, 1.0, 17),
                   np.linspace(0.5, 1.0, 3))
    assert fld.mode_values.shape == (5, 3)
    assert fld.mode_lambdas.shape == (5,)
    # field is the basis contraction of the mode data
    B = fld.system.basis_matrix(fld.x_grid)[:5]
    assert np.allclose(fld.values, fld.mode_values.T @ B, atol=1e-12)


# ---------------------------------------------------------------------------
# The batched source convolution against an explicit per-time reference


def _per_time_reference(ode, S_arr, form, conv_cells):
    """The product integration one target at a time: the source is read
    point by point, and each kernel's E_{a,b+1}, E_{a,b+2} come from
    separate ml_eval_many calls."""
    al, lam_s, p = ode.alpha, ode.lambda_star, ode.warp.p
    pa = p ** al
    vals = ode.phi_k * ml_eval_many(al, 1.0, lam_s * S_arr ** al)
    if form == "single_kernel":
        parts = ((al, lam_s, 1.0 / pa),)
    else:
        parts = ((al, 0.0, 1.0 / pa), (2.0 * al, lam_s, lam_s / pa))
    ap = ode.warp.a ** p
    for j, S in enumerate(S_arr):
        if S <= 0.0:
            continue
        sigma = S * np.linspace(0.0, 1.0, conv_cells + 1) ** 2
        t = np.clip((sigma + ap) ** (1.0 / p), ode.warp.a, (S + ap) ** (1.0 / p))
        g = np.array([float(ode.f_k(float(tt))) for tt in t])
        c1 = np.diff(g) / np.diff(sigma)
        y = S - sigma
        for b, lam, scl in parts:
            e1 = ml_eval_many(al, b + 1.0, lam * y ** al)
            e2 = ml_eval_many(al, b + 2.0, lam * y ** al)
            P0 = y ** b * e1
            P1 = y ** (b + 1.0) * (e1 - e2)
            vals[j] += scl * np.sum((g[:-1] + c1 * y[:-1]) * (P0[:-1] - P0[1:])
                                    - c1 * (P1[:-1] - P1[1:]))
    return vals


def _table_source(warp):
    tg = np.linspace(warp.a, warp.a + 2.0, 41)
    return SampledFunction.from_table(tg, np.cos(2.0 * tg) + tg ** 2)


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
@pytest.mark.parametrize("form", ["single_kernel", "split_kernel"])
@pytest.mark.parametrize("table", [False, True])
def test_batched_convolution_matches_per_time_reference(alpha, form, table):
    warp = TimeWarp(0.3, 0.2)
    src = _table_source(warp) if table else (lambda t: 1.0 + np.sin(3.0 * t))
    ode = ModeODE(1, alpha, 7.0, 0.4, src, warp)
    t = np.concatenate(([warp.a], np.linspace(0.25, 2.2, 23)))
    S = np.array([warp_forward(warp, float(v)) for v in t])  # S[0] == 0
    got = _mode_values(ode, S, form, 24)
    ref = _per_time_reference(ode, S, form, 24)
    assert got[0] == ref[0] == 0.4
    assert np.max(np.abs(got - ref)) <= 1e-14, np.max(np.abs(got - ref))


def test_convolution_block_boundaries_change_nothing(monkeypatch):
    warp = TimeWarp(0.3, 0.0)
    ode = ModeODE(1, 0.6, 5.0, 0.4, lambda t: np.cos(2.0 * t), warp)
    S = np.linspace(0.0, 1.3, 40)
    whole = _mode_values(ode, S, "split_kernel", 16)
    # 3 targets a block: the 39 targets S > 0 split into 13 blocks
    monkeypatch.setattr(solver, "_BLOCK_POINTS", 3 * 17 + 2)
    blocked = _mode_values(ode, S, "split_kernel", 16)
    # equal up to the last-bit rounding of differently sized BLAS products
    assert np.max(np.abs(blocked - whole)) <= 1e-15


def _tabulated_signal(warp, K):
    """K curves through one table, one per mode (R = K), as a general
    f(x, t) gives them."""
    tg = np.linspace(warp.a, warp.a + 2.0, 41)
    return solver._Signal(SampledFunction.from_table(
        tg, np.stack([np.cos((k + 1) * tg) + tg ** 2 for k in range(K)])))


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
@pytest.mark.parametrize("form", ["single_kernel", "split_kernel"])
def test_tabulated_modes_match_per_time_reference(alpha, form):
    # the tabulated route (R = K curves, C = I) at the tolerance of the
    # one-mode test above
    warp = TimeWarp(0.3, 0.2)
    K = 3
    lams, phis = np.array([7.0, 40.0, 300.0]), np.array([0.4, -0.2, 0.1])
    src = _tabulated_signal(warp, K)
    t = np.concatenate(([warp.a], np.linspace(0.25, 2.2, 23)))
    S = np.array([warp_forward(warp, float(v)) for v in t])
    got = _modes_values(alpha, warp, lams, phis, src, form, 24, S)
    for k in range(K):
        ode = ModeODE(k + 1, alpha, float(lams[k]), float(phis[k]),
                      _mode_source(src, k), warp)
        ref = _per_time_reference(ode, S, form, 24)
        assert np.max(np.abs(got[k] - ref)) <= 1e-14, np.max(np.abs(got[k] - ref))


def test_tabulated_block_boundaries_change_nothing(monkeypatch):
    warp = TimeWarp(0.3, 0.0)
    K = 3
    args = (0.6, warp, np.array([5.0, 30.0, 200.0]), np.ones(K),
            _tabulated_signal(warp, K), "split_kernel", 16,
            np.linspace(0.0, 1.3, 40))
    whole = _modes_values(*args)
    monkeypatch.setattr(solver, "_BLOCK_POINTS", 3 * 17 + 2)
    assert np.max(np.abs(_modes_values(*args) - whole)) <= 1e-15


def _coef_node_sums(alpha, B, coef, c):
    """A node-sum half that carries the coefficients themselves, with the
    targets on the last axis, to _table_finish."""
    return (np.moveaxis(coef, 1, -1),)


def _table_finish(alpha, B, x, sums, c):
    """special._ml_finish through the full ratio table: every P_B(x, c_i)
    formed by special._ml_table, then summed against the coefficients
    that _coef_node_sums carried."""
    P = special._ml_table(alpha, (B,), x.ravel(), c)[0]
    return np.vecdot(np.moveaxis(sums[0], -1, 1),
                     P.reshape(x.shape + (len(c),)))


def _table_seam(m):
    """Sum the convolution through the full ratio table (monkeypatch m)."""
    m.setattr(solver, "_ml_node_sums", _coef_node_sums)
    m.setattr(solver, "_ml_finish", _table_finish)


@pytest.mark.parametrize("alpha", [0.3, 1.0])
@pytest.mark.parametrize("form", ["single_kernel", "split_kernel"])
@pytest.mark.parametrize("kind", ["shared", "table"])
def test_sum_by_parts_matches_the_ratio_table(monkeypatch, alpha, form, kind):
    warp = TimeWarp(0.3, 0.2)
    K = 5
    lams, phis = 2.0 + 9.0 * np.arange(K), 0.4 - 0.1 * np.arange(K)
    source = _batch_source(kind, K, warp)
    S = warp_forward(warp, np.concatenate(([warp.a],
                                           np.linspace(0.25, 2.2, 23))))
    args = (alpha, warp, lams, phis, source, form, 24, S)
    got = _modes_values(*args)
    _table_seam(monkeypatch)
    ref = _modes_values(*args)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("theta", [0.3, -0.5])
@pytest.mark.parametrize("alpha", [0.6, 1.0])
@pytest.mark.parametrize("K", [1, 16, 64])
def test_a_cli_time_factor_finishes_its_memoized_node_sums(monkeypatch, K,
                                                           alpha, theta):
    # a CLI time factor's convolution reads its node sums from
    # _factor_sums and finishes them in the slices of _finish_slices
    # (two row blocks at once at K = 1, one from K = 16 on), warm without
    # a GEMM: bit for bit a library callable of the same expression, whose
    # node sums are built for each slice, cold and warm, and within
    # roundoff of the full ratio table (spow:0.5, whose slopes blow up at
    # s = 0, sums 1.1e-14 off it at alpha = 1, theta = -0.5, by both
    # paths).  255 targets at 128 cells are two row blocks of 127 and one
    # of a single target, whose nodes numpy sums pairwise
    warp = TimeWarp(theta, 0.0)
    k = np.arange(1.0, K + 1.0)
    lams, phis, C = (np.pi * k) ** 2, 1.0 / k, (1.0 / k**2)[:, None]
    S = warp_forward(warp, 1.0) * np.linspace(0.0, 1.0, 256) ** 2
    assert solver._conv_rows(128) == 127
    for text in ("sin:3", "cos:2", "poly:0,1", "spow:0.5"):
        ft = cli.time_expr(text, warp)
        library = lambda t: ft(t)  # noqa: E731
        args = [alpha, warp, lams, phis, None, "single_kernel", 128, S]
        args[4] = solver._Signal(lambda t: _eval_vec(library, t)[None], C)
        lib = _modes_values(*args)
        with monkeypatch.context() as m:
            _table_seam(m)
            ref = _modes_values(*args)
        args[4] = solver._Signal(lambda t: _eval_vec(ft, t)[None], C, ft)
        solver._factor_sums.cache_clear()
        cold = _modes_values(*args)
        with monkeypatch.context() as m:
            m.setattr(solver, "_ml_node_sums", None)  # warm, the memo serves
            warm = _modes_values(*args)
        assert solver._factor_sums.cache_info()[:2] == (1, 1)
        assert cold.tobytes() == warm.tobytes() == lib.tobytes()
        assert np.max(np.abs(cold - ref)) <= 2e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("ft,K,bound_mb", [
    ("cli", 16, 3.18), ("cli", 64, 11.87),
    ("library", 1, 4.5), ("library", 16, 3.57), ("library", 64, 12.26)])
def test_the_dense_table_finish_keeps_its_memory(eig, monkeypatch, ft, K,
                                                  bound_mb):
    # the README forced example's residual table, with the CLI's sin:3
    # read from the warm factor memo or a library callable's node sums
    # built for each slice: from K = 16 on the modes finish the node sums
    # one row block at a time, so the peak stays at that of the per-block
    # sums (a single pass over the 1,024 targets took 10.5 MB at K = 16).
    # At K = 1 the 1,024 targets are one slice, one _ml_finish call, whose
    # 2.8 MB of node sums a library callable builds
    warp = TimeWarp(0.3, 0.0)
    f = (cli.source_expr("sep:one|sin:3", warp) if ft == "cli" else
         SeparableSource(np.ones_like, lambda t: np.sin(3.0 * t)))
    spec = _basic_spec(0.5, f=f)
    fld = assemble(spec, eig(0.5, K), K, np.linspace(0.0, 1.0, 65),
                   np.linspace(0.0, 1.0, 18)[1:])
    solver._mode_interpolants(fld, spec, solver._TABLE_CELLS)
    info = solver._factor_sums.cache_info()
    finishes = []

    def ml_finish(*args):
        finishes.append(args[2].shape)
        return special._ml_finish(*args)

    monkeypatch.setattr(solver, "_ml_finish", ml_finish)
    tracemalloc.start()
    try:
        solver._mode_interpolants(fld, spec, solver._TABLE_CELLS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hits = info.hits + (ft == "cli")
    assert solver._factor_sums.cache_info()[:2] == (hits, info.misses)
    slices = solver._finish_slices(solver._TABLE_CELLS,
                                   solver._conv_rows(128), K)
    assert len(finishes) == len(slices) == (1 if K == 1 else 9)
    assert peak <= bound_mb * 1e6


def test_separable_time_factor_is_evaluated_once_per_block(eig, monkeypatch):
    # a SeparableSource's modes share its time factor: one evaluation on
    # a block of convolution nodes serves every mode, each kernel's band
    # GEMMs run on that one curve (R = 1), and one finish serves all K
    # modes
    sizes, calls = [], []

    def ft(t):
        sizes.append(np.size(t))
        return np.sin(3.0 * np.asarray(t))

    def ml_node_sums(alpha, B, coef, c):
        calls.append(("node sums", coef.shape[0]))
        return special._ml_node_sums(alpha, B, coef, c)

    def ml_finish(alpha, B, x, node, c):
        calls.append(("finish", x.shape[0]))
        return special._ml_finish(alpha, B, x, node, c)

    monkeypatch.setattr(solver, "_ml_node_sums", ml_node_sums)
    monkeypatch.setattr(solver, "_ml_finish", ml_finish)
    K, tg = 4, np.linspace(0.1, 1.0, 5)
    spec = _basic_spec(0.5, SeparableSource(lambda x: np.ones_like(x), ft))
    fld = assemble(spec, eig(0.5, K), K, np.linspace(0.0, 1.0, 9), tg,
                   conv_cells=32)
    assert sizes.count(tg.size * 33) == 1
    assert calls == [("node sums", 1), ("finish", K)]
    S = np.array([warp_forward(spec.warp, float(t)) for t in tg])
    for k in range(K):
        ode = ModeODE(k + 1, 0.6, float(fld.mode_lambdas[k]),
                      float(fld.mode_phi[k]),
                      _mode_source(fld.mode_sources, k), spec.warp)
        ref = _per_time_reference(ode, S, "single_kernel", 32)
        assert np.max(np.abs(fld.mode_values[k] - ref)) <= 1e-14


# ---------------------------------------------------------------------------
# Batching across modes against explicit one-mode references


def _mode_source(source, k):
    """Mode k's own source f_k of a batch's source: None, a number, or a
    callable of t."""
    if source is None:
        return None
    if callable(source):
        return lambda t: source(t)[k]
    return float(source[k])


def _batch_source(kind, K, warp):
    if kind == "none":
        return None
    if kind == "constant":
        return 0.5 * np.arange(1.0, K + 1.0)
    if kind == "shared":  # one SeparableSource time factor: R = 1
        c = 0.3 * np.arange(1.0, K + 1.0)
        return solver._Signal(lambda t: np.sin(3.0 * t)[None], c[:, None])
    tg = np.linspace(warp.a, warp.a + 2.0, 41)  # one curve per mode: R = K
    return solver._Signal(SampledFunction.from_table(
        tg, np.stack([np.cos((k + 1) * tg) + tg for k in range(K)])))


@pytest.mark.parametrize("alpha", [0.6, 1.0])
@pytest.mark.parametrize("form", ["single_kernel", "split_kernel"])
@pytest.mark.parametrize("kind", ["none", "constant", "shared", "table"])
def test_modes_values_match_one_mode_calls(alpha, form, kind):
    warp = TimeWarp(0.3, 0.2)
    K = 5
    lams, phis = 2.0 + 9.0 * np.arange(K), 0.4 - 0.1 * np.arange(K)
    source = _batch_source(kind, K, warp)
    t = np.concatenate(([warp.a], np.linspace(0.25, 2.2, 23)))
    S = warp_forward(warp, t)
    got = _modes_values(alpha, warp, lams, phis, source, form, 24, S)
    ref = np.stack([_mode_values(
        ModeODE(k + 1, alpha, float(lams[k]), float(phis[k]),
                _mode_source(source, k), warp), S, form, 24)
        for k in range(K)])
    assert got.shape == (K, t.size)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_modes_values_peak_memory_stays_flat():
    # a block of 127 targets holds the one curve's (targets, nodes) slopes
    # and weights, and each kernel's sums two (contour nodes, modes,
    # targets) temporaries of 0.8 MB at K = 16: 3.7 MB measured (7.2 MB
    # when each block formed every mode's table of Q)
    import tracemalloc
    warp = TimeWarp(0.3, 0.0)
    K = 16
    lams, phis = (np.pi * np.arange(1.0, K + 1.0)) ** 2, np.ones(K)
    source = _batch_source("shared", K, warp)
    S = warp_forward(warp, np.linspace(0.0, 1.0, 1025))
    args = (0.6, warp, lams, phis, source, "single_kernel", 128, S)
    _modes_values(*args)  # the cached band tables are not counted
    tracemalloc.start()
    try:
        _modes_values(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, peak


def _exact_l1(x, coefs, alpha, S, n):
    """The L1 sum that hb_caputo(g, alpha, warp, t, n, warped=True) takes
    before its factor p^alpha, with s(t) = S and g the piecewise cubic
    sum_q coefs[q][..., i] (s - x_i)^(3 - q) on the cells [x_i, x_i+1]
    (SciPy's power form, the end cells extrapolating), summed exactly: the
    same float nodes and the same _l1_rows weights, but each g(s_i) and
    the sum in 40-digit arithmetic, so no value is differenced in floats."""
    s = graded_grid(S, n, 2.0 / alpha)
    s = s[np.concatenate(([True], np.diff(s) > 0.0))]
    w = _l1_rows(alpha, s, s.size - 1, s.size)[0]
    i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, x.size - 2)
    mpf = np.vectorize(mpmath.mpf, otypes=[object])
    with mpmath.workdps(40):
        off = mpf(s) - mpf(x[i])
        c = [mpf(cq[..., i]) for cq in coefs]
        g = ((c[0] * off + c[1]) * off + c[2]) * off + c[3]
        return np.array(np.diff(g, axis=-1) @ mpf(w), dtype=float)


def _per_mode_residuals(field, spec, ts, hb_n, dense_n):
    """The residual mode by mode: scipy's PCHIP through each mode's own
    table, its L1 sum at each sample time taken exactly (_exact_l1), and
    each mode's source read at one time."""
    S_T = warp_forward(spec.warp, spec.T)
    sg = S_T * np.linspace(0.0, 1.0, dense_n + 1) ** min(2.0 / spec.alpha, 12.0)
    r = np.empty((ts.size, field.K))
    scale = 0.0
    for k in range(field.K):
        ode = ModeODE(k + 1, spec.alpha, float(field.mode_lambdas[k]),
                      float(field.mode_phi[k]),
                      _mode_source(field.mode_sources, k), spec.warp)
        table = _mode_values(ode, sg, "single_kernel", 128)
        table[0] = ode.phi_k
        uk = PchipInterpolator(sg, table, extrapolate=True)
        for j, tj in enumerate(ts):
            hb = spec.warp.p ** spec.alpha * float(_exact_l1(
                uk.x, uk.c, spec.alpha, warp_forward(spec.warp, float(tj)),
                hb_n))
            relax = ode.lambda_k * float(uk(warp_forward(spec.warp, float(tj))))
            load = 0.0 if ode.f_k is None else _value_at(ode.f_k, tj)
            r[j, k] = hb + relax - load
            scale = max(scale, abs(hb), abs(relax), abs(load))
    return r, scale


@pytest.mark.parametrize("beta,alpha,f", [
    (0.5, 0.6, SeparableSource(lambda x: np.ones_like(x), np.sin)),
    (1.4, 0.45, SeparableSource(lambda x: x * x, 2.0)),
    (0.5, 1.0, lambda x, t: np.cos(t) * x),
    (1.4, 0.8, None),
])
def test_batched_residuals_match_per_mode_reference(eig, beta, alpha, f):
    spec = _basic_spec(beta, f=f, alpha=alpha, a=0.2, T=1.3)
    fld = assemble(spec, eig(beta, 6), 6, np.linspace(0.0, 1.0, 17),
                   np.linspace(0.3, 1.3, 5))
    ts = np.array([0.3, 0.8, 1.3])
    r, scale = _mode_residuals(fld, spec, ts, 1024, 256)
    r_ref, scale_ref = _per_mode_residuals(fld, spec, ts, 1024, 256)
    assert scale == pytest.approx(scale_ref, rel=1e-14)
    assert np.max(np.abs(r - r_ref)) <= 1e-14 * scale_ref


@pytest.mark.parametrize("alpha,theta,hb_n,dense_n", [
    (0.02, 0.3, 2048, 1024),  # the first nodes underflow onto 0
    (0.05, 0.3, 2048, 1024),
    (0.6, 0.3, 64, 1024),     # L1 intervals span many table cells
    (1.0, 0.3, 2048, 1024),   # one nonzero weight
    (0.6, -10.0, 2048, 1024),  # s(1/17) = 3.4e-14: all nodes in one cell
])
def test_cell_sums_match_the_exact_l1_sum(eig, alpha, theta, hb_n, dense_n):
    # the L1 sums of the residual's own mode table, taken cell by cell,
    # against the same sums on the same cubics taken exactly; at alpha 1
    # and theta -10, differencing interpolated values was off by 2.5e-13
    # and 4.5e-6 of a sample time's largest value
    spec = _basic_spec(0.5, f=SeparableSource(np.ones_like, np.sin),
                       alpha=alpha, theta=theta)
    fld = assemble(spec, eig(0.5, 3), 3, np.linspace(0.0, 1.0, 17),
                   np.linspace(0.0, 1.0, 18)[1:])
    u = solver._mode_interpolants(fld, spec, dense_n)
    S = warp_forward(spec.warp, np.array([1.0 / 17, 0.5, 1.0]))
    got = _l1_cells(u, alpha, S, hb_n)
    ref = np.array([_exact_l1(u._x, u._c, alpha, Sj, hb_n) for Sj in S])
    assert np.all(np.abs(got - ref)
                  <= 1e-14 * np.max(np.abs(ref), axis=1, keepdims=True))
    if alpha <= 0.05 or hb_n < dense_n:
        # the case holds L1 intervals that span several table cells, so
        # some cell lies wholly inside one
        cells = np.searchsorted(u._x, S[-1] * graded_grid(1.0, hb_n,
                                                          2.0 / alpha))
        assert np.max(np.diff(cells)) >= 2


def _forced_field(eig, conv_cells, beta=0.5):
    """The field of f = sep:one|sin:30 at alpha 0.6, theta 0.3, K = 8, on
    the CLI's default grids."""
    from degenfrac import cli
    spec = _basic_spec(beta, f=cli.source_expr("sep:one|sin:30",
                                               TimeWarp(0.3, 0.0)))
    return spec, assemble(spec, eig(beta, 8), 8, np.linspace(0.0, 1.0, 65),
                          np.linspace(0.0, 1.0, 18)[1:], conv_cells=conv_cells)


def test_residual_follows_the_field(eig):
    # four convolution cells put the field far off; the residual must see
    # it, because it re-samples the field's own modes
    spec, coarse = _forced_field(eig, 4)
    fine = _forced_field(eig, 128)[1]
    r4 = residual_strong(coarse, spec).sup_rel
    r128 = residual_strong(fine, spec).sup_rel
    assert r4 > 0.3 and r4 >= 10.0 * r128, (r4, r128)
    assert np.array_equal(coarse.modes_at(warp_forward(spec.warp,
                                                       coarse.t_grid)),
                          coarse.mode_values)


@pytest.mark.parametrize("beta,residual", [(0.5, residual_strong),
                                           (1.5, residual_weak)])
def test_residual_sample_times_are_validated(eig, beta, residual):
    # past T a separable source's residual once read an extrapolated cubic;
    # it samples 7 times of the field's own grid, which assemble validates
    spec, fld = _forced_field(eig, 16, beta)
    for bad in ([1.5], [0.0, 0.5], [[0.5]], [], [0.5, np.nan], [0.6, 0.4]):
        with pytest.raises(DomainError):
            assemble(spec, fld.system, 8, fld.x_grid, bad, conv_cells=16)
    rep = residual(fld, spec)
    assert np.array_equal(rep.t_samples, fld.t_grid[[0, 2, 5, 8, 10, 13, 16]])


@pytest.mark.parametrize("beta,residual", [(0.5, residual_strong),
                                           (1.5, residual_weak)])
def test_cell_and_node_counts_are_validated(eig, beta, residual):
    # conv_cells = 0 once dropped the source's slope sums without a word,
    # and other bad counts raised ZeroDivisionError, TypeError, IndexError
    # or ValueError; the residual's own counts are constants
    spec, fld = _forced_field(eig, 16, beta)
    for bad in (0, -1, -3, 2.5):
        with pytest.raises(DomainError, match="conv_cells"):
            assemble(spec, fld.system, 8, fld.x_grid, fld.t_grid,
                     conv_cells=bad)
    assert list(inspect.signature(residual).parameters) == ["field", "spec"]


_W = TimeWarp(0.3)
_NEXT1 = float(np.nextafter(1.0, 2.0))


def _compare_at(t_subset):
    fld = assemble(_basic_spec(0.5), solve_eigen(0.5, 4), 2,
                   np.linspace(0.0, 1.0, 5), [0.5, 1.0])
    return compare(fld, fld, t_subset=t_subset)


@pytest.mark.parametrize("call", [
    lambda: solve_eigen(0.5, 2.5),
    lambda: solve_eigen(0.5, 4, mesh=256.9),
    lambda: bessel_eigen(0.5, 2.5),
    lambda: FDMesh.build(0.5, 0.6, 1.0, nx=16.5),
    lambda: FDMesh.build(0.5, 0.6, 1.0, nt=16.5),
    lambda: hb_caputo(np.sin, 0.6, _W, 0.5, n=2.5),
    lambda: hb_caputo(np.sin, 0.6, _W, math.inf),
    lambda: hb_caputo(np.sin, 0.6, _W, math.nan),
    lambda: graded_grid(math.nan, 4, 2.0),
    lambda: graded_grid(1.0, 2.5, 2.0),
    lambda: hb_caputo(np.sin, None, _W, 0.5),
    lambda: fourier_coeff(np.sin, solve_eigen(0.5, 4), 1.5),
    lambda: solve_eigen(0.5, 4).eigen_eval(1.5, 0.5),
    lambda: solve_eigen(0.5, 4).mode(2.5),
    lambda: assemble(_basic_spec(0.5), solve_eigen(0.5, 4), 2.5,
                     np.linspace(0.0, 1.0, 9), [0.5]),
    lambda: assemble(_basic_spec(0.5), solve_eigen(0.5, 4), "2",
                     np.linspace(0.0, 1.0, 9), [0.5]),
    lambda: ml_eval_many("0.5", 1.0, [0.0, -1.0]),
    lambda: ml_eval(0.5, None, -1.0),
    lambda: ml_bound_fit("0.5", 1.0, [1.0]),
    lambda: ml_bound_fit(0.5, None, [1.0]),
    lambda: solve_eigen(0.5, True),
    lambda: ml_eval_many(0.5, 1.0, np.array([-1.0 + 2.0j])),
    lambda: ml_eval(0.5, 1.0, -1.0 + 2.0j),
    lambda: ml_eval_many(0.5, 1.0, ["a"]),
    lambda: ml_bound_fit(0.5, 1.0, [1.0 + 1.0j, 2.0]),
    lambda: SampledFunction.from_table([0.0, 1.0], [1.0j, 2.0]),
    lambda: SampledFunction.from_table([0.0, 1.0], [[1.0, 2.0], [3.0]]),
    lambda: assemble(_basic_spec(0.5), solve_eigen(0.5, 4), 2,
                     np.linspace(0.0, 1.0, 9) + 0j, [0.5]),
    lambda: assemble(_basic_spec(0.5), solve_eigen(0.5, 4), 2,
                     np.linspace(0.0, 1.0, 9), [0.5 + 0j]),
    lambda: mode_solution(ModeODE(1, 0.6, 3.0, 1.0, None, _W), [0.5 + 0j]),
    lambda: mode_solution_alt(ModeODE(1, 0.6, 3.0, 1.0, None, _W),
                              [0.5 + 0j]),
    lambda: solve_eigen(0.5, 4).basis_matrix(np.array([0.5 + 1.0j])),
    lambda: solve_eigen(0.5, 4).eigen_eval(1, 0.5 + 1.0j),
    lambda: _compare_at(np.array([0.5 + 0j])),
    lambda: hb_caputo(np.sin, 0.6, _W, np.array([0.5, 0.6])),
    lambda: hb_caputo(np.sin, 0.6, _W, "0.5"),
    lambda: hb_caputo(np.sin, 0.6, _W, np.complex128(0.5)),
    lambda: hb_caputo(np.sin, 0.6, None, 0.5),
    lambda: graded_grid("1", 4, 2.0),
    # t > a, but t^p - a^p == 0 in doubles
    lambda: hb_caputo(np.sin, 0.5, TimeWarp(0.99, 1.0), _NEXT1),
    lambda: hb_caputo(np.sin, 0.5, TimeWarp(0.99, 1.0), _NEXT1, warped=True),
    lambda: ProblemSpec(0.6, 0.99, 0.5, 1.0, _NEXT1, _quadratic),
], ids=["solve_eigen-K", "solve_eigen-mesh", "bessel_eigen-K", "FDMesh-nx", "FDMesh-nt",
        "hb_caputo-n", "hb_caputo-t-inf", "hb_caputo-t-nan",
        "graded_grid-length", "graded_grid-n", "hb_caputo-alpha-None",
        "fourier_coeff-k", "eigen_eval-k", "mode-k", "assemble-K-float",
        "assemble-K-str", "ml_eval_many-alpha-str", "ml_eval-beta-None",
        "ml_bound_fit-alpha-str", "ml_bound_fit-beta-None",
        "solve_eigen-K-bool", "ml_eval_many-z-complex", "ml_eval-z-complex",
        "ml_eval_many-z-str", "ml_bound_fit-samples-complex",
        "from_table-values-complex", "from_table-values-ragged",
        "assemble-x-complex", "assemble-t-complex", "mode_solution-t-complex",
        "mode_solution_alt-t-complex", "basis_matrix-x-complex",
        "eigen_eval-x-complex", "compare-t_subset-complex",
        "hb_caputo-t-array", "hb_caputo-t-str", "hb_caputo-t-complex",
        "hb_caputo-warp-None", "graded_grid-length-str",
        "hb_caputo-s-zero", "hb_caputo-s-zero-warped", "ProblemSpec-s-zero"])
def test_public_counts_and_scalars_are_domain_errors(call):
    # these once raised TypeError, SciPy's ValueError, AttributeError,
    # returned NaN, blamed f for a bad t, cut a mesh of 256.9 cells to 256,
    # gave an evaluator of mode 2.5 that failed when called, or ran on the
    # real parts of complex input
    with pytest.raises(DomainError) as exc:
        call()
    assert "f must be finite" not in str(exc.value)


@pytest.mark.parametrize("call", [
    lambda: TimeWarp("0"),
    lambda: TimeWarp(0.3, None),
    lambda: TimeWarp(-math.inf),
    lambda: ModeODE(1, "0.5", 1.0, 1.0, None, _W),
    lambda: ModeODE(1, 0.5, 1.0, math.nan, None, _W),
    lambda: ModeODE(1, 0.5, math.inf, 1.0, None, _W),
    lambda: ModeODE(1, 0.5, 1.0, 1.0, None, None),
    lambda: graded_grid(1.0, 4, math.nan),
    lambda: ModeODE("x", 0.5, 1.0, 1.0, None, _W),
    lambda: SeparableSource("abc", 1.0),
    lambda: SeparableSource(None, 1.0),
], ids=["TimeWarp-theta-str", "TimeWarp-a-None", "TimeWarp-theta-inf",
        "ModeODE-alpha-str", "ModeODE-phi-nan",
        "ModeODE-lambda-inf", "ModeODE-warp-None", "graded_grid-exponent-nan",
        "ModeODE-k-str", "SeparableSource-fx-str", "SeparableSource-fx-None"])
def test_public_dataclass_scalars_are_domain_errors(call):
    # these once raised TypeError, or were accepted and later gave SciPy's
    # ValueError, NaN nodes, a NaN mode or a TypeError inside assemble
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("phi,f,name", [
    (lambda x: np.full_like(x, np.inf), None, "phi"),
    (_quadratic, SeparableSource(lambda x: np.cos(np.inf * x), 1.0), "f"),
    (_quadratic, SeparableSource(np.sin, lambda t: np.cos(np.inf * t)), "f"),
    (_quadratic, lambda x, t: np.full_like(x, np.nan), "f"),
], ids=["phi", "f-space", "f-time", "f-general"])
def test_assemble_names_non_finite_data_before_mode_work(eig, monkeypatch,
                                                          phi, f, name):
    # the residual's hb_caputo used to find such data after the whole
    # solve, and blamed f for a bad phi
    def no_mode_work(*args, **kwargs):
        raise AssertionError("mode work ran on non-finite data")

    monkeypatch.setattr(solver, "_modes_values", no_mode_work)
    spec = ProblemSpec(0.6, 0.3, 0.5, 0.0, 1.0, phi, f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            assemble(spec, eig(0.5, 4), 4, np.linspace(0.0, 1.0, 9),
                     np.array([0.5, 1.0]))


@pytest.mark.parametrize("beta,residual", [(0.5, residual_strong),
                                           (1.5, residual_weak)])
def test_residuals_refuse_a_non_finite_value(eig, beta, residual):
    # a NaN residual was reported, and the CLI wrote null and exited 0
    spec, fld = _forced_field(eig, 16, beta)
    fld.mode_lambdas = np.full(fld.K, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ResolutionError, match="not finite"):
            residual(fld, spec)


def test_tail_covers_the_whole_time_interval(eig):
    # cos(pi t) vanishes at the midpoint of [0, 1], where the source
    # projection defect was once taken; on [0, 1] it reaches 1 at t = 0
    from degenfrac import cli
    warp = TimeWarp(0.0, 0.0)
    f = cli.source_expr("sep:one|cos:3.141592653589793", warp)
    spec = ProblemSpec(0.6, 0.0, 0.5, 0.0, 1.0, cli.space_expr("zero"), f)
    xg, tg = np.linspace(0.0, 1.0, 65), np.linspace(1.0 / 16, 1.0, 16)
    fld = assemble(spec, eig(0.5, 4), 4, xg, tg)
    assert fld.diagnostics["tail_estimate_l2"] > 1e-3
    # the tabulated route takes the largest defect over its time table;
    # for a separable source that is sup |ft| times the defect of fx.
    # sin(3t) peaks inside (0, 1)
    sep = cli.source_expr("sep:one|sin:3", warp)
    defects = [assemble(ProblemSpec(0.6, 0.0, 0.5, 0.0, 1.0,
                                    cli.space_expr("zero"), src),
                        eig(0.5, 4), 4, xg, tg)
               .diagnostics["source_projection_defect_l2"]
               for src in (sep, lambda x, t: sep(x, t))]
    assert defects[1] == pytest.approx(defects[0], rel=1e-12)


@pytest.mark.parametrize("case", ["separable", "constant", "none",
                                  "tabulated", "alpha1", "a>0"])
def test_residual_table_starts_at_mode_phi(eig, case):
    # the residual's mode table at s = 0 is the projection of phi, bit for
    # bit, with no overwrite: E_{alpha,1}(0) = 1 and no source term adds
    fx = lambda x: np.sin(np.pi * x)
    f = {"separable": SeparableSource(fx, np.cos),
         "constant": SeparableSource(fx, 2.0), "none": None,
         "tabulated": lambda x, t: fx(x) * (1.0 + t)}.get(
             case, SeparableSource(fx, np.cos))
    spec = _basic_spec(0.5, f=f, alpha=1.0 if case == "alpha1" else 0.6,
                       a=0.2 if case == "a>0" else 0.0)
    fld = assemble(spec, eig(0.5, 4), 4, np.linspace(0.0, 1.0, 9),
                   np.linspace(0.25, 1.0, 4), conv_cells=16)
    u = solver._mode_interpolants(fld, spec, dense_n=64)
    assert np.array_equal(u(0.0), fld.mode_phi)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
def test_no_solver_path_takes_the_point_by_point_ml_route(eig, alpha, monkeypatch):
    # the solver's kernels (alpha <= 1, z <= 0, beta <= 2 alpha + 2) are all
    # served by whole rows: the convolution by the ratio tables at every
    # alpha, the phi and start terms by the contour rule below alpha = 1
    # and by the closed forms at alpha = 1
    def refuse(*args):
        raise AssertionError(f"point-by-point Mittag-Leffler route at {args}")

    monkeypatch.setattr(special, "_ml_scalar", refuse)
    fx = lambda x: np.sin(np.pi * x)
    sources = (None, SeparableSource(fx, 2.0), SeparableSource(fx, np.cos),
               lambda x, t: fx(x) * (1.0 + t))
    xg, tg = np.linspace(0.0, 1.0, 9), np.linspace(0.3, 1.3, 4)
    for beta, residual in ((0.5, residual_strong), (1.4, residual_weak)):
        for f in sources:
            spec = _basic_spec(beta, f=f, alpha=alpha, a=0.2, T=1.3)
            fld = assemble(spec, eig(beta, 4), 4, xg, tg, conv_cells=16)
            residual(fld, spec)
    warp = TimeWarp(0.3, 0.2)
    for src in (None, 1.5, np.cos):
        mode_solution_alt(ModeODE(1, alpha, 7.0, 0.4, src, warp), tg)


# ---------------------------------------------------------------------------
# A CLI time factor's convolution node sums and the residual's L1
# moments, memoized by value


def _cache_counts():
    """(hits, misses) of the CLI time factors' convolution node sums and of
    the residual's L1 moments."""
    return [(c.hits, c.misses) for c in (solver._factor_sums.cache_info(),
                                         fracops._l1_moments.cache_info())]


def _clear_time_caches():
    solver._factor_sums.cache_clear()
    fracops._l1_moments.cache_clear()


def _library_sin3(t):
    return np.sin(3.0 * t)


def _cli_solve(tmp_path, name, beta):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"beta = {beta}\nmodes = 2\nf = sep:one|sin:3\n")
    out = tmp_path / name
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    return [(out / n).read_bytes() for n in ("solution.csv",
                                             "diagnostics.json")]


_BASE_SETUP = dict(alpha=0.6, theta=0.3, a=0.0, T=1.0,
                   t_grid=np.linspace(0.25, 1.0, 4), conv_cells=128)


def _setup_solve(eig, setup, beta=0.5):
    """assemble at K = 2 with f = one * ft on a time setup, and its
    strong residual (beta < 1).  setup["ft"] is the CLI grammar's text of
    the time factor (sin:3 if absent) or a library callable."""
    setup = dict(setup)
    t_grid, conv_cells = setup.pop("t_grid"), setup.pop("conv_cells")
    ft = setup.pop("ft", "sin:3")
    warp = TimeWarp(setup["theta"], setup["a"])
    f = (cli.source_expr(f"sep:one|{ft}", warp) if isinstance(ft, str)
         else SeparableSource(lambda x: np.ones_like(x), ft))
    spec = _basic_spec(beta, f=f, **setup)
    fld = assemble(spec, eig(beta, 2), 2, np.linspace(0.0, 1.0, 9), t_grid,
                   conv_cells=conv_cells)
    return fld, residual_strong(fld, spec)


def _solve_bytes(solved) -> list:
    """The values, mode values and residual of a _setup_solve, as bytes."""
    fld, rep = solved
    return [fld.values.tobytes(), fld.mode_values.tobytes(),
            rep.per_test.tobytes(),
            np.array([rep.sup_abs, rep.scale]).tobytes()]


def test_a_beta_sweep_reads_both_time_tables_from_the_caches(tmp_path, eig):
    # a beta sweep keeps (alpha, theta, a, T, t_grid, conv_cells) and the
    # source: its second solve finds the residual's L1 moments cached.  The
    # CLI's sin:3 is a value, whose node sums of the output times and of
    # the residual's dense table _factor_sums keeps (alpha and the kernel
    # are the same); a library lambda's convolution reaches no memo and
    # forms its times per row block
    def cli_solve(name, beta):
        return _cli_solve(tmp_path, name, beta)

    def library_solve(name, beta):
        return _solve_bytes(_setup_solve(
            eig, dict(_BASE_SETUP, ft=_library_sin3), beta))

    for solve, sum_hits in ((cli_solve, 2), (library_solve, 0)):
        _clear_time_caches()
        solve("first", 0.3)
        before = _cache_counts()
        warm = solve("warm", 0.5)
        assert _cache_counts() == [(before[0][0] + sum_hits, before[0][1]),
                                   (before[1][0] + 1, before[1][1])]
        if not sum_hits:
            assert before[0] == (0, 0)  # the factor memo is not reached
        _clear_time_caches()
        assert warm == solve("cold", 0.5)


def _assert_misses(eig, base, name, value, moments_miss):
    """Once base[name] is value, a solve on base misses the factor memo if
    its time factor is the CLI grammar's text and reaches no convolution
    memo if it is a library callable, misses the L1 moments as moments_miss
    says, and matches a solve on cleared caches bit for bit."""
    _clear_time_caches()
    _setup_solve(eig, base)
    before = _cache_counts()
    got = _setup_solve(eig, dict(base, **{name: value}))
    after = _cache_counts()
    if isinstance(base["ft"], str):
        assert after[0][1] > before[0][1]
    else:
        assert after[0] == before[0] == (0, 0)
    assert after[1][1] == before[1][1] + moments_miss
    _clear_time_caches()
    ref = _setup_solve(eig, dict(base, **{name: value}))
    assert _solve_bytes(got) == _solve_bytes(ref)


@pytest.mark.parametrize("name,value", [
    ("alpha", 0.8), ("theta", -0.5), ("a", 0.1), ("T", 1.5),
    ("t_grid", np.linspace(0.3, 1.0, 4)), ("conv_cells", 64)])
def test_a_new_time_setup_misses_the_caches(eig, name, value):
    # each field of the time setup enters the keys of the CLI's sin:3
    # (_factor_sums) and of the L1 moments, which do not depend on the
    # convolution's cells; a library lambda reaches no convolution memo
    for ft in ("sin:3", _library_sin3):
        _assert_misses(eig, dict(_BASE_SETUP, ft=ft), name, value,
                       name != "conv_cells")


@pytest.mark.parametrize("ft,name,value", [
    ("sin:3", "ft", "sin:4"), ("spow:0.5", "theta", -0.5)])
def test_a_new_cli_time_factor_misses_the_slope_memo(eig, ft, name, value):
    # a CLI time factor's numbers enter the memo's key (the L1 moments do
    # not depend on the source), and spow's warp changes with theta
    _assert_misses(eig, dict(_BASE_SETUP, ft=ft), name, value, name != "ft")


def test_a_writing_time_factor_is_served(eig):
    # a time factor that writes into its argument is refused the write,
    # and _eval_vec's fallback serves it point by point, so no later step
    # reads clobbered times.  The norms' time grid once took such a write,
    # and read NaN
    def writing(t):
        t = np.asarray(t)
        out = t * (2.0 - t)
        t *= 0.0
        return out

    fields = []
    for ft in (lambda t: t * (2.0 - t), writing, writing):
        spec = _basic_spec(0.5, f=SeparableSource(np.ones_like, ft))
        fld = assemble(spec, eig(0.5, 2), 2, np.linspace(0.0, 1.0, 9),
                       np.linspace(0.25, 1.0, 4), conv_cells=16)
        rep = residual_strong(fld, spec)
        fields.append((fld.values, rep.sup_abs, rep.t_samples,
                       fld.diagnostics["norms"]))
    for values, sup_abs, t_samples, norms in fields[1:]:
        assert np.array_equal(values, fields[0][0])
        assert sup_abs == fields[0][1]
        assert np.array_equal(t_samples, fields[0][2])
        assert norms == fields[0][3]


def test_the_time_caches_hold_their_declared_keys(eig):
    assert solver._factor_sums.cache_info().maxsize == 2
    assert fracops._l1_moments.cache_info().maxsize == 1
    for ft in ("sin:3", _library_sin3):
        for T in (1.0, 1.1, 1.2):
            for conv_cells in (16, 32):
                _setup_solve(eig, dict(_BASE_SETUP, T=T,
                                       conv_cells=conv_cells, ft=ft))
                assert solver._factor_sums.cache_info().currsize <= 2
                assert fracops._l1_moments.cache_info().currsize <= 1


def test_the_factor_memo_holds_the_read_only_node_sums():
    # the memo holds the x-free half of the convolution, per kernel of
    # its key (the split form's two B here, both live) special's
    # _ml_node_sums of the factor's slope differences w, read only and
    # target by target; on each _conv_rows block it is bit for bit that of
    # a library factor of the same expression.  A kernel that is not live
    # holds only the whole sum of its _ml_node_sums
    warp = TimeWarp(0.3, 0.0)
    S = warp_forward(warp, np.linspace(0.01, 1.0, 300))
    n, alpha, Bs = 128, 0.6, (2.6, 3.2)
    ft = cli.time_expr("sin:3", warp)
    memo = solver._factor_sums(ft, warp, n, S.tobytes(), alpha,
                               tuple((B, True) for B in Bs))
    split = solver._factor_sums(ft, warp, n, S.tobytes(), alpha,
                                ((2.6, False), (3.2, True)))
    assert len(split[0]) == 1 and not split[0][0].flags.writeable
    frac = np.linspace(0.0, 1.0, n + 1) ** 2
    ratios = tuple(1.0 - frac)
    rows = solver._conv_rows(n)
    assert rows == 127  # three row blocks, the last of 46 targets
    assert len(memo) == len(Bs)
    for node in memo:
        for a in node:
            assert a.shape[-1] == S.size and not a.flags.writeable
        assert len(node) > 3  # rest, whole and several bands
    for lo in range(0, S.size, rows):
        Sb = S[lo:lo + rows]
        w = solver._slope_diffs(
            _library_sin3(solver._block_times(warp, Sb, frac))[None], Sb,
            frac)
        for node, B in zip(memo, Bs, strict=True):
            ref = special._ml_node_sums(alpha, B, w, ratios)
            for got, want in zip(node, ref, strict=True):
                assert got[..., lo:lo + rows].tobytes() == want.tobytes()
        whole = special._ml_node_sums(alpha, 2.6, w, ratios)[1]
        assert split[0][0][..., lo:lo + rows].tobytes() == whole.tobytes()
    for got, want in zip(split[1], memo[1], strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("theta", [0.3, -0.5])
@pytest.mark.parametrize("alpha", [0.6, 1.0])
def test_the_split_forms_x_free_kernel_runs_no_band_gemm(monkeypatch, alpha,
                                                         theta):
    # the split form's kernel P_{alpha+2} has x = 0 on every row, where
    # _ml_finish gives the exact-value sum alone, so its band GEMMs ran for
    # nothing: only the live kernel P_{2 alpha + 2} runs them, and the
    # values keep the bits they had when the whole sum came from
    # _ml_node_sums, for a CLI time factor and a library callable
    warp = TimeWarp(theta, 0.0)
    tg = np.linspace(0.01, 1.0, 300)
    seen = []

    def ml_node_sums(al, B, coef, c):
        seen.append(B)
        return special._ml_node_sums(al, B, coef, c)

    def whole_by_bands(B, coef, c):
        return special._ml_node_sums(alpha, B, coef, c)[1]

    for f in (cli.time_expr("sin:3", warp), _library_sin3):
        ode = ModeODE(1, alpha, 40.0, 0.7, f, warp)
        with monkeypatch.context() as m:
            m.setattr(solver, "_ml_node_sums", ml_node_sums)
            got = mode_solution_alt(ode, tg).values
        assert seen and set(seen) == {2.0 * alpha + 2.0}
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(solver, "_ml_exact_sums", whole_by_bands)
            want = mode_solution_alt(ode, tg).values
        assert got.tobytes() == want.tobytes()


def test_a_mutable_library_time_factor_is_read_afresh(eig):
    # nothing is keyed on a callable's identity: a library time factor
    # that closes over a mutable array, changed between two assemblies on
    # one time setup, gives the new field, that of a solve on cleared caches
    amp = np.array([3.0])
    setup = dict(_BASE_SETUP, ft=lambda t: np.sin(amp[0] * t))
    first = _solve_bytes(_setup_solve(eig, setup))
    amp[0] = 4.0
    got = _solve_bytes(_setup_solve(eig, setup))
    assert got[0] != first[0]
    _clear_time_caches()
    assert got == _solve_bytes(_setup_solve(eig, setup))


def test_only_a_cli_time_factor_enters_the_slope_memo(eig):
    # a library lambda, a tabulated time factor and a general f(x, t) form
    # their times per row block: the memo's keys and counts do not move
    _setup_solve(eig, _BASE_SETUP)
    info = solver._factor_sums.cache_info()
    assert info.currsize == 2
    table = SampledFunction.from_table(np.linspace(0.0, 1.0, 33),
                                       np.sin(3.0 * np.linspace(0.0, 1.0, 33)))
    for f in (SeparableSource(np.ones_like, _library_sin3),
              SeparableSource(np.ones_like, table),
              lambda x, t: np.ones_like(x) * np.sin(3.0 * t)):
        spec = _basic_spec(0.5, f=f)
        fld = assemble(spec, eig(0.5, 2), 2, np.linspace(0.0, 1.0, 9),
                       _BASE_SETUP["t_grid"])
        residual_strong(fld, spec)
        assert solver._factor_sums.cache_info() == info
