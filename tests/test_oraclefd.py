"""Finite-volume / L1 reference solver and field comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenfrac.errors import DomainError, ResolutionError, SolverError
from degenfrac.fracops import warp_forward
from degenfrac.oraclefd import (_BLOCK, FDMesh, _transmissibilities, compare,
                                fd_solve)
from degenfrac.solver import ProblemSpec, SeparableSource, SolutionField, assemble
from degenfrac.special import ml_eval


def test_mesh_build_defaults():
    m = FDMesh.build(0.5, 0.6, 1.0, nx=64, nt=32)
    assert m.nx == 64 and m.nt == 32
    assert m.x[0] == 0.0 and m.x[-1] == 1.0
    assert m.s[0] == 0.0 and m.s[-1] == pytest.approx(1.0)
    assert np.all(np.diff(m.x) > 0) and np.all(np.diff(m.s) > 0)
    # grading compresses toward the degenerate endpoint / startup layer
    assert m.x[1] < 1.0 / 64
    assert m.s[1] < 1.0 / 32


def test_mesh_build_validation():
    with pytest.raises(ResolutionError):
        FDMesh.build(0.5, 0.6, 1.0, nx=4, nt=32)
    with pytest.raises(ResolutionError):
        FDMesh.build(0.5, 0.6, 1.0, nx=64, nt=2)
    with pytest.raises(DomainError):
        FDMesh.build(0.5, 0.6, 0.0)


@pytest.mark.parametrize("beta,alpha", [
    (0.5, 0.0),   # once ZeroDivisionError
    (0.5, 1.5),   # once a mesh
    (0.5, -0.3),
    (0.5, math.nan),
    (1.0, 0.6),   # once a mesh
    (2.5, 0.6),   # once "x nodes must increase"
    (0.0, 0.6),
    (math.nan, 0.6),
])
def test_mesh_build_validates_alpha_and_beta_as_the_spec_does(beta, alpha):
    with pytest.raises(DomainError) as mesh_err:
        FDMesh.build(beta, alpha, 1.0, nx=64, nt=32)
    with pytest.raises(DomainError) as spec_err:
        ProblemSpec(alpha, 0.3, beta, 0.0, 1.0, lambda x: x)
    assert type(mesh_err.value) is type(spec_err.value)


def test_mesh_array_validation():
    good_x = np.linspace(0.0, 1.0, 9)
    good_s = np.linspace(0.0, 1.0, 9)
    with pytest.raises(DomainError):
        FDMesh(good_x[::-1].copy(), good_s, 1.0, 1.0)
    with pytest.raises(DomainError):
        FDMesh(good_x + 0.1, good_s, 1.0, 1.0)  # does not start at 0
    with pytest.raises(DomainError):
        FDMesh(good_x * 0.5, good_s, 1.0, 1.0)  # does not end at 1
    with pytest.raises(DomainError):
        FDMesh(good_x, good_s[:2], 1.0, 1.0)


def _spec(beta, phi, f=None, alpha=0.6, theta=0.3, a=0.0, T=1.0):
    return ProblemSpec(alpha, theta, beta, a, T, phi, f)


def test_zero_data_stays_zero():
    spec = _spec(0.5, lambda x: 0.0 * np.asarray(x))
    fld = fd_solve(spec, FDMesh.build(0.5, 0.6, 1.0, nx=32, nt=16))
    assert np.max(np.abs(fld.values)) == 0.0
    assert fld.diagnostics["method"] == "fd_l1_fv"


def test_first_row_is_initial_profile():
    spec = _spec(1.5, lambda x: np.asarray(x) * (1.0 - np.asarray(x)))
    mesh = FDMesh.build(1.5, 0.6, 1.0, nx=48, nt=16)
    fld = fd_solve(spec, mesh)
    assert fld.t_grid[0] == 0.0
    inner = slice(1, -1)
    x = fld.x_grid[inner]
    assert np.max(np.abs(fld.values[0, inner] - x * (1.0 - x))) <= 1e-9
    assert fld.values[0, -1] == 0.0


def test_sup_norm_never_grows():
    spec = _spec(0.5, lambda x: np.sin(np.pi * np.asarray(x)))
    fld = fd_solve(spec, FDMesh.build(0.5, 0.6, 1.0, nx=96, nt=64))
    peaks = np.max(np.abs(fld.values), axis=1)
    assert np.all(np.diff(peaks) <= 1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.5])
def test_single_mode_matches_relaxation_kernel(beta, eig):
    sys = eig(beta, 1)
    lam = float(sys.lambdas[0])
    spec = _spec(beta, lambda x: sys.eigen_eval(1, x)[0])
    mesh = FDMesh.build(beta, spec.alpha, warp_forward(spec.warp, spec.T),
                        nx=160, nt=160)
    fld = fd_solve(spec, mesh)
    sT = warp_forward(spec.warp, spec.T)
    amp = ml_eval(spec.alpha, 1.0,
                  -lam / spec.warp.p ** spec.alpha * sT ** spec.alpha)
    inner = fld.x_grid[1:-1]
    ref = amp * sys.eigen_eval(1, inner)[0]
    err = np.max(np.abs(fld.values[-1, 1:-1] - ref))
    assert err <= 5e-3 * np.max(np.abs(ref))


def test_alpha_one_is_backward_euler_heat(eig):
    # exact solution decays by e^{-lam}; time error is first order, so
    # check the halving under refinement rather than a tight one-off value
    sys = eig(0.5, 1)
    lam = float(sys.lambdas[0])
    spec = ProblemSpec(1.0, 0.0, 0.5, 0.0, 1.0,
                       lambda x: sys.eigen_eval(1, x)[0])
    errs = []
    for nx, nt in ((160, 256), (320, 512)):
        fld = fd_solve(spec, FDMesh.build(0.5, 1.0, 1.0, nx=nx, nt=nt))
        ref = math.exp(-lam) * sys.eigen_eval(1, fld.x_grid[1:-1])[0]
        errs.append(np.max(np.abs(fld.values[-1, 1:-1] - ref)))
    assert errs[1] <= 0.6 * errs[0]
    assert errs[1] <= 4e-4


def test_nonzero_start_matches_relaxation_kernel(eig):
    sys = eig(0.5, 1)
    lam = float(sys.lambdas[0])
    spec = _spec(0.5, lambda x: sys.eigen_eval(1, x)[0],
                 alpha=0.5, theta=0.3, a=0.5, T=1.5)
    S = warp_forward(spec.warp, spec.T)
    fld = fd_solve(spec, FDMesh.build(0.5, 0.5, S, nx=128, nt=128))
    amp = ml_eval(0.5, 1.0, -lam / spec.warp.p ** 0.5 * S ** 0.5)
    ref = amp * sys.eigen_eval(1, fld.x_grid[1:-1])[0]
    err = np.max(np.abs(fld.values[-1, 1:-1] - ref))
    assert fld.t_grid[0] == pytest.approx(0.5)
    assert fld.t_grid[-1] == pytest.approx(1.5)
    assert err <= 1e-2 * np.max(np.abs(ref))


def test_manufactured_solution_refines():
    # u = s^2 sin(pi x): source assembled from the two operator pieces
    beta, alpha, theta = 0.75, 0.6, 0.2
    p = 1.0 - theta
    c_t = p ** alpha * 2.0 / math.gamma(3.0 - alpha)

    def u_exact(x, s):
        return s * s * np.sin(np.pi * x)

    def f(x, t):
        s = t ** p
        xt = np.asarray(x, dtype=float)
        spat = (np.pi ** 2 * xt ** beta * np.sin(np.pi * xt)
                - np.pi * beta * xt ** (beta - 1.0) * np.cos(np.pi * xt))
        return np.sin(np.pi * xt) * c_t * s ** (2.0 - alpha) + s * s * spat

    spec = ProblemSpec(alpha, theta, beta, 0.0, 1.0,
                       lambda x: 0.0 * np.asarray(x), f)
    errs = []
    for n in (64, 128):
        fld = fd_solve(spec, FDMesh.build(beta, alpha, 1.0, nx=n, nt=n))
        ref = u_exact(fld.x_grid, 1.0)
        errs.append(np.max(np.abs(fld.values[-1] - ref)))
    assert errs[1] <= 0.55 * errs[0]  # at least first-order refinement
    assert errs[1] <= 5e-3


def _full_history_march(spec, mesh):
    """Reference L1 march on the same mesh: dense stiffness, scalar L1
    weights and the history sum re-formed from the whole field each step.
    At alpha = 1 every history weight is 0: backward Euler."""
    x, s = mesh.x, mesh.s
    p, al = spec.warp.p, spec.alpha
    e, c = 1.0 - al, math.gamma(2.0 - al)
    tau = _transmissibilities(spec.beta, x)
    h = np.diff(x)
    omega = np.concatenate(([h[0]], h[:-1] + h[1:], [h[-1]])) / 2.0
    A = np.zeros((x.size, x.size))
    for i, t in enumerate(tau):  # face i couples nodes i and i + 1
        A[i:i + 2, i:i + 2] += t * np.array([[1.0, -1.0], [-1.0, 1.0]])
    A /= omega[:, None]
    inner = slice(1 if spec.beta < 1.0 else 0, x.size - 1)
    A = A[inner, inner]
    xe = x.copy()
    xe[0] = x[1] * 1e-6
    xe[-1] = 1.0 - h[-1] * 1e-6
    t_nodes = s ** (1.0 / p)
    u = np.zeros((s.size, x.size))
    u[0, inner] = spec.phi(xe)[inner]
    for n in range(1, s.size):
        g = []
        for j in range(n):
            d, dj = s[n] - s[j], s[j + 1] - s[j]
            # d^e - (d - dj)^e, written to survive thin graded cells
            b = dj ** e if j == n - 1 else -d ** e * math.expm1(e * math.log1p(-dj / d))
            g.append(b / (dj * c))
        hist = sum(g[j] * (u[j + 1] - u[j]) for j in range(n - 1))
        rhs = p ** al * (g[-1] * u[n - 1] - hist) + spec.f(xe, t_nodes[n])
        M = A + p ** al * g[-1] * np.eye(A.shape[0])
        u[n, inner] = np.linalg.solve(M, rhs[inner])
    return u


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
@pytest.mark.parametrize("beta", [0.5, 1.5])
@pytest.mark.parametrize("separable", [False, True])
def test_march_matches_full_history_reference(alpha, beta, separable):
    def fx(x):
        return np.cos(2.0 * np.asarray(x))

    def ft(t):
        return 1.0 + math.sin(5.0 * t)

    f = SeparableSource(fx, ft) if separable else (lambda x, t: fx(x) * ft(t))
    spec = _spec(beta, lambda x: np.asarray(x) * (1.0 - np.asarray(x)) + 0.5,
                 f, alpha=alpha)
    S = warp_forward(spec.warp, spec.T)
    # nt = 24 is one partial block of steps; 2 * _BLOCK + 5 is two full
    # blocks and a partial one
    for nx, nt in ((32, 24), (16, 2 * _BLOCK + 5)):
        mesh = FDMesh.build(beta, alpha, S, nx=nx, nt=nt)
        got = fd_solve(spec, mesh).values
        ref = _full_history_march(spec, mesh)
        assert np.max(np.abs(got - ref)) <= 1e-13, (nx, nt)


def test_non_finite_source_is_solver_error():
    spec = _spec(0.5, lambda x: np.asarray(x) * (1.0 - np.asarray(x)),
                 lambda x, t: np.full(np.shape(x), np.nan))
    with pytest.raises(SolverError):
        fd_solve(spec, FDMesh.build(0.5, 0.6, 1.0, nx=16, nt=8))


@pytest.mark.parametrize("weak", [False, True])
@given(beta_pos=st.floats(0.0, 1.0), alpha=st.floats(0.3, 0.9),
       c0=st.floats(0.1, 2.0), c1=st.floats(-2.0, 2.0), c2=st.floats(0.0, 1.0))
@settings(max_examples=5, derandomize=True, deadline=None)
def test_spectral_matches_fd_on_random_smooth_data(eig, weak, beta_pos, alpha,
                                                   c0, c1, c2):
    # phi vanishes at x = 1, and at x = 0 too where beta < 1 asks for it.
    # On 256 x 256 the worst of 80 random draws over these ranges was 2.7e-3.
    beta = 1.2 + 0.5 * beta_pos if weak else 0.2 + 0.6 * beta_pos

    def phi(x):
        return (1.0 - x) * (c0 + c1 * x) * (1.0 if weak else x)

    spec = ProblemSpec(alpha, 0.3, beta, 0.0, 1.0, phi,
                       SeparableSource(lambda x: np.ones_like(x), c2))
    fd = fd_solve(spec, FDMesh.build(beta, alpha, warp_forward(spec.warp, 1.0),
                                     nx=256, nt=256))
    ref = assemble(spec, eig(beta, 16), 16, fd.x_grid, np.array([1.0]))
    assert compare(fd, ref, t_subset=[1.0]).l2_rel[0] <= 1e-2


def _tiny_field(tg):
    xg = np.linspace(0.0, 1.0, 5)
    vals = np.ones((len(tg), 5))
    return SolutionField(xg, np.asarray(tg, dtype=float), vals, 0,
                         "classical", {})


def test_compare_self_is_zero():
    fld = _tiny_field([0.0, 0.5, 1.0])
    rep = compare(fld, fld)
    assert rep.max_l2_rel == 0.0 and rep.max_sup_rel == 0.0
    assert rep.t.shape == (3,)


def test_compare_validation():
    a = _tiny_field([0.0, 0.5, 1.0])
    b = _tiny_field([2.0, 3.0])
    with pytest.raises(DomainError):
        compare(a, b)
    with pytest.raises(DomainError):
        compare(a, a, t_subset=[5.0])


def test_compare_interpolates_between_grids():
    a = _tiny_field([0.0, 1.0])
    xg = np.linspace(0.0, 1.0, 9)
    b = SolutionField(xg, np.array([0.0, 1.0]), 2.0 * np.ones((2, 9)), 0,
                      "classical", {})
    rep = compare(a, b)
    assert rep.max_sup_rel == pytest.approx(1.0)
    assert rep.max_l2_rel == pytest.approx(1.0)


def test_compare_reads_other_between_and_near_its_rows():
    # t = 0.25 lies between other's rows 0 and 1: the linear blend; t = 1 +
    # 1e-10 lies within 1e-9 past row 1: row 1 itself, not a blend that
    # would carry 1e-10 of row 2's 1000
    xg = np.linspace(0.0, 1.0, 5)
    r0, r1, r2 = 4.0 * np.arange(1.0, 6.0), 4.0 * np.arange(5.0), np.full(5, 1e3)
    other = SolutionField(xg, np.array([0.0, 1.0, 2.0]),
                          np.stack((r0, r1, r2)), 0, "classical", {})
    ref = SolutionField(xg, np.array([0.25, 1.0 + 1e-10]),
                        np.stack((0.75 * r0 + 0.25 * r1, r1)), 0,
                        "classical", {})
    rep = compare(ref, other)
    assert np.array_equal(rep.t, ref.t_grid)
    assert np.all(rep.l2_rel == 0.0) and np.all(rep.sup_rel == 0.0)


def test_compare_refuses_to_extrapolate():
    # other must cover the reference's x-range: no silently clamped ends
    ref = _tiny_field([0.0, 1.0])
    inner = SolutionField(np.linspace(0.1, 0.9, 9), np.array([0.0, 1.0]),
                          np.ones((2, 9)), 0, "classical", {})
    with pytest.raises(DomainError):
        compare(ref, inner)
    assert compare(inner, ref).max_l2_rel == 0.0
