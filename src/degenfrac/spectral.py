"""Degenerate Sturm-Liouville eigenproblem -(x^beta v')' = lambda v on (0, 1).

The diffusion coefficient x^beta vanishes at the left endpoint, which makes
the boundary-condition set depend on beta: for 0 < beta < 1 the problem takes
Dirichlet conditions at both ends, while for 1 < beta < 2 no condition at
x = 0 is needed (the finite-energy requirement selects the bounded branch).

Two independent eigenpair routes are provided: a weighted P1 Galerkin
discretization on a graded mesh, and a closed form built from Bessel
functions (`_bessel_mode_eval` is the one place that writes it), whose
modes are checked to vanish at x = 1.

Projections and L2 inner products on a mesh take one quadrature, the
projection rule (`_gauss_rule`).  The Galerkin mass matrix is the hats'
Gram matrix under it, so the Galerkin eigenbasis is orthonormal under it
by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp
from scipy.linalg.lapack import dpttrf, dpttrs, dstemr

from .errors import (DegeneracyError, DomainError, ResolutionError, SolverError,
                     _check_count, _is_real)
from .special import _bessel_j_zeros

LEFT_DIRICHLET = "dirichlet_at_zero"
LEFT_NONE = "none_at_zero"

_DEFAULT_MESH_N = 2048
#: the finest mesh solve_eigen doubles up to when it is given none
_MESH_MAX = 16384


def _check_beta(beta: float) -> None:
    if not (_is_real(beta) and 0.0 < beta < 2.0):
        raise DomainError(f"beta must lie in (0, 2), got {beta!r}")
    if beta == 1.0:
        raise DegeneracyError("beta = 1 (log-degenerate case) is not supported")


@dataclass(frozen=True)
class BCDescriptor:
    """Boundary-condition dispatch for a given degeneracy exponent."""

    beta: float
    left_condition: str
    right_condition: str = "dirichlet_at_one"


def bc_requirements(beta: float) -> BCDescriptor:
    """Which boundary conditions the problem needs for this beta."""
    _check_beta(beta)
    if beta < 1.0:
        return BCDescriptor(beta, LEFT_DIRICHLET)
    return BCDescriptor(beta, LEFT_NONE)


def grading_exponent(beta: float) -> float:
    """The exponent q = 2/(2 - beta), capped at 20, of the graded x-meshes
    x_i = (i/n)^q of the eigensolver and of FDMesh.build.

    Past 20 the first cell's weight integral x1^{beta+1} underflows to zero
    (x1 = n^{-40} at beta = 1.95), leaving its stiffness row empty; the
    cap also fixes the mesh, and so the artifacts."""
    return min(2.0 / (2.0 - beta), 20.0)


def _exponent(beta: float) -> float:
    """1 for beta > 1, else 1 - beta: the hats are linear in y = x^e."""
    return 1.0 if beta > 1.0 else 1.0 - beta


def _mesh(beta: float, n: int) -> np.ndarray:
    """The graded mesh x_i = (i/n)^{grading_exponent} as y_i = x_i^e."""
    return np.linspace(0.0, 1.0, n + 1) ** (grading_exponent(beta)
                                            * _exponent(beta))


class EigenSystem:
    """First K eigenpairs, L2(0,1)-orthonormal, lambdas ascending.

    eigen_eval(k, x) returns (v_k(x), v_k'(x)) for 1-based k; x in (0, 1].
    Derivatives of eigenfunctions blow up at x = 0, so the evaluator is
    only guaranteed away from the degenerate endpoint.
    """

    def __init__(self, beta, lambdas, method_tag, payload):
        self.beta = float(beta)
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.method_tag = method_tag
        self._payload = payload
        self._rule = None  # the projection rule, see _gauss_rule

    @property
    def count(self) -> int:
        return self.lambdas.size

    def _check_k(self, k: int) -> None:
        _check_count("mode index", k)
        if k > self.count:
            raise DomainError(f"mode index must be in 1..{self.count}, got {k}")

    def eigen_eval(self, k: int, x):
        self._check_k(k)
        v, vp = self._rows(slice(k - 1, k), x)
        return v[0], vp[0]

    def _rows(self, rows: slice, x, deriv: bool = True):
        """(v, v') of the modes in rows at x, each of shape (modes,) +
        x.shape: one search of the mesh serves every mode.  With
        deriv=False, v alone."""
        x = np.asarray(x, dtype=float)
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise DomainError("evaluation points must lie in [0, 1]")
        col = (slice(None),) + (None,) * x.ndim  # one value per mode
        if self.method_tag == "bessel_closed_form":
            nu, zeros, coefs = self._payload
            return _bessel_mode_eval(self.beta, nu, zeros[rows][col],
                                     coefs[rows][col], x, deriv)
        e, ynodes, vecs, slopes = self._payload
        vecs, slopes = vecs[rows], slopes[rows]
        y = x ** e
        # linear interpolation as np.interp does it: cell j holds
        # ynodes[j] <= y < ynodes[j+1], and the last node takes its value
        j = np.searchsorted(ynodes, y, side="right") - 1
        idx = np.minimum(j, slopes.shape[1] - 1)
        vp = np.take(slopes, idx, axis=1)
        v = vp * (y - ynodes[idx])
        v += np.take(vecs, idx, axis=1)
        last = j > idx
        if np.any(last):
            v = np.where(last, vecs[:, -1][col], v)
        if not deriv:
            return v
        # v' = e x^{e-1} dv/dy: 1 for e = 1, unbounded at x = 0 for e < 1
        with np.errstate(divide="ignore"):
            vp *= e * x ** (e - 1.0)
        return v, vp

    def mode(self, k: int):
        """Convenience: a pair-evaluator x -> (v_k, v_k') for one mode."""
        self._check_k(k)
        return lambda x: self.eigen_eval(k, x)

    def basis_matrix(self, x) -> np.ndarray:
        """All eigenfunctions on x at once, shape (K, len(x))."""
        return self._rows(slice(None), x, deriv=False)


#: Gauss points per cell of the projection rule
_QUAD = 8
#: the Gauss-Legendre nodes as fractions of a cell, and their weights
_GL_T, _GL_W = np.polynomial.legendre.leggauss(_QUAD)
_GL_T, _GL_W = 0.5 * (1.0 + _GL_T), 0.5 * _GL_W


def _rule(beta: float, ynodes: np.ndarray):
    """The projection rule on a mesh given in y = x^e: (T, X, W), each of
    shape (cells, _QUAD) and read-only, holding the nodes as fractions of
    their cell in y, the nodes in x and the weights.  Each cell is
    Gauss-Legendre in y for dx = y^sigma dy / e, sigma = 1/e - 1, but the
    first, which folds y^sigma into a Gauss-Jacobi rule: exact there for the
    product of two hats, quadratic in y, as on every cell for e = 1."""
    e = _exponent(beta)
    dy = np.diff(ynodes)
    T = np.tile(_GL_T, (dy.size, 1))
    Y = ynodes[:-1, None] + dy[:, None] * T
    X = Y ** (1.0 / e)
    W = (dy[:, None] * _GL_W) * (X / (e * Y))  # dx/dy = x / (e y)
    if e < 1.0:
        sigma = 1.0 / e - 1.0
        tj, wj = sp.roots_jacobi(_QUAD, 0.0, sigma)
        T[0] = 0.5 * (1.0 + tj)
        X[0] = (dy[0] * T[0]) ** (1.0 / e)
        W[0] = (0.5 * dy[0]) ** (sigma + 1.0) / e * wj
    for a in (T, X, W):
        a.flags.writeable = False
    return T, X, W


def _cell_energy(beta: float, ynodes: np.ndarray) -> np.ndarray:
    """int x^beta (dy/dx)^2 dx over each cell, exactly (e dy for e = 1 -
    beta): the weighted energy there of a function with slope 1 in y."""
    if beta < 1.0:
        return (1.0 - beta) * np.diff(ynodes)
    return np.diff(ynodes ** (beta + 1.0)) / (beta + 1.0)


def _assemble_p1(beta: float, ynodes: np.ndarray, T, W):
    """Tridiagonal stiffness and mass matrices over all mesh nodes for the
    hats linear in y = x^e, each as (diagonal, off-diagonal) bands; entry i
    of an off-diagonal couples nodes i and i + 1.  The stiffness takes the
    exact cell integrals of `_cell_energy`.  The mass is the hats' Gram
    matrix under the projection rule (T, W), so M-orthonormal vectors make
    modes orthonormal under that rule by construction."""
    ks = _cell_energy(beta, ynodes) / np.diff(ynodes) ** 2
    L, R = 1.0 - T, T  # the cell's left and right hats at the rule's nodes
    mll, mlr, mrr = (np.sum(W * a * b, axis=1)
                     for a, b in ((L, L), (L, R), (R, R)))
    return ((np.r_[ks, 0.0] + np.r_[0.0, ks], -ks),
            (np.r_[mll, 0.0] + np.r_[0.0, mrr], mlr))


_EPS = 0.5 * np.finfo(float).eps  # LAPACK's dlamch('E'): ARPACK's tol = 0


def _ritz(alphas, betas, m: int, il: int, iu: int):
    """Eigenvalues il..iu (1-based, ascending) of the m-step Lanczos matrix
    and their eigenvectors, by LAPACK dstemr."""
    # dstemr overwrites its off-diagonal argument, and uses e[m-1] as scratch
    _, theta, s, info = dstemr(alphas[:m], betas[:m].copy(), 2, 0.0, 0.0, il, iu)
    if info != 0:
        raise SolverError(f"dstemr failed (info={info})")
    return theta[:iu - il + 1], s[:, :iu - il + 1]


def _shift_invert_lanczos(a, a_off, m, m_off, K: int):
    """Lowest K eigenpairs of the tridiagonal pencil A v = lambda M v, both
    symmetric positive definite, each given as (diagonal, off-diagonal).

    Lanczos on A^{-1} M, which is self-adjoint in the M-inner product, with
    full reorthogonalization (Ericsson & Ruhe, Math. Comp. 35 (1980)
    1251-1268), started from the vector of ones so that every call gives
    the same bits.  A step is one solve with the tridiagonal Cholesky factor
    of A (LAPACK dpttrf/dpttrs) and a few three-band products.  It stops once
    every wanted Ritz value theta_i = 1/lambda_i meets ARPACK's tol = 0 test
    |beta_j s_ji| <= eps theta_i.  Returns the lambdas ascending and the
    M-orthonormal Ritz vectors as rows.
    """
    d, e, info = dpttrf(a, a_off)
    if info != 0:
        raise SolverError(f"stiffness matrix not positive definite (info={info})")

    def mass(x):
        y = m * x
        y[:-1] += m_off * x[1:]
        y[1:] += m_off * x[:-1]
        return y

    # every beta and mesh tried (beta up to 1.999, 64 to 8192 cells)
    # converged within 1.7 K + 45 steps; the Krylov dimension cannot pass
    # the matrix size
    cap = min(a.size, 2 * K + 64)
    Q = np.empty((cap + 1, a.size))
    alphas, betas = np.empty(cap), np.empty(cap)
    q = np.ones(a.size)
    Mq = mass(q)
    r = math.sqrt(q @ Mq)
    Q[0] = q / r
    Mq /= r
    for j in range(cap):
        w = dpttrs(d, e, Mq)[0]
        Mw = mass(w)
        w_norm = math.sqrt(w @ Mw)
        Qj = Q[:j + 1]
        # classical Gram-Schmidt twice against every Lanczos vector
        c = Qj @ Mw
        w -= c @ Qj
        c2 = Qj @ mass(w)
        w -= c2 @ Qj
        alphas[j] = c[j] + c2[j]
        Mw = mass(w)
        betas[j] = b = math.sqrt(w @ Mw)
        if j + 1 >= K:
            # theta_K, the smallest wanted, converges last as a rule: test
            # it alone before paying for all K vectors
            il = j + 2 - K
            theta, s = _ritz(alphas, betas, j + 1, il, il)
            if abs(b * s[-1, 0]) <= _EPS * theta[0]:
                theta, s = _ritz(alphas, betas, j + 1, il, j + 1)
                if np.all(np.abs(b * s[-1]) <= _EPS * theta):
                    return 1.0 / theta[::-1], s[:, ::-1].T @ Qj
        if not b > _EPS * w_norm:
            raise SolverError(f"Lanczos broke down at step {j + 1} of {K} wanted")
        Q[j + 1] = w / b
        Mq = Mw / b
    raise SolverError(f"{K} eigenpairs not converged in {cap} Lanczos steps")


def solve_eigen(beta: float, K: int, mesh: int | None = None) -> EigenSystem:
    """First K eigenpairs by weighted P1 Galerkin on a mesh graded toward
    the degenerate endpoint (x_i = (i/N)^{2/(2-beta)}).

    The hats are linear in y = x^e (`_exponent`): in x for beta > 1, and in
    y = x^{1-beta} for beta < 1, where x^{1-beta}, the eigenfunctions'
    endpoint behavior, is in the trial space and the graded nodes
    equidistribute the local oscillation phase.  With no mesh given, N
    doubles from 2,048 up to 16,384 cells while lambda_K is not resolved (a
    K past 2,048 cells' floor of 8 per mode fails at once); an explicit mesh
    is solved as given.

    Shift-invert Lanczos (`_shift_invert_lanczos`) solves the tridiagonal
    pencil from a fixed start vector, so the result repeats bit for bit.  The
    Ritz vectors are mass-orthonormal, which makes the eigenfunctions
    orthonormal under the projection rule; the sign makes v'(1) < 0.
    """
    _check_beta(beta)
    _check_count("K", K)
    if mesh is not None:
        _check_count("mesh", mesh)
    n = _DEFAULT_MESH_N if mesh is None else mesh
    while True:
        try:
            return _galerkin(beta, K, n)
        except ResolutionError as exc:
            # an explicit mesh is final, and so is the floor: doubling would
            # run Lanczos for K up to 2,048 on 16,384 cells
            if mesh is not None or 8 * K > _DEFAULT_MESH_N:
                raise
            if n >= _MESH_MAX:
                raise ResolutionError(
                    f"lambda_{K} at beta = {beta} is not resolved on meshes "
                    f"up to {_MESH_MAX} cells; use fewer modes") from exc
            n *= 2


def _galerkin(beta: float, K: int, n: int) -> EigenSystem:
    """solve_eigen on the graded mesh of n cells."""
    if n < 8 * K:
        raise ResolutionError(f"mesh with {n} cells too coarse for K={K}")
    e = _exponent(beta)
    ynodes = _mesh(beta, n)
    T, X, W = _rule(beta, ynodes)
    S, M = _assemble_p1(beta, ynodes, T, W)
    # Dirichlet at x = 1; at x = 0 too for beta < 1, none for beta > 1.
    # Unknowns at nodes lo..n-1; off-diagonal entry i couples nodes i, i+1
    lo = 1 if beta < 1.0 else 0
    vals, vecs = _shift_invert_lanczos(S[0][lo:n], S[1][lo:n - 1],
                                       M[0][lo:n], M[1][lo:n - 1], K)
    if vals[0] <= 0.0 or np.any(np.diff(vals) <= 0.0):
        raise SolverError("eigenvalues not positive simple ascending")
    dy = np.diff(ynodes)
    # local phase^2 of -e^2 w'' = lambda y^sigma w, sigma = 1/e - 1
    indicator = (vals[-1] * np.max(dy ** 2 * ynodes[1:] ** (1.0 / e - 1.0))
                 / (12.0 * e ** 2))
    if indicator > 2e-3:
        raise ResolutionError(
            f"lambda_{K} ~ {vals[-1]:.3g} not resolved on this mesh; "
            "increase the mesh parameter")
    full = np.zeros((K, n + 1))
    full[:, lo:n] = vecs
    # v(1) = 0, so the sign at the last interior node fixes the sign of v'(1)
    full[full[:, -2] < 0.0] *= -1.0
    system = EigenSystem(beta, vals, "galerkin_numeric",
                         (e, ynodes, full, np.diff(full, axis=1) / dy))
    system._rule = X.ravel(), W.ravel()
    return system


def _bessel_mode_eval(beta, nu, jz, coef, x, deriv: bool = True):
    """(v, v') for v = coef * x^p J_nu(jz * x^q), p=(1-beta)/2, q=(2-beta)/2;
    v alone with deriv=False."""
    p = 0.5 * (1.0 - beta)
    q = 0.5 * (2.0 - beta)
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    xs = np.where(pos, x, 1.0)
    w = jz * xs ** q
    J = sp.jv(nu, w)
    v = coef * xs ** p * J
    # limits at the degenerate endpoint: v -> 0 (beta < 1) or the finite
    # J-series head (beta > 1); v' is unbounded either way
    at0 = np.any(~pos)
    if at0:
        v0 = 0.0 if beta < 1.0 else coef * (0.5 * jz) ** nu * sp.rgamma(nu + 1.0)
        v = np.where(pos, v, v0)
    if not deriv:
        return v
    Jp = sp.jvp(nu, w)
    vp = coef * (p * xs ** (p - 1.0) * J + jz * q * xs ** (p + q - 1.0) * Jp)
    if at0:
        vp = np.where(pos, vp, np.inf * np.sign(coef))
    return v, vp


#: the largest |v_k(1)| a closed-form mode may leave; ||v_k|| = 1 sets the
#: scale
_BESSEL_AT_ONE_TOL = 1e-6


def bessel_eigen(beta: float, K: int) -> EigenSystem:
    """Closed-form eigenpairs from the substitution
    v = x^{(1-beta)/2} J_nu(j_{nu,k} x^{(2-beta)/2}), nu = |1-beta|/(2-beta),
    with lambda_k = ((2-beta) j_{nu,k} / 2)^2.

    The K zeros come from one sweep of special._bessel_j_zeros, each
    within one double of the true zero.  With lambda = (q j)^2 the
    differential equation holds for any j, so the one check that can fail
    is v(1) = 0: each mode, evaluated as the system evaluates it, must
    leave |v_k(1)| <= 1e-6, or ResolutionError names the first k that
    does not.  Normalization is the closed-form Bessel-square integral and
    the sign makes v'(1) < 0.
    """
    _check_beta(beta)
    _check_count("K", K)
    nu = abs(1.0 - beta) / (2.0 - beta)
    q = 0.5 * (2.0 - beta)
    zeros = _bessel_j_zeros(nu, K)
    lambdas = (q * zeros) ** 2
    # |coef| normalizes ||v|| = 1; its sign makes v'(1) = -coef*q*j*J_{nu+1}(j)
    # negative
    coefs = np.sqrt(2.0 - beta) / sp.jv(nu + 1.0, zeros)
    system = EigenSystem(beta, lambdas, "bessel_closed_form", (nu, zeros, coefs))
    # written so that a NaN fails too
    ok = np.abs(system.basis_matrix(np.ones(1))[:, 0]) <= _BESSEL_AT_ONE_TOL
    if not np.all(ok):
        raise ResolutionError(
            f"closed-form mode misses v(1) = 0 by more than "
            f"{_BESSEL_AT_ONE_TOL:g} (beta={beta}, k={int(np.argmin(ok)) + 1})")
    return system


@dataclass
class FluxLimitReport:
    """Extrapolated limit of x^beta v'(x) as x -> 0."""

    limit: float
    vanishes: bool
    converged: bool


#: the flux is sampled at x = 0.25 * 0.5^i, i = 0..39 (down to 4.5e-13)
_FLUX_X = 0.25 * 0.5 ** np.arange(40)
#: a limit below this vanishes; two Aitken estimates this close converge
_FLUX_TOL = 1e-6


def flux_limit_check(v, beta: float) -> FluxLimitReport:
    """Sample the weighted flux x^beta v'(x) on the geometric sequence
    x = 0.25 * 0.5^i, i = 0..39, and extrapolate its limit (Aitken on the
    tail).

    v is a pair-evaluator x -> (value, derivative) such as
    EigenSystem.mode(k); anything else raises DomainError.  The limit
    vanishes when it is at most 1e-6 in magnitude.
    """
    _check_beta(beta)
    samples = np.empty(_FLUX_X.size)
    for i, x in enumerate(_FLUX_X):
        out = v(x)
        if not (isinstance(out, tuple) and len(out) == 2):
            raise DomainError("flux_limit_check needs a pair-evaluator "
                              "x -> (v(x), v'(x))")
        samples[i] = x ** beta * out[1]
    if not np.all(np.isfinite(samples)):
        return FluxLimitReport(float("nan"), False, False)

    def aitken(y0, y1, y2):
        den = y2 - 2.0 * y1 + y0
        if abs(den) < 1e-300:
            return y2
        return y2 - (y2 - y1) ** 2 / den

    est = aitken(*samples[-3:])
    prev = aitken(*samples[-4:-1])
    converged = abs(est - prev) <= max(_FLUX_TOL, 1e-6 * (1.0 + abs(est)))
    return FluxLimitReport(float(est), bool(abs(est) <= _FLUX_TOL),
                           bool(converged))


@dataclass
class OrthogonalityReport:
    """orthogonality_report's result: the Gram matrices of the modes in L2
    and in the weighted energy product, and the largest off-diagonal entry
    of each."""

    gram_l2: np.ndarray
    gram_weighted: np.ndarray
    max_offdiag_l2: float
    max_offdiag_weighted: float


def _gauss_rule(sys: EigenSystem):
    """The flat nodes and weights (X, W) of `_rule` on the system's mesh,
    built once per system (on first use for the closed-form route)."""
    if sys._rule is None:
        _, X, W = _rule(sys.beta, _mesh(sys.beta, _DEFAULT_MESH_N))
        sys._rule = X.ravel(), W.ravel()
    return sys._rule


def _rule_basis(sys: EigenSystem, rows: slice) -> np.ndarray:
    """The modes in rows at the nodes X of `_gauss_rule`, shape (modes,
    X.size): sys.basis_matrix(X)[rows] bit for bit.  On a Galerkin system
    the rule lies on the system's own mesh, cell j holding the nodes
    _QUAD j .. _QUAD j + _QUAD - 1, so each cell's line is applied to its
    nodes by broadcasting, with no search of the mesh."""
    X, _ = _gauss_rule(sys)
    if sys.method_tag != "galerkin_numeric":
        return sys._rows(rows, X, deriv=False)
    e, ynodes, vecs, slopes = sys._payload
    v = slopes[rows, :, None] * (X.reshape(-1, _QUAD) ** e - ynodes[:-1, None])
    v += vecs[rows, :-1, None]
    return v.reshape(v.shape[0], -1)


def orthogonality_report(sys: EigenSystem) -> OrthogonalityReport:
    """Gram matrices int v_i v_j dx and int x^beta v_i' v_j' dx under the
    projection rule (weighted products of the P1 system use the exact cell
    integrals of `_cell_energy`)."""
    beta = sys.beta
    X, W = _gauss_rule(sys)
    if sys.method_tag == "galerkin_numeric":
        V = _rule_basis(sys, slice(None))
        _, ynodes, _, slopes = sys._payload
        gram_w = (slopes * _cell_energy(beta, ynodes)) @ slopes.T
    else:
        V, D = sys._rows(slice(None), X)
        # x^beta v' v' dx = e x^{beta+e-1} v_y v_y dy is smooth in y, but the
        # rule's first cell is fitted to the weight y^sigma of v v dx: take
        # that cell Gauss-Legendre in y, as the rule takes the others
        e, q = _exponent(beta), _QUAD
        y1 = _mesh(beta, _DEFAULT_MESH_N)[1]
        X1 = (y1 * _GL_T) ** (1.0 / e)
        D1, Dr = sys._rows(slice(None), X1)[1], D[:, q:]
        gram_w = ((D1 * (y1 * _GL_W) * X1 ** (beta + 1.0 - e) / e) @ D1.T
                  + (Dr * W[q:] * X[q:] ** beta) @ Dr.T)
    gram_l2 = (V * W) @ V.T
    worst = lambda G: float(np.max(np.abs(G - np.diag(np.diag(G)))))
    return OrthogonalityReport(gram_l2, gram_w, worst(gram_l2), worst(gram_w))
