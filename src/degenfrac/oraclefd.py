"""Finite-difference reference solver for the degenerate time-fractional
mixed problem, independent of the spectral route.

Time: L1 product-integration of the Caputo derivative in the warped
variable s = t^p - a^p, scaled by p^alpha to realize the hyper-Bessel
operator; implicit stepping.  Space: conservative finite volumes with the
exact two-point transmissibility 1 / int x^{-beta} dx, which reproduces
constant-flux profiles (hence the x^{1-beta} endpoint behavior) exactly.
For beta > 1 the x = 0 face carries zero flux (the degenerate-limit
boundary behavior) and the first interior face uses the bounded-branch
closure u ~ A + B x^{2-beta}, because the harmonic integral diverges
there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, ResolutionError, SolverError, _check_count
from .fracops import _BLOCK, _l1_rows, warp_forward
from .solver import ProblemSpec, SolutionField, _eval_vec
from .spectral import bc_requirements, grading_exponent

__all__ = ["FDMesh", "fd_solve", "compare", "CompareReport"]

#: cap on the time grading exponent 2/alpha of FDMesh.build
_MAX_GRADE_S = 4.0


@dataclass(frozen=True)
class FDMesh:
    """Graded space/time mesh for the reference solver."""

    x: np.ndarray
    s: np.ndarray
    grade_x: float
    grade_s: float

    def __post_init__(self):
        for name, arr, lo in (("x", self.x, 0.0), ("s", self.s, 0.0)):
            if arr.ndim != 1 or arr.size < 3:
                raise DomainError(f"{name} nodes must be a 1-d array")
            if arr[0] != lo or not np.all(np.diff(arr) > 0.0):
                raise DomainError(f"{name} nodes must increase from {lo}")
        if self.x[-1] != 1.0:
            raise DomainError("last spatial node must be 1")

    @property
    def nx(self) -> int:
        return self.x.size - 1

    @property
    def nt(self) -> int:
        return self.s.size - 1

    @classmethod
    def build(cls, beta: float, alpha: float, s_final: float,
              nx: int = 512, nt: int = 512) -> "FDMesh":
        """Standard graded mesh: x_i = (i/nx)^{gx} toward the degenerate
        endpoint, with gx = grading_exponent(beta), and s_j = s_final
        (j/nt)^{gs} toward the initial time (to resolve the weakly singular
        startup layer), with gs = min(2/alpha, 4).  alpha and beta are
        validated as ProblemSpec validates them."""
        if not (0.0 < alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
        bc_requirements(beta)
        if s_final <= 0.0:
            raise DomainError(f"need a positive time horizon, got {s_final}")
        _check_count("nx", nx)
        _check_count("nt", nt)
        if nx < 8 or nt < 4:
            raise ResolutionError(f"mesh {nx}x{nt} too coarse")
        gx = grading_exponent(beta)
        gs = min(2.0 / alpha, _MAX_GRADE_S)
        x = np.linspace(0.0, 1.0, nx + 1) ** gx
        s = s_final * np.linspace(0.0, 1.0, nt + 1) ** gs
        return cls(x, s, gx, gs)


def _transmissibilities(beta: float, x: np.ndarray) -> np.ndarray:
    """Face coupling tau_i between nodes i and i+1, from the exact
    integral of the resistivity x^{-beta} (constant-flux exact)."""
    e = 1.0 - beta
    with np.errstate(divide="ignore"):
        tau = e / (x[1:] ** e - x[:-1] ** e)
    if beta > 1.0:
        # the integral from 0 diverges; close the first face from the
        # bounded local branch A + B x^{2-beta}, whose flux at the face
        # midpoint x_1/2 is (2-beta) (x_1/2) (u_1-u_0) / x_1^{2-beta}
        tau[0] = (2.0 - beta) * 0.5 * x[1] / x[1] ** (2.0 - beta)
    return tau


def fd_solve(spec: ProblemSpec, mesh: FDMesh) -> SolutionField:
    """March the implicit L1 / finite-volume scheme over the mesh.

    Each step solves one tridiagonal system.  The steps march in blocks
    of _BLOCK: at the start of a block one matrix-matrix product applies
    the block's L1 weight rows (fracops._l1_rows) to every increment
    u^{j+1} - u^j finished before it, and each step then adds only its
    in-block increments, one short matrix-vector product.  A march costs
    O(nt^2 nx) flops, at the speed of the matrix-matrix product, and
    copies no history.  At alpha = 1 the rows are backward differences:
    the march is backward Euler, and a block whose rows weigh the earlier
    increments with zeros alone skips its matrix-matrix product.

    Returns a SolutionField whose first time row is the initial profile
    at t = a; no spectral mode data is attached."""
    bc = bc_requirements(spec.beta)
    x, s = mesh.x, mesh.s
    warp = spec.warp
    p, al = warp.p, spec.alpha
    pa = p ** al
    S_T = warp_forward(warp, spec.T)
    if s[-1] > S_T * (1.0 + 1e-12):
        raise DomainError("mesh time horizon exceeds the problem horizon")

    tau = _transmissibilities(spec.beta, x)
    h = np.diff(x)
    omega = np.empty(x.size)
    omega[0] = 0.5 * h[0]
    omega[-1] = 0.5 * h[-1]
    omega[1:-1] = 0.5 * (h[:-1] + h[1:])

    # unknowns: every node but x = 1, and x = 0 only when beta > 1
    inner = slice(1 if spec.beta < 1.0 else 0, x.size - 1)
    # stiffness action rows for the unknowns: (A u)_i, scaled by 1/omega_i;
    # the x = 0 face carries no flux
    left = np.concatenate(([0.0], tau))[inner]
    right = tau[inner]
    w = omega[inner]
    main = (left + right) / w
    lower = -left[1:] / w[1:]
    upper = -right[:-1] / w[:-1]

    ap = warp.a ** p
    t_nodes = (s + ap) ** (1.0 / p)
    t_nodes[0] = warp.a
    if np.any(np.diff(t_nodes) <= 0.0):
        raise ResolutionError("time mesh collapses under the warp inverse; "
                              "reduce the time grading")

    # data callables live on the open interval; nudge the endpoint nodes
    xe = x.copy()
    xe[0] = x[1] * 1e-6
    xe[-1] = 1.0 - h[-1] * 1e-6

    u = np.zeros((s.size, x.size))
    u[0, inner] = _eval_vec(spec.phi, xe)[inner]
    du = np.empty((mesh.nt, main.size))  # du[j] = u^{j+1} - u^j
    for n0 in range(1, s.size, _BLOCK):
        n1 = min(n0 + _BLOCK, s.size)
        # L1 weights G[n - n0, j] = g_j of Caputo_s u(s_n) ~ sum_j g_j
        # (u^{j+1} - u^j), and the history of every increment finished
        # before the block; rows that weigh it with zeros alone (backward
        # differences at alpha = 1) skip the product
        G = _l1_rows(al, s, n0, n1)
        Gh = G[:, :n0 - 1]
        H = Gh @ du[:n0 - 1] if Gh.any() else np.zeros((n1 - n0, main.size))
        for n in range(n0, n1):
            r = n - n0
            g_last = G[r, n - 1]
            hist = H[r] + G[r, n0 - 1:n - 1] @ du[n0 - 1:n - 1]
            rhs = pa * g_last * u[n - 1, inner] - pa * hist
            if spec.f is not None:
                t_n = float(t_nodes[n])
                rhs += _eval_vec(lambda xx: spec.f(xx, t_n), xe)[inner]
            _, _, _, sol, info = dgtsv(lower, main + pa * g_last, upper, rhs)
            if info != 0:
                raise SolverError(f"tridiagonal solve failed at step {n}")
            if not np.all(np.isfinite(sol)):
                raise SolverError(f"non-finite update at step {n}")
            du[n - 1] = sol - u[n - 1, inner]
            u[n, inner] = sol

    return SolutionField(
        x_grid=x, t_grid=t_nodes, values=u, K=0, regime=spec.regime,
        diagnostics={
            "method": "fd_l1_fv",
            "nx": mesh.nx, "nt": mesh.nt,
            "grade_x": mesh.grade_x, "grade_s": mesh.grade_s,
            "left_condition": bc.left_condition,
        })


@dataclass
class CompareReport:
    t: np.ndarray
    l2_rel: np.ndarray
    sup_rel: np.ndarray

    @property
    def max_l2_rel(self) -> float:
        return float(np.max(self.l2_rel))

    @property
    def max_sup_rel(self) -> float:
        return float(np.max(self.sup_rel))


def _row_at(field: SolutionField, t: float) -> np.ndarray:
    tg = field.t_grid
    if t < tg[0] - 1e-12 or t > tg[-1] + 1e-12:
        raise DomainError(f"t={t} outside the field's time range")
    j = int(np.searchsorted(tg, t))
    j = min(max(j, 0), tg.size - 1)
    if abs(tg[j] - t) <= 1e-9 * (1.0 + abs(t)):
        return field.values[j]
    if j == 0 or abs(tg[j - 1] - t) <= 1e-9 * (1.0 + abs(t)):
        return field.values[max(j - 1, 0)]
    w = (t - tg[j - 1]) / (tg[j] - tg[j - 1])
    return (1.0 - w) * field.values[j - 1] + w * field.values[j]


def compare(reference: SolutionField, other: SolutionField,
            t_subset=None) -> CompareReport:
    """L2(0,1) and sup-norm differences at shared times, relative to the
    reference field's norms (guarding zero rows).  other is interpolated
    linearly onto the reference x-grid, which it must cover: DomainError
    otherwise, rather than extending its end values."""
    xr, xo = reference.x_grid, other.x_grid
    pad = 1e-12 * (1.0 + abs(xo[-1]))
    if xr[0] < xo[0] - pad or xr[-1] > xo[-1] + pad:
        raise DomainError(
            f"other field's x-range [{xo[0]}, {xo[-1]}] does not cover "
            f"the reference's [{xr[0]}, {xr[-1]}]")
    if t_subset is None:
        lo = max(reference.t_grid[0], other.t_grid[0])
        hi = min(reference.t_grid[-1], other.t_grid[-1])
        if not (hi >= lo):
            raise DomainError("fields share no time range")
        ts = reference.t_grid[(reference.t_grid >= lo - 1e-12)
                              & (reference.t_grid <= hi + 1e-12)]
    else:
        ts = np.asarray(t_subset, dtype=float)
    xs = reference.x_grid
    l2r, spr = [], []
    for t in ts:
        ra = _row_at(reference, float(t))
        rb = np.interp(xs, other.x_grid, _row_at(other, float(t)))
        d = ra - rb
        l2d = math.sqrt(float(np.trapezoid(d * d, xs)))
        l2n = math.sqrt(float(np.trapezoid(ra * ra, xs)))
        sud = float(np.max(np.abs(d)))
        sun = float(np.max(np.abs(ra)))
        l2r.append(l2d / max(l2n, 1e-300))
        spr.append(sud / max(sun, 1e-300))
    return CompareReport(np.asarray(ts), np.asarray(l2r), np.asarray(spr))
