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

Scaled by the cell volumes, each implicit step is a symmetric positive
definite tridiagonal system, solved by LAPACK dptsv without pivoting.  The
L1 weights depend only on alpha and the time nodes: they are built once
per time mesh and kept for the next march (_weight_blocks), so a sweep
over beta or the data on one time mesh pays for them once.  The source is
read through f(x, t), or, for a SeparableSource, through its two factors
fx(x) and ft(t), by the calls its own __call__ makes.  Nothing numerical
is imported from the spectral side: from solver only the data types and
the helpers that evaluate the data.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv

from .errors import (DomainError, ResolutionError, SolverError, _check_alpha,
                     _check_count, _is_real, _real_array)
from .fracops import _l1_rows, warp_forward
from .solver import (ProblemSpec, SeparableSource, SolutionField, _eval_vec,
                     _value_at)
from .spectral import bc_requirements, grading_exponent

#: cap on the time grading exponent 2/alpha of FDMesh.build
_MAX_GRADE_S = 4.0
#: L1 rows built, and applied, as one block of time steps
_BLOCK = 64


@dataclass(frozen=True)
class FDMesh:
    """Graded space/time mesh for the reference solver.  x and s are kept
    as native float64 arrays (a list or an array of another real dtype is
    converted), so the march and its weight cache read them as doubles;
    complex, non-numeric or non-finite nodes, and grades that are not
    finite reals, are DomainErrors."""

    x: np.ndarray
    s: np.ndarray
    grade_x: float
    grade_s: float

    def __post_init__(self):
        for name, lo in (("x", 0.0), ("s", 0.0)):
            arr = _real_array(f"{name} nodes", getattr(self, name))
            if arr.ndim != 1 or arr.size < 3:
                raise DomainError(f"{name} nodes must be a 1-d array")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} nodes must be finite")
            if arr[0] != lo or not np.all(np.diff(arr) > 0.0):
                raise DomainError(f"{name} nodes must increase from {lo}")
            object.__setattr__(self, name, arr)
        if self.x[-1] != 1.0:
            raise DomainError("last spatial node must be 1")
        for name in ("grade_x", "grade_s"):
            g = getattr(self, name)
            if not _is_real(g):
                raise DomainError(f"{name} must be a finite real, got {g!r}")

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
        _check_alpha(alpha)
        bc_requirements(beta)
        if not (_is_real(s_final) and s_final > 0.0):
            raise DomainError(f"need a finite positive time horizon, "
                              f"got {s_final!r}")
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


def _check_finite(u: np.ndarray, n0: int, n1: int) -> None:
    """SolverError naming the first step n0 <= n < n1 whose update u[n] is
    not finite."""
    bad = ~np.isfinite(u[n0:n1]).all(axis=1)
    if bad.any():
        raise SolverError(f"non-finite update at step {n0 + int(bad.argmax())}")


@functools.lru_cache(maxsize=1)
def _weight_blocks(alpha: float, s: bytes) -> tuple:
    """The march's L1 weights on the time nodes s (the bytes of a float64
    array): for each block of _BLOCK steps from n0 = 1, the rows G =
    _l1_rows(alpha, s, n0, n1) of the one L1 rule (the rule hb_caputo and
    the residual's _l1_cells take their last rows from) split in two
    read-only parts, the square G[:, n0 - 1:] on the block's own
    increments and the history columns G[:, :n0 - 1] on every increment
    finished before it, or None where those weigh nothing (at alpha = 1,
    backward differences, they never do).  They depend on no field, so a sweep over beta, data or mesh x on
    one time mesh reads them from the cache; a key holds about nt^2 / 2
    doubles below alpha = 1 and nt _BLOCK at alpha = 1."""
    s = np.frombuffer(s)
    blocks = []
    for n0 in range(1, s.size, _BLOCK):
        G = _l1_rows(alpha, s, n0, min(n0 + _BLOCK, s.size))
        square = G[:, n0 - 1:].copy()
        square.flags.writeable = False
        history = None
        if G[:, :n0 - 1].any():
            history = G[:, :n0 - 1].copy()
            history.flags.writeable = False
        blocks.append((square, history))
    return tuple(blocks)


def fd_solve(spec: ProblemSpec, mesh: FDMesh) -> SolutionField:
    """March the implicit L1 / finite-volume scheme over the mesh.

    Each step solves one tridiagonal system, scaled by the cell volumes
    omega so that it is symmetric positive definite:
    (S + p^alpha g_last diag(omega)) u^n = omega (p^alpha (g_last u^{n-1}
    - history) + f(x, t_n)), with S the transmissibility stiffness.  The
    steps march in blocks of _BLOCK.  The blocks' L1 weight rows
    (fracops._l1_rows) are built once per time mesh and alpha
    (_weight_blocks, cached).  At the start of a block one matrix-matrix
    product applies its rows to every increment u^{j+1} - u^j finished
    before it, and the block's diagonals S + p^alpha g_last omega are
    formed, one per step.  Before that, and so before any of the block's
    solves, the block's source rows omega f(x, t_n) fill one scratch array:
    a SeparableSource's space factor is evaluated on the read-only nodes of
    the unknowns once per march and its time factor once per step, as a
    scalar, and the rows are their outer product times omega; any other
    f(x, t_n) is called on the nodes once per step.  Each step then makes
    only the calls its arithmetic needs, in scratch rows: one short
    matrix-vector product over its in-block increments, four in-place
    ufuncs for the right-hand side and one that adds its source row, one
    dptsv (LDL^T, no pivoting) that overwrites its diagonal row and the
    right-hand side with the solution, one subtraction into the increment
    and one row copy.  A march costs O(nt^2 nx) flops, at the speed of the
    matrix-matrix product, and copies no history.  The updates are checked
    once per block: a non-finite one is a SolverError naming the first
    step that made it.  At alpha = 1 the rows are backward differences:
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
    # the symmetric stiffness S on the unknowns: face fluxes tau (u_i -
    # u_i+1); the x = 0 face carries no flux
    left = np.concatenate(([0.0], tau))[inner]
    right = tau[inner]
    w = omega[inner]
    main = left + right
    off = -right[:-1]
    paw = pa * w

    ap = warp.a ** p
    t_nodes = (s + ap) ** (1.0 / p)
    t_nodes[0] = warp.a
    stalls = np.flatnonzero(np.diff(t_nodes) <= 0.0)
    if stalls.size:
        n = int(stalls[0]) + 1
        raise ResolutionError(
            f"time mesh collapses under the warp inverse: step {n} of "
            f"nt = {mesh.nt} lands on t = {float(t_nodes[n])}, no later than "
            f"step {n - 1}, on [a, T] = [{float(warp.a)}, {float(spec.T)}]; "
            f"use fewer time steps or a longer horizon")

    # data callables live on the open interval; nudge the endpoint nodes
    xe = x.copy()
    xe[0] = x[1] * 1e-6
    xe[-1] = 1.0 - h[-1] * 1e-6
    xi = xe[inner]  # read-only, so the source call makes no view of it
    xi.flags.writeable = False

    u = np.zeros((s.size, x.size))
    u[0, inner] = _eval_vec(spec.phi, xe)[inner]
    ui = u[:, inner]  # the unknowns of every step
    du = np.empty((mesh.nt, main.size))  # du[j] = u^{j+1} - u^j
    hist = np.empty(main.size)
    rhs = np.empty(main.size)
    blocks = _weight_blocks(float(al), s.tobytes())
    f = spec.f
    if f is not None:
        # src[r] = omega f(x, t_n) for the block's step n = n0 + r.  A
        # SeparableSource's factors are read by the calls its __call__
        # makes, so each row keeps the bits of f(x, t_n)
        src = np.empty((min(_BLOCK, mesh.nt), main.size))
        fx = _eval_vec(f.fx, xi) if isinstance(f, SeparableSource) else None
    # numpy's floating-point warnings are silenced, the source's included,
    # as solver._sampled silences them: a step marched past a non-finite
    # update would warn (inf - inf), and each block's check refuses such
    # an update, naming the first step that made one
    with np.errstate(all="ignore"):
        for n0, (Q, G_hist) in zip(range(1, s.size, _BLOCK), blocks):
            n1 = n0 + Q.shape[0]
            if f is not None:
                F = src[:n1 - n0]  # the block's source rows
                if fx is not None:
                    np.multiply.outer([_value_at(f.ft, float(t_nodes[n]))
                                       for n in range(n0, n1)], fx, out=F)
                else:
                    for n in range(n0, n1):
                        t_n = float(t_nodes[n])
                        F[n - n0] = _eval_vec(lambda xx: f(xx, t_n), xi)
                F *= w
            # L1 weights g_j of Caputo_s u(s_n) ~ sum_j g_j (u^{j+1} - u^j):
            # the square Q[n - n0, j - n0 + 1] on the block's increments,
            # and G_hist on every increment finished before the block; a
            # block whose history weights are all zero (backward
            # differences at alpha = 1) has no G_hist and skips its product
            H = (G_hist @ du[:n0 - 1] if G_hist is not None
                 else np.zeros((n1 - n0, main.size)))
            # the last weight of each row times p^alpha omega, and the
            # shifted diagonals, which dptsv overwrites
            cw = np.multiply.outer(pa * Q.diagonal(), w)
            diag = main + cw
            # rhs = omega (p^alpha (g_last u^{n-1} - history) + f(x, t_n)),
            # with hist the scratch row of the history
            for n in range(n0, n1):
                r = n - n0
                np.dot(Q[r, :r], du[n0 - 1:n - 1], out=hist)
                hist += H[r]
                hist *= paw
                np.multiply(cw[r], ui[n - 1], out=rhs)
                rhs -= hist
                if f is not None:
                    rhs += F[r]
                _, _, sol, info = dptsv(diag[r], off, rhs,
                                        overwrite_d=1, overwrite_b=1)
                if info != 0:
                    _check_finite(ui, n0, n)
                    raise SolverError(f"tridiagonal solve failed at step {n}")
                np.subtract(sol, ui[n - 1], out=du[n - 1])
                ui[n] = sol
            _check_finite(ui, n0, n1)

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
    """compare's result: at each compared time t, the L2 and the sup norm of
    the difference, each relative to the reference field's own norm."""

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
    otherwise, rather than extending its end values.

    The times compared are the reference's grid times within both fields'
    time ranges, or t_subset: a non-empty 1-d list of finite times inside
    both ranges, each read from a field's nearest row within 1e-9 or
    blended linearly between its rows.  Any other t_subset, a scalar, an
    empty list or one holding NaN, is a DomainError."""
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
        ts = _real_array("t_subset", t_subset)
        if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)):
            raise DomainError(f"t_subset must be a non-empty 1-d list of "
                              f"finite times, got {t_subset!r}")
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
