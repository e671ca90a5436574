"""Spectral solver for the degenerate time-fractional mixed problem

    D^alpha u - (x^beta u_x)_x = f   on (0,1) x (a, T],
    u(x, a+) = phi(x),  u(1, t) = 0,

where D^alpha is the regularized Caputo-type fractional power of the
hyper-Bessel operator t^theta d/dt, started at a.  Expanding against the degenerate
Sturm-Liouville eigenbasis turns the PDE into independent scalar
relaxation equations

    D^alpha u_k + lambda_k u_k = f_k,  u_k(a+) = phi_k,

solved in closed form with Mittag-Leffler kernels.  Two interchangeable
representations of the source convolution are implemented -- a direct
E_{a,a} kernel and a split Gamma(a)-power + E_{a,2a} form -- linked by
the recurrence E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z); their agreement
is a live consistency check on the special-function layer.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np
from scipy import special as sp

from .errors import (DomainError, RegimeError, ResolutionError, _check_alpha,
                     _check_count, _is_real, _real_array)
from .fracops import (SampledFunction, TimeWarp, _l1_cells, _Pchip,
                      warp_forward, warp_inverse)
from .special import _ml, _ml_exact_sums, _ml_finish, _ml_node_sums
# perfbench/layertrace.py traces the names degenfrac.solver.ml_eval_many
# and degenfrac.solver.hb_caputo, which no solver path calls
from .fracops import hb_caputo  # noqa: F401
from .special import ml_eval_many  # noqa: F401
from .spectral import EigenSystem, _gauss_rule, _rule_basis, bc_requirements


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


class SeparableSource:
    """Source term f(x, t) = fx(x) * ft(t).

    Keeping the factors separate lets the solver compute the spatial
    Fourier coefficients once instead of once per time node.  A real
    number ft declares a constant time factor, for which each mode's
    source convolution telescopes to a closed form.
    """

    def __init__(self, fx: Union[Callable, float], ft: Union[Callable, float]):
        for name, g in (("fx", fx), ("ft", ft)):
            if not (callable(g) or _is_real(g)):
                raise DomainError(f"{name} must be callable or a finite real "
                                  "number")
        self.fx = fx
        self.ft = ft

    def __call__(self, x, t):
        return np.asarray(_eval_vec(self.fx, np.atleast_1d(x))) * _value_at(self.ft, t)


@dataclass(frozen=True, eq=False)
class _TimeFactor:
    """A time factor of the CLI grammar as a value: kind "sin" (sin(w t),
    nums (w,)), "cos" (cos(w t)), "poly" (sum_i c_i t^i, nums the c_i) or
    "spow" (s(t)^q = (t^p - a^p)^q on warp, nums (q,)); warp is None but
    for spow.  It is equal and hashed by its kind, the bits of its numbers
    and its warp, and called it evaluates its expression, so work on its
    values can be memoized by value (_factor_sums)."""

    kind: str
    nums: tuple
    warp: Optional[TimeWarp] = None

    def __post_init__(self):
        object.__setattr__(self, "nums", tuple(float(c) for c in self.nums))

    def _key(self):
        return self.kind, np.array(self.nums).tobytes(), self.warp

    def __eq__(self, other):
        if type(other) is not _TimeFactor:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __call__(self, t):
        if self.kind == "sin":
            return np.sin(self.nums[0] * t)
        if self.kind == "cos":
            return np.cos(self.nums[0] * t)
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(t, self.nums)
        return warp_forward(self.warp, t) ** self.nums[0]


@dataclass
class ProblemSpec:
    """Data of the mixed problem on (0, 1) x (a, T].

    alpha in (0, 1] (alpha = 1 is the classical first-order limit),
    theta < 1, beta in (0, 2) away from 1, 0 <= a < T < inf.  phi is the
    initial profile on [0, 1]; f is None, a callable f(x, t), or a
    SeparableSource.  Any other f raises DomainError.
    """

    alpha: float
    theta: float
    beta: float
    a: float
    T: float
    phi: Union[SampledFunction, Callable]
    f: object = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        TimeWarp(self.theta, self.a)  # theta < 1, a >= 0
        bc_requirements(self.beta)  # validates beta, fixes the BC set
        if not (_is_real(self.T) and self.T > self.a):
            raise DomainError(f"need a < T < inf, got T={self.T!r}")
        if warp_forward(self.warp, self.T) == 0.0:
            raise DomainError(f"T={self.T!r} has s(T) = 0: T^p rounds onto "
                              f"a^p")
        if not isinstance(self.phi, SampledFunction):
            if not callable(self.phi):
                raise DomainError("phi must be callable or a SampledFunction")
            self.phi = SampledFunction(self.phi, domain=(0.0, 1.0))
        if self.f is not None and not callable(self.f):
            raise DomainError("f must be None, callable, or a SeparableSource")

    @property
    def warp(self) -> TimeWarp:
        return TimeWarp(self.theta, self.a)

    @property
    def regime(self) -> str:
        return "classical" if self.beta < 1.0 else "weak"


@dataclass
class ModeODE:
    """One Fourier mode's scalar problem:
    D^alpha u_k + lambda_k u_k = f_k(t), u_k(a+) = phi_k.

    f_k is None (no source), a callable, or a real number declaring a
    constant source."""

    k: int
    alpha: float
    lambda_k: float
    phi_k: float
    f_k: Union[Callable, float, None]
    warp: TimeWarp

    def __post_init__(self):
        _check_count("k", self.k)
        _check_alpha(self.alpha)
        if not (_is_real(self.lambda_k) and self.lambda_k > 0.0):
            raise DomainError(f"lambda_k must be a finite positive real, "
                              f"got {self.lambda_k!r}")
        if not _is_real(self.phi_k):
            raise DomainError(f"phi_k must be a finite real, got {self.phi_k!r}")
        if not isinstance(self.warp, TimeWarp):
            raise DomainError(f"warp must be a TimeWarp, got {self.warp!r}")
        if not (self.f_k is None or callable(self.f_k) or _is_real(self.f_k)):
            raise DomainError("f_k must be None, callable or a real number")

    @property
    def lambda_star(self) -> float:
        return -self.lambda_k / self.warp.p ** self.alpha


@dataclass
class ModeTrajectory:
    """Mode k's values u_k on t_grid, and the kernel representation that
    made them: "single_kernel" (mode_solution) or "split_kernel"
    (mode_solution_alt)."""

    k: int
    t_grid: np.ndarray
    values: np.ndarray
    method_tag: str


@dataclass
class SolutionField:
    """Assembled truncated series u(x_i, t_j) plus the per-mode data the
    residual and norm diagnostics are built from.

    values has one row per time node (shape (nt, nx)).  mode_sources is
    the modes' source f_k(t): None, an array of K declared constants, or
    a _Signal, called as t -> (K,) + t.shape.  modes_at maps warped times
    S to the (K, S.size) mode values by the very rule, source and
    convolution cells that produced mode_values.  spec is a copy of the
    assembling ProblemSpec: the diagnostics refuse any other time setup."""

    x_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray
    K: int
    regime: str
    diagnostics: dict
    mode_lambdas: np.ndarray = field(default=None, repr=False)
    mode_values: np.ndarray = field(default=None, repr=False)  # (K, nt)
    mode_phi: np.ndarray = field(default=None, repr=False)
    mode_sources: object = field(default=None, repr=False)
    system: EigenSystem = field(default=None, repr=False)
    modes_at: Callable = field(default=None, repr=False)
    spec: ProblemSpec = field(default=None, repr=False)


@dataclass
class NormReport:
    """solution_norms' result: the sup over the time grid of the L2, the
    weighted-energy and the weighted-Sobolev norm of the field, and the
    series sum lambda_k^2 phi_k^2, sum lambda_k^2 f_k(a)^2 and
    sum lambda_k^2 int |f_k'|^2 dt of the a-priori estimate (the two
    source series are 0 without a source)."""

    sup_l2: float
    sup_energy: float
    sup_weighted: float
    series_phi: float
    series_source_a: float
    series_source_deriv: float


@dataclass
class ResidualReport:
    """residual_strong's or residual_weak's result: the largest residual
    sup_abs over the sample times t_samples, the largest magnitude of its
    terms (scale), their ratio sup_rel, and per_test, the largest value
    per mode."""

    sup_abs: float
    sup_rel: float
    scale: float
    t_samples: np.ndarray
    per_test: np.ndarray


# ---------------------------------------------------------------------------
# Quadrature helpers
# ---------------------------------------------------------------------------


def _value_at(f, t: float) -> float:
    """f(t) for a callable f, or f itself for a declared constant."""
    return float(f) if _is_real(f) else float(f(t))


def _eval_vec(fn, x: np.ndarray) -> np.ndarray:
    """Evaluate fn on an array.  A real number is a constant function; a
    callable that rejects arrays the way scalar-only code does (TypeError,
    ValueError) or returns the wrong shape is evaluated point by point.
    fn sees a read-only view of x, so one that writes into its argument
    fails over to the points too, and the caller's x (a block of
    convolution times or a quadrature rule, say) keeps its values."""
    x = np.asarray(x, dtype=float)
    if _is_real(fn):
        return np.full(x.shape, float(fn))
    if x.flags.writeable:
        x = x.view()
        x.flags.writeable = False
    try:
        out = np.asarray(fn(x), dtype=float)
        if out.shape == x.shape:
            return out
    except DomainError:
        raise
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(xi)) for xi in x.ravel()]).reshape(x.shape)


def _sampled(name: str, where: str, fn, x) -> np.ndarray:
    """fn on x (by _eval_vec), or DomainError naming the data (phi or f)
    that gave a non-finite value there.  numpy's floating-point warnings
    are silenced while fn runs: a value they would flag is refused here,
    and the error names it."""
    with np.errstate(all="ignore"):
        vals = _eval_vec(fn, x)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"{name} must be finite on {where}")
    return vals


def fourier_coeff(g, sys: EigenSystem, k: int) -> float:
    """Coefficient int_0^1 g(x) v_k(x) dx against the orthonormal basis."""
    X, W = _gauss_rule(sys)
    sys._check_k(k)
    vk = _rule_basis(sys, slice(k - 1, k))[0]
    return float(np.dot(W, _eval_vec(g, X) * vk))


# ---------------------------------------------------------------------------
# Mode solutions
# ---------------------------------------------------------------------------
#
# Both closed forms integrate the data against kernels of the shape
#     k_b(y) = y^{b-1} E_{alpha,b}(lam y^alpha),   y = s - sigma,
# whose primitives are Mittag-Leffler again:
#     P0(y) = int_0^y k_b = y^b E_{alpha,b+1}(lam y^alpha)
#     Q(y) = int_0^y P0 = y^{b+1} E_{alpha,b+2}(lam y^alpha).
# By parts, a piecewise-linear interpolant g of the data on the nodes
# sigma_0 = 0 < ... < sigma_n = s is integrated exactly,
#     int_0^s k_b(s - sigma) g = g(0) P0(s) + sum_i slope_i (Q(y_i) - Q(y_i+1)),
# and the kernel endpoint singularity costs nothing.  With y_i = s c_i the
# ratios c_i are the same for every target and mode.  Summed by parts once
# more, the slope part is sum_i w_i Q(y_i) with w_i = slope_i - slope_i-1
# (slope_-1 = slope_n = 0), summed against the cached contour bands of
# special in two halves: the band GEMMs on the source's time curves give
# x-free node sums (_node_sums), and each mode finishes them with its own
# reciprocals (special._ml_finish) in slices of about _FINISH_ROWS rows.
# The node sums depend on no mode, beta or phi; for a CLI time factor they
# are memoized by value (_factor_sums), and every other source builds them
# slice by slice.


#: points per curve in a block of the 2-D product integration: a block's
#: (curves, targets, nodes) arrays take 128 KB per curve (the modes' sums
#: keep their own bound, special._SUM_ROWS)
_BLOCK_POINTS = 16384
#: cells of the product rule from 0 to each target time (assemble's default)
_CONV_CELLS = 128
#: the residual's L1 cells from 0 to each sample time, and the cells of its
#: dense table of the modes on [0, S_T]
_L1_CELLS = 2048
_TABLE_CELLS = 1024
#: rows (modes x targets) per slice of the convolution's finish: at K = 1
#: the residual's 1,024 dense targets are one slice, and from K = 16 on a
#: slice is one row block, whose temporaries keep the bound of
#: special._SUM_ROWS
_FINISH_ROWS = 2048


@dataclass(frozen=True)
class _Signal:
    """A time-varying mode source f_k(t) = sum_r C[k, r] g_r(t): R time
    curves g, t -> (R,) + t.shape, mixed into the K modes by the (K, R)
    matrix C.  C is a column (R = 1: one curve shared by every mode, as a
    SeparableSource's time factor) or None, the identity (R = K: each mode
    its own curve, as a general f(x, t) or one ModeODE's source).  The
    source convolution runs on the curves, so its GEMMs cost R rows, not K;
    called, the signal gives the modes' values C @ g(t).  factor is the
    _TimeFactor that g evaluates (R = 1), whose node sums the
    convolution reads from _factor_sums, or None: the convolution then
    builds them for each slice it finishes (_node_sums)."""

    g: Callable
    C: Optional[np.ndarray] = None
    factor: Optional[_TimeFactor] = None

    def __call__(self, t) -> np.ndarray:
        G = self.g(np.asarray(t, dtype=float))
        return G if self.C is None else np.tensordot(self.C, G, axes=1)


def _loads(source, K: int, t) -> np.ndarray:
    """f_k(t) of a batch's source (None reads 0), shape (K,) + t.shape."""
    t = np.asarray(t, dtype=float)
    if callable(source):
        return source(t)
    c = np.zeros(K) if source is None else source
    return np.multiply.outer(c, np.ones(t.shape))


def _block_times(warp: TimeWarp, S: np.ndarray,
                 frac: np.ndarray) -> np.ndarray:
    """The (S.size, frac.size) times t(S_j frac_i) in [a, t(S_j)]: the
    convolution's node times of one row block of targets S."""
    # t(0) may round below a; t is monotone, and its last column is t(S)
    return np.maximum(warp_inverse(warp, S[:, None] * frac), warp.a)


def _slope_diffs(G: np.ndarray, S: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """w_i = slope_i - slope_i-1, shape (R, J, n + 1), of the curves G
    (same shape) on the cells S_j frac of the targets S, with slope_-1 =
    slope_n = 0 at the ends."""
    slopes = np.zeros(G.shape[:-1] + (frac.size + 1,))
    np.subtract(G[..., 1:], G[..., :-1], out=slopes[..., 1:-1])
    slopes[..., 1:-1] /= np.multiply.outer(S, np.diff(frac))
    return np.diff(slopes, axis=-1)


def _conv_rows(n: int) -> int:
    """Targets per row block of a convolution on n cells."""
    return max(1, _BLOCK_POINTS // (n + 1))


def _node_sums(g: Callable, warp: TimeWarp, n: int, S: np.ndarray,
               alpha: float, kernels: tuple) -> list:
    """The x-free half of the convolution of the curves g against each
    kernel P_B, (B, live) in kernels, at order alpha: per kernel,
    special._ml_node_sums of the slope differences w of g on the cells
    S_j frac, frac_i = (i/n)^2, i = 0..n, for each target S_j > 0, with
    the targets on the last axis; for a kernel that is not live (x = 0 on
    every row) only its exact-value sum (special._ml_exact_sums), a
    1-tuple, with no band GEMM.  It is filled in the row blocks of
    _conv_rows, each reading the curves once for every kernel, so each
    value keeps the bits of its block's GEMM (one GEMM over every target
    does not)."""
    frac = np.linspace(0.0, 1.0, n + 1) ** 2
    ratios = tuple(1.0 - frac)
    rows = _conv_rows(n)
    out = None
    for lo in range(0, S.size, rows):
        Sb = S[lo:lo + rows]
        w = _slope_diffs(g(_block_times(warp, Sb, frac)), Sb, frac)
        parts = [_ml_node_sums(alpha, B, w, ratios) if live
                 else (_ml_exact_sums(B, w, ratios),) for B, live in kernels]
        if out is None:
            out = [tuple(np.empty(a.shape[:-1] + (S.size,)) for a in part)
                   for part in parts]
        for dst, src in zip(out, parts):
            for d, a in zip(dst, src):
                d[..., lo:lo + rows] = a
    return out


@lru_cache(maxsize=2)
def _factor_sums(factor: _TimeFactor, warp: TimeWarp, n: int, S: bytes,
                 alpha: float, kernels: tuple) -> tuple:
    """_node_sums of the time factor on n cells up to each target of S
    (the bytes of a float64 array), read only.  They depend on no mode,
    beta or phi, and the key holds the factor by value, so a beta sweep
    that keeps the time setup and the factor reads them from the cache:
    one key for the output times and one for the residual's dense table,
    whose 1,024 targets hold 2.8 MB of node sums at 128 cells."""
    sums = _node_sums(lambda t: _eval_vec(factor, t)[None], warp, n,
                      np.frombuffer(S), alpha, kernels)
    for node in sums:
        for a in node:
            a.flags.writeable = False
    return tuple(sums)


def _finish_slices(J: int, rows: int, K: int) -> list:
    """The target slices in which K modes finish the convolution's node
    sums for J targets: whole row blocks of rows targets, about
    _FINISH_ROWS rows (modes x targets) per slice.  At K = 1 a row block
    of one target stays a slice of its own: numpy sums the nodes of a
    single row pairwise, and those of more rows in order, so each value
    keeps the bits of its row block."""
    if K == 1 and rows == 1:
        return [slice(j, j + 1) for j in range(J)]
    cuts = list(range(0, J, rows * max(1, _FINISH_ROWS // (K * rows))))
    if K == 1 and J % rows == 1 and cuts[-1] != J - 1:
        cuts.append(J - 1)  # the last row block has one target
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:] + [J])]


def _mode_values(ode: ModeODE, S_arr: np.ndarray, form: str,
                 conv_cells: int) -> np.ndarray:
    """u_k of one mode at the warped times S_arr: a batch of one mode."""
    f = ode.f_k
    if callable(f):
        source = _Signal(lambda t: _eval_vec(f, t)[None])
    else:
        source = None if f is None else np.array([float(f)])
    return _modes_values(ode.alpha, ode.warp, [ode.lambda_k], [ode.phi_k],
                         source, form, conv_cells, S_arr)[0]


def _modes_values(alpha: float, warp: TimeWarp, lambdas, phis, source,
                  form: str, conv_cells: int, S_arr) -> np.ndarray:
    """(K, S.size) values of the modes D^alpha u_k + lambda_k u_k = f_k,
    u_k(a+) = phis[k], at the warped times S_arr, with the mode index on
    the leading axis.  source is None, an array of K declared constants,
    or a _Signal.  The phi term, declared constants and a signal's start
    value share the argument lambda* S^alpha, so one contour pass gives
    all three for every mode.  A signal's slopes are integrated over
    (targets S > 0) x (conv_cells + 1) nodes: in the slices of
    _finish_slices, each kernel finishes the slice's node sums for every
    mode in one _ml_finish call (the split form's power kernel, at x = 0,
    is its exact-value sum alone), and the mix C scales finished sums.  A
    CLI time factor's node sums are read from _factor_sums; any other
    signal's are built for the slice (_node_sums)."""
    Sa = np.asarray(S_arr, dtype=float)
    pa = warp.p ** alpha
    lam_s = -np.asarray(lambdas, dtype=float) / pa
    # source terms scl * int_0^S (S-sigma)^(b-1) E_{al,b}(lam (S-sigma)^al) g:
    # (b, whether lam is lambda* (else 0), scl: a number or one per mode)
    if form == "single_kernel":
        parts = ((alpha, True, 1.0 / pa),)
    else:
        parts = ((alpha, False, 1.0 / pa),
                 (2.0 * alpha, True, (lam_s / pa)[:, None]))
    const = source is not None and not callable(source)
    Z = lam_s[:, None] * Sa ** alpha
    betas = (1.0,)
    if source is not None:
        betas += tuple(b + 1.0 for b, on, _ in parts if on)
    E = iter(_ml(alpha, betas, Z))
    out = np.asarray(phis, dtype=float)[:, None] * next(E)
    if source is None:
        return out
    # the source at the start times P0(S): the whole convolution of
    # declared constant data, the first term of a signal's sum by parts
    f0 = np.asarray(source if const else source(np.array([warp.a]))[:, 0],
                    dtype=float)[:, None]
    for b, on, scl in parts:
        e = next(E) if on else sp.rgamma(b + 1.0)  # E_{alpha,b+1}(0)
        out += scl * f0 * Sa ** b * e
    pos = np.flatnonzero(Sa > 0.0)
    if const or not pos.size:
        return out
    S = Sa[pos]
    # c_i = y_i/S, the same for every target
    ratios = tuple(1.0 - np.linspace(0.0, 1.0, conv_cells + 1) ** 2)
    kernels = tuple((b + 2.0, on) for b, on, _ in parts)
    if source.factor is not None:
        memo = _factor_sums(source.factor, warp, conv_cells, S.tobytes(),
                            alpha, kernels)
    for blk in _finish_slices(pos.size, _conv_rows(conv_cells), Z.shape[0]):
        idx = pos[blk]
        if source.factor is None:
            sums = _node_sums(source.g, warp, conv_cells, S[blk], alpha,
                              kernels)
        else:
            sums = [tuple(a[..., blk] for a in node) for node in memo]
        for (b, on, scl), node in zip(parts, sums):
            # sum_i slopes_i (Q_i+1 - Q_i) = -sum_i w_i Q_i, Q_i = S^(b+1)
            # P_{b+2}(x, c_i) at x = -lam S^alpha for each mode, or x = 0
            if on:
                fin = _ml_finish(alpha, b + 2.0, -Z[:, idx], node, ratios)
            else:
                fin = np.broadcast_to(node[0], (Z.shape[0], idx.size)).copy()
            if source.C is not None:
                fin *= source.C
            out[:, idx] += scl * Sa[idx] ** (b + 1.0) * fin
    return out


def _check_t_grid(t_grid, a: float, T: float = math.inf) -> np.ndarray:
    """A 1-d, finite, strictly increasing time grid inside (a, T]."""
    t = _real_array("times", t_grid)
    if (t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t))
            or not np.all(np.diff(t) > 0.0)):
        raise DomainError("times must be 1-d, finite and strictly increasing")
    if t[0] <= a or t[-1] > T * (1.0 + 1e-12):
        raise DomainError(f"times must lie inside (a, T] = ({a}, {T}]")
    return t


def mode_solution(ode: ModeODE, t_grid) -> ModeTrajectory:
    """u_k on t_grid via the single-kernel form

    u_k(t) = phi_k E_{a,1}(l* s^a)
             + p^-a int_0^s (s-sigma)^{a-1} E_{a,a}(l*(s-sigma)^a) g(sigma) dsigma

    with s = t^p - a^p, l* = -lambda_k/p^a, and g the source in warped time
    (a callable g is integrated over 128 cells).
    """
    t = _check_t_grid(t_grid, ode.warp.a)
    vals = _mode_values(ode, warp_forward(ode.warp, t), "single_kernel",
                        _CONV_CELLS)
    return ModeTrajectory(ode.k, t, vals, "single_kernel")


def mode_solution_alt(ode: ModeODE, t_grid) -> ModeTrajectory:
    """Same contract as mode_solution through the split convolution

    B(s) = p^-a/Gamma(a) int (s-sigma)^{a-1} g
           + l* p^-a int (s-sigma)^{2a-1} E_{a,2a}(l*(s-sigma)^a) g,

    which the ML recurrence identifies with the direct E_{a,a} kernel."""
    t = _check_t_grid(t_grid, ode.warp.a)
    vals = _mode_values(ode, warp_forward(ode.warp, t), "split_kernel",
                        _CONV_CELLS)
    return ModeTrajectory(ode.k, t, vals, "split_kernel")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _projection_defect(W, vals, coeffs, basis) -> float:
    """L2 distance between a function (values at the Gauss points) and its
    projection on the modes whose coefficients are given (basis: the modes
    at the Gauss points).  The Galerkin modes are orthonormal under the rule
    by construction, so this equals sqrt(|f|^2 - sum c_k^2) to roundoff;
    the norm of the difference keeps that true for any basis."""
    res = vals - coeffs @ basis
    return math.sqrt(float(np.dot(W, res * res)))


#: cells of the time table that samples a source's sup and a general f(x, t)
_SOURCE_NODES = 192


def _source_times(spec: ProblemSpec) -> np.ndarray:
    """Time table t(S_T (j/n)^2), j = 0..n = _SOURCE_NODES, on [a, T],
    without the nodes that collapse onto their neighbour in t."""
    warp = spec.warp
    tg = warp_inverse(warp, warp_forward(warp, spec.T)
                      * np.linspace(0.0, 1.0, _SOURCE_NODES + 1) ** 2)
    tg[0], tg[-1] = spec.a, spec.T
    return tg[np.concatenate(([True], np.diff(tg) > 0.0))]


def _source_coeffs(spec: ProblemSpec, K: int, X, W, basis):
    """The modes' source f_k(t) = int f(x,t) v_k(x) dx (None, K declared
    constants, or a _Signal: the time factor mixed by the coefficients of
    fx for a SeparableSource, one curve per mode otherwise), and the
    largest projection defect of f(., t) over [a, T] on the source time
    table."""
    if spec.f is None:
        return None, 0.0
    if isinstance(spec.f, SeparableSource):
        fx = _sampled("f", "(0, 1)", spec.f.fx, X)
        cks = basis @ (W * fx)
        ft = spec.f.ft
        # f - P_K f = ft(t) (fx - P_K fx): the defect scales with |ft|
        fx_defect = _projection_defect(W, fx, cks, basis)
        if _is_real(ft):
            return cks * float(ft), abs(ft) * fx_defect
        ft_table = _sampled("f", "[a, T]", ft, _source_times(spec))
        factor = ft if type(ft) is _TimeFactor else None
        return (_Signal(lambda t: _eval_vec(ft, t)[None], cks[:, None],
                        factor),
                float(np.max(np.abs(ft_table))) * fx_defect)
    # tabulated route: spatial quadrature on a shared warped-graded t-grid,
    # one monotone cubic through the (K, nodes) table
    tg = _source_times(spec)
    F = np.empty((K, tg.size))
    defect = 0.0
    for j, tj in enumerate(tg):
        fj = _sampled("f", "(0, 1) x [a, T]", lambda xx: spec.f(xx, tj), X)
        F[:, j] = basis @ (W * fj)
        defect = max(defect, _projection_defect(W, fj, F[:, j], basis))
    return _Signal(SampledFunction.from_table(tg, F)), defect


def assemble(spec: ProblemSpec, sys: EigenSystem, K: int, x_grid, t_grid,
             conv_cells: int = _CONV_CELLS) -> SolutionField:
    """Truncated eigenfunction-series solution on the tensor grid.

    Projections take 8 Gauss points per cell of the eigensystem's mesh.
    A time-varying source is integrated over conv_cells cells up to each
    time; its sup over [a, T] (for the tail) and a general f(x, t) are
    sampled at up to 193 times, graded toward a.  Populates tail/truncation
    diagnostics.  Residual diagnostics are separate (residual_strong /
    residual_weak)."""
    _check_count("K", K)
    if K > sys.count:
        raise DomainError(f"need 1 <= K <= {sys.count}, got {K}")
    if abs(sys.beta - spec.beta) > 1e-12:
        raise DomainError("eigensystem beta does not match the problem")
    x = _real_array("x_grid", x_grid)
    if x.ndim != 1 or x.size < 2 or not np.all(np.diff(x) > 0.0):
        raise DomainError("x_grid must be 1-d strictly increasing")
    if x[0] < 0.0 or x[-1] > 1.0:
        raise DomainError("x_grid must lie inside [0, 1]")
    t = _check_t_grid(t_grid, spec.a, spec.T)
    _check_count("conv_cells", conv_cells)

    X, W = _gauss_rule(sys)
    basis = _rule_basis(sys, slice(K))
    phi_vals = _sampled("phi", "(0, 1)", spec.phi, X)
    phi_c = basis @ (W * phi_vals)

    _warn_bc_compat(spec, phi_vals)

    source, src_defect = _source_coeffs(spec, K, X, W, basis)
    lams = np.asarray(sys.lambdas[:K], dtype=float)
    modes_at = partial(_modes_values, spec.alpha, spec.warp, lams, phi_c,
                       source, "single_kernel", conv_cells)
    mv = modes_at(warp_forward(spec.warp, t))
    values = mv.T @ sys.basis_matrix(x)[:K]

    diags = _truncation_diagnostics(spec, sys, K, W, basis, phi_vals, phi_c,
                                    src_defect, mv)
    fld = SolutionField(x, t, values, K, spec.regime, diags,
                        mode_lambdas=lams, mode_values=mv, mode_phi=phi_c,
                        mode_sources=source, system=sys, modes_at=modes_at,
                        spec=replace(spec))
    diags["norms"] = asdict(solution_norms(fld, spec))
    return fld


def _warn_bc_compat(spec: ProblemSpec, phi_vals: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(phi_vals))))
    p1 = float(_eval_vec(spec.phi, np.array([1.0]))[0])
    msgs = []
    if abs(p1) > 1e-6 * scale:
        msgs.append(f"phi(1)={p1:.3e} does not vanish at x=1")
    if spec.beta < 1.0:
        p0 = float(_eval_vec(spec.phi, np.array([0.0]))[0])
        if abs(p0) > 1e-6 * scale:
            msgs.append(f"phi(0)={p0:.3e} does not vanish at x=0 (beta<1)")
    for m in msgs:
        warnings.warn(m + "; series convergence near t=a may degrade",
                      stacklevel=3)


def _truncation_diagnostics(spec, sys, K, W, basis, phi_vals, phi_c,
                            src_defect, mv) -> dict:
    phi_defect = _projection_defect(W, phi_vals, phi_c, basis)
    S_T = warp_forward(spec.warp, spec.T)
    p = spec.warp.p
    # crude Duhamel scale for how strongly a source tail can feed the field
    src_gain = S_T ** spec.alpha / (p ** spec.alpha * math.gamma(spec.alpha + 1.0))
    return {
        "phi_projection_defect_l2": phi_defect,
        "source_projection_defect_l2": src_defect,
        "tail_estimate_l2": phi_defect + src_defect * src_gain,
        "lambda_K": float(sys.lambdas[K - 1]),
        "last_mode_sup": float(np.max(np.abs(mv[-1]))),
    }


# ---------------------------------------------------------------------------
# Residual and norm diagnostics
# ---------------------------------------------------------------------------


def _check_field_spec(field: SolutionField, spec: ProblemSpec) -> None:
    """DomainError unless field carries the mode data of an assembly whose
    spec agrees with spec in alpha, theta, beta, a and T: the diagnostics
    read the time setup from spec and the modes from field."""
    if field.mode_lambdas is None or field.spec is None:
        raise DomainError("field carries no mode data")
    for name in ("alpha", "theta", "beta", "a", "T"):
        given, own = getattr(spec, name), getattr(field.spec, name)
        if given != own:
            raise DomainError(f"spec.{name} = {given!r} is not the field's "
                              f"{own!r}")


def _mode_interpolants(field: SolutionField, spec: ProblemSpec,
                       dense_n: int) -> _Pchip:
    """One monotone cubic (PCHIP) through the (K, dense_n + 1) table of the
    modes u_k as functions of warped time s on [0, S_T], densely sampled on
    the same graded family the L1 rule uses.  The table re-samples the
    field's own modes: its source and convolution cells.  At s = 0 that
    is mode_phi bit for bit, as E_{alpha,1}(0) = 1 and no source adds."""
    S_T = warp_forward(spec.warp, spec.T)
    r = min(2.0 / spec.alpha, 12.0)
    sg = S_T * np.linspace(0.0, 1.0, dense_n + 1) ** r
    return _Pchip(sg, field.modes_at(sg))


def _mode_residuals(field, spec, ts, hb_n, dense_n):
    """r[j, k] = D^alpha u_k + lambda_k u_k - f_k at the sample times,
    with the fractional derivative taken numerically (L1) on an
    interpolant of the mode trajectories -- independent of the closed form
    used to produce them.  The L1 sums of every mode at every sample time
    are taken at once, cell by cell on the cubics (fracops._l1_cells).
    Also returns the scale of the terms."""
    u = _mode_interpolants(field, spec, dense_n)
    S = warp_forward(spec.warp, ts)
    hb = spec.warp.p ** spec.alpha * _l1_cells(u, spec.alpha, S, hb_n)
    relax = field.mode_lambdas * u(S).T
    load = _loads(field.mode_sources, field.K, ts).T
    scale = max(float(np.max(np.abs(hb))), float(np.max(np.abs(relax))),
                float(np.max(np.abs(load))), 1e-300)
    return hb + relax - load, scale


def _residual(field: SolutionField, spec: ProblemSpec) -> ResidualReport:
    """The mode residuals at up to 7 times of the field's own t_grid,
    first and last included, reported as their sup over the interior x
    of the field's grid (classical regime) or over the modes (weak
    regime).  A NaN or an infinity confirms nothing about the field, so
    it is a ResolutionError."""
    t = field.t_grid
    ts = t[np.unique(np.linspace(0, t.size - 1, min(7, t.size)).astype(int))]
    r, scale = _mode_residuals(field, spec, ts, _L1_CELLS, _TABLE_CELLS)
    per_mode = np.max(np.abs(r), axis=0)
    if spec.regime == "weak":
        sup_abs = float(np.max(per_mode))
    else:
        xs = field.x_grid[(field.x_grid > 0.0) & (field.x_grid < 1.0)]
        if xs.size < 2:
            xs = np.linspace(0.05, 0.95, 19)
        sup_abs = float(np.max(np.abs(
            r @ field.system.basis_matrix(xs)[: field.K])))
    if not (math.isfinite(sup_abs) and math.isfinite(scale)):
        raise ResolutionError(f"residual is not finite: sup {sup_abs}, "
                              f"scale {scale}")
    return ResidualReport(sup_abs, sup_abs / scale, scale, ts, per_mode)


def residual_strong(field: SolutionField, spec: ProblemSpec) -> ResidualReport:
    """Pointwise residual D^alpha u - (x^beta u_x)_x - f of the assembled
    field, evaluated mode-wise through the eigen identity
    (x^beta v_k')' = -lambda_k v_k.  Classical regime (beta < 1) only."""
    _check_field_spec(field, spec)
    if spec.regime != "classical":
        raise RegimeError(
            f"strong residual needs the classical regime (beta < 1), "
            f"got beta={spec.beta}")
    return _residual(field, spec)


def residual_weak(field: SolutionField, spec: ProblemSpec) -> ResidualReport:
    """Weak-form residual against each computed mode v_k as test function:
    D^alpha (u, v_k) + lambda_k u_k - (f, v_k) at the sample times.  Weak
    regime (beta > 1) only.  The source's part outside the span of the
    modes is the assembly's source_projection_defect_l2."""
    _check_field_spec(field, spec)
    if spec.regime != "weak":
        raise RegimeError(
            f"weak residual needs the weak regime (beta > 1), "
            f"got beta={spec.beta}")
    return _residual(field, spec)


def solution_norms(field: SolutionField, spec: ProblemSpec) -> NormReport:
    """Sup-in-time L2, weighted-energy and weighted-Sobolev norms of the
    assembled field (via Parseval in the orthonormal eigenbasis), plus the
    raw values of the three series controlling the a-priori estimate."""
    _check_field_spec(field, spec)
    mv = field.mode_values
    lam = field.mode_lambdas
    l2_t = np.sqrt(np.sum(mv ** 2, axis=0))
    en_t = np.sqrt(np.sum(lam[:, None] * mv ** 2, axis=0))
    series_phi = float(np.sum(lam ** 2 * field.mode_phi ** 2))
    s_a = 0.0
    s_d = 0.0
    if field.mode_sources is not None:
        tg = np.linspace(spec.a, spec.T, 257)
        # below ~256 ulps of T between a and T the nodes repeat
        tg = tg[np.concatenate(([True], np.diff(tg) > 0.0))]
        F = _loads(field.mode_sources, field.K, tg)
        fd = np.gradient(F, tg, axis=1)
        # summed mode by mode in order; np.sum pairs terms up and moves
        # the last bit of the diagnostics
        s_a = float(sum(lam ** 2 * F[:, 0] * F[:, 0]))
        s_d = float(sum(lam ** 2 * np.trapezoid(fd ** 2, tg, axis=1)))
    return NormReport(
        sup_l2=float(np.max(l2_t)),
        sup_energy=float(np.max(en_t)),
        sup_weighted=float(np.max(np.sqrt(l2_t ** 2 + en_t ** 2))),
        series_phi=series_phi,
        series_source_a=s_a,
        series_source_deriv=s_d,
    )
