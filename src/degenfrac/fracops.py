"""Fractional operators in time.

The regularized hyper-Bessel derivative of order alpha with arbitrary
starting point a, and the L1 discretization of the classical Caputo
derivative that powers it after the change of variable s = t^p - a^p
(p = 1 - theta), which turns the hyper-Bessel operator into p^alpha times
a plain Caputo derivative in s.

_l1_rows is the one L1 rule, for every alpha in (0, 1], on one grid or
on a stack of grids, and the only code that forms L1 weights: the FD
oracle's march applies its blocks of rows to the increments of the data,
hb_caputo takes the last row of its one grid, and the residual's
_l1_cells the last row of each grid of its stack.  At alpha = 1 the rows
are backward differences.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, _check_alpha, _check_count, _is_real,
                     _real_array)


@dataclass(frozen=True)
class TimeWarp:
    """Time variable change s(t) = t^p - a^p with p = 1 - theta.

    Strictly increasing for t > a whenever theta < 1, with s(a) = 0.
    """

    theta: float
    a: float = 0.0

    def __post_init__(self):
        if not (_is_real(self.theta) and self.theta < 1.0):
            raise DomainError(f"theta must be a finite real < 1, "
                              f"got {self.theta!r}")
        if not (_is_real(self.a) and self.a >= 0.0):
            raise DomainError(f"a must be a finite real >= 0, got {self.a!r}")

    @property
    def p(self) -> float:
        return 1.0 - self.theta


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end node, kept from overshooting
    (Moler, Numerical Computing with MATLAB, sec. 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    wrong_sign = np.sign(d) != np.sign(m0)
    overshoot = ((np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
                 & ~wrong_sign)
    return np.where(wrong_sign, 0.0, np.where(overshoot, 3.0 * m0, d))


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant (PCHIP) of a table
    values[..., i] over strictly increasing nodes[i], one curve per leading
    index.  Interior slopes are the weighted harmonic mean of the adjacent
    secants (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5 (1984)
    300-304), zero at a local extremum; the end slopes follow
    _pchip_end_slope, and a two-node table is linear.  These are SciPy's
    PCHIP rules, and each cell's cubic is evaluated in SciPy's power form,
    so the tests hold the two to 1e-14.  Beyond the end nodes the end
    cubics extrapolate.  A call at points of shape P returns
    values.shape[:-1] + P.
    """

    def __init__(self, nodes, values):
        x = np.asarray(nodes, dtype=float)
        y = np.asarray(values, dtype=float)
        h = np.diff(x)
        m = np.diff(y, axis=-1) / h
        if x.size == 2:
            d = np.concatenate((m, m), axis=-1)
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            ml, mr = m[..., :-1], m[..., 1:]
            flat = (np.sign(mr) != np.sign(ml)) | (mr == 0) | (ml == 0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                hmean = (w1 / ml + w2 / mr) / (w1 + w2)
                inner = np.where(flat, 0.0, 1.0 / hmean)
            d = np.concatenate((
                _pchip_end_slope(h[0], h[1], m[..., :1], m[..., 1:2]),
                inner,
                _pchip_end_slope(h[-1], h[-2], m[..., -1:], m[..., -2:-1])),
                axis=-1)
        t = (d[..., :-1] + d[..., 1:] - 2 * m) / h
        self._x = x
        self._c = (t / h, (m - d[..., :-1]) / h - t, d[..., :-1], y[..., :-1])

    def __call__(self, xp):
        xp = np.asarray(xp, dtype=float)
        i = np.clip(np.searchsorted(self._x, xp, side="right") - 1,
                    0, self._x.size - 2)
        s = xp - self._x[i]
        c0, c1, c2, c3 = (c[..., i] for c in self._c)
        s2 = s * s
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


class SampledFunction:
    """A function of one variable: either a wrapped callable or a
    monotone-cubic interpolant (_Pchip) through a table of nodes/values.
    A (K, n) table holds K curves; its value at t has shape (K,) + t.shape."""

    def __init__(self, fn: Callable, domain: Optional[tuple] = None):
        self._fn = fn
        self.domain = domain

    @classmethod
    def from_table(cls, nodes, values) -> "SampledFunction":
        nodes = _real_array("table nodes", nodes)
        values = _real_array("table values", values)
        if (nodes.ndim != 1 or nodes.size < 2 or values.ndim not in (1, 2)
                or values.shape[-1] != nodes.size):
            raise DomainError("table needs 1-d nodes and (n,) or (K, n) values")
        if not np.all(np.diff(nodes) > 0.0):
            raise DomainError("table nodes must be strictly increasing")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise DomainError("table entries must be finite")
        pchip = _Pchip(nodes, values)
        # K curves answer in C order, one curve after another, so that
        # sums over time run as they do on K one-curve tables
        fn = pchip if values.ndim == 1 else (
            lambda t: np.ascontiguousarray(pchip(t)))
        return cls(fn, domain=(float(nodes[0]), float(nodes[-1])))

    def __call__(self, t):
        if self.domain is not None:
            lo, hi = self.domain
            pad = 1e-12 * (1.0 + abs(hi))
            if np.any(np.asarray(t) < lo - pad) or np.any(np.asarray(t) > hi + pad):
                raise DomainError(f"evaluation outside domain [{lo}, {hi}]")
        out = np.asarray(self._fn(t), dtype=float)
        return float(out) if out.ndim == 0 else out


def _shift(warp: TimeWarp, like):
    """a^p by the pow that like ** p takes: numpy's vector pow and C pow
    can differ in the last bit, and s(a) must be 0 exactly."""
    a = np.asarray(warp.a) if isinstance(like, np.ndarray) else warp.a
    return a ** warp.p


def warp_forward(warp: TimeWarp, t):
    """s = t^p - a^p for a scalar or an array t >= a."""
    if np.any(t < warp.a) if isinstance(t, np.ndarray) else t < warp.a:
        raise DomainError(f"t={np.min(t)} below starting point a={warp.a}")
    return t ** warp.p - _shift(warp, t)


def warp_inverse(warp: TimeWarp, s):
    """t = (s + a^p)^(1/p) for a scalar or an array s >= 0."""
    if np.any(s < 0.0) if isinstance(s, np.ndarray) else s < 0.0:
        raise DomainError(f"warped time must be >= 0, got {np.min(s)}")
    return (s + _shift(warp, s)) ** (1.0 / warp.p)


def graded_grid(length: float, n: int, exponent: float) -> np.ndarray:
    """Nodes length * (j/n)^exponent, j = 0..n, clustered at 0 for exponent > 1."""
    if not (_is_real(length) and length >= 0.0):
        raise DomainError(f"need a finite length >= 0, got {length!r}")
    _check_count("n", n)
    if not (_is_real(exponent) and exponent > 0.0):
        raise DomainError(f"need a finite exponent > 0, got {exponent!r}")
    return length * np.linspace(0.0, 1.0, n + 1) ** exponent


def _l1_rows(alpha: float, s: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """The L1 rule for the Caputo derivative of order alpha in (0, 1] at
    the nodes n0 <= n < n1 of a grid s, shape (n1 - n0, n1 - 1), or of
    each grid of a stack s of shape (..., m), shape (..., n1 - n0, n1 - 1):
    row n holds the weights w_j of D^alpha g(s_n) ~ sum_j w_j (g_{j+1} -
    g_j),

        w_j = (d_j^e - d_{j+1}^e) / (Gamma(2 - alpha) ds_j),
        e = 1 - alpha, d_j = s_n - s_j, ds_j = s_{j+1} - s_j,

    for j < n and zeros beyond, so a block applies to the increments as
    one product.  The difference of powers is formed as d_j^e
    (1 - (1 - ds_j / d_j)^e), with the logarithm and the exponential of
    that power each taken near 1 without cancellation, which would zero
    out cells finer than ~eps s_n on strongly graded grids.  The last
    cell's d_{n-1}^e - 0^e is written ds^e, whose limit at alpha = 1 is 1:
    there every other weight is 0, and the rule is the backward difference
    1/ds_{n-1}.  A zero-length cell (a repeated node) weighs 0, so each
    row is bit for bit the row of its grid with the repeated nodes
    dropped."""
    e = 1.0 - alpha
    ds = np.diff(s[..., :n1], axis=-1)[..., None, :]
    d = s[..., n0:n1, None] - s[..., None, :n1 - 1]
    # j >= n - 1 and zero cells divide by 0: set or zeroed below
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.divide(-ds, d)
        np.log1p(w, out=w)
        w *= e
        np.expm1(w, out=w)
        np.negative(w, out=w)
        d **= e
        w *= d
        w = np.tril(w, n0 - 2)
        r = np.arange(n1 - n0)
        w[..., r, n0 - 1 + r] = ds[..., 0, n0 - 1:] ** e
        w /= ds * math.gamma(2.0 - alpha)
    return w if np.all(ds > 0.0) else np.where(ds > 0.0, w, 0.0)


def hb_caputo(f, alpha: float, warp: TimeWarp, t: float, n: int = 2048,
              warped: bool = False):
    """Regularized Caputo-like hyper-Bessel derivative of order alpha at t.

    Evaluated as p^alpha times the classical Caputo derivative of
    g(s) = f(t(s)) in warped time, on a grid graded toward s = 0.

    With warped=True, f is taken to be g directly (a function of s on
    [0, s(t)]).  For a > 0 this sidesteps the resolution floor of the
    t parameterization: t cannot represent warped times below about
    ulp(a^p), so steeply graded nodes would otherwise collapse.

    f may return values with leading axes, shape (..., nodes); the result
    then has those leading axes, and one grid and one L1 weight row serve
    every curve.  That row is the last one _l1_rows gives on the grid.  A
    t > a whose s(t) rounds to 0 leaves no grid and is a DomainError.
    """
    _check_alpha(alpha)
    if not isinstance(warp, TimeWarp):
        raise DomainError(f"warp must be a TimeWarp, got {warp!r}")
    # one real: a number, or a 0-d array of bools, integers or floats
    one = isinstance(t, Real) or (isinstance(t, (np.ndarray, np.generic))
                                  and t.shape == () and t.dtype.kind in "biuf")
    if not (one and warp.a < t < math.inf):
        raise DomainError(f"need one finite real t > a, got t={t!r}, "
                          f"a={warp.a}")
    _check_count("n", n)
    S = warp_forward(warp, t)
    if S == 0.0:
        raise DomainError(f"t={t!r} has s(t) = 0: t^p rounds onto a^p")
    s = graded_grid(S, n, 2.0 / alpha)
    # below alpha ~ 0.02 the first nodes underflow onto s = 0: one is kept
    s = s[np.concatenate(([True], np.diff(s) > 0.0))]
    if warped:
        gv = np.asarray(f(s), dtype=float)
    else:
        shift = warp.a ** warp.p
        if shift > 0.0:
            # a*exp(log1p(s/shift)/p) keeps t - a accurate for tiny s
            tt = warp.a * np.exp(np.log1p(s / shift) / warp.p)
            # drop nodes whose t collapsed onto the previous one; they carry
            # no information and put spurious spikes into the L1 slopes
            keep = np.concatenate(([True], np.diff(tt) > 0.0))
            s, tt = s[keep], tt[keep]
        else:
            tt = s ** (1.0 / warp.p)
        tt[0] = warp.a
        tt[-1] = t
        gv = np.asarray(f(tt), dtype=float)
    if not np.all(np.isfinite(gv)):
        raise DomainError("f must be finite on [a, t]")
    # only the final L1 row is needed here
    w = _l1_rows(alpha, s, s.size - 1, s.size)[0]
    out = warp.p ** alpha * (np.diff(gv) @ w)
    return float(out) if np.ndim(out) == 0 else out


@functools.lru_cache(maxsize=1)
def _l1_moments(nodes: bytes, alpha: float, S: bytes, n: int) -> tuple:
    """The curve-free half of _l1_cells: its three read-only (J, cells)
    moment matrices L_1, L_2, L_3 for the table nodes and the warped
    sample times S_j > 0, both given as the bytes of float64 arrays.  They
    depend on no curve, so a sweep that keeps the time setup (alpha, the
    sample times and the table's nodes) and changes only the curves reads
    them from the cache; a key holds 3 J cells doubles.  The weights are
    the last rows of one _l1_rows call on the stack of hb_caputo's J
    grids, whose zero-length cells (nodes that underflow onto 0) weigh 0.

    hb_caputo's nodes of each sample time form one chain of nodes and of
    flat cell indices j N + c: the step from one grid's last node to the
    next grid's first is an interval of weight 0.  Each L1 interval
    [s_i, s_i+1] contributes w_i (hi^q - lo^q) to the cells it meets, with
    lo and hi the offsets of the piece from its cell's start.  A cell lying
    wholly inside an interval (where the L1 grid is coarser than the table)
    takes that interval's weight through one cumulative sum."""
    x = np.frombuffer(nodes)
    S = np.frombuffer(S)
    J, N = S.size, x.size - 1
    # the kept block goes first, below the temporaries: allocated after
    # them, it would sit amid their freed space for the cache's lifetime
    moments = np.empty((3, J, N))
    s = S[:, None] * graded_grid(1.0, n, 2.0 / alpha)
    h = np.diff(x)
    w = np.concatenate((_l1_rows(alpha, s, n, n + 1)[:, 0],
                        np.zeros((J, 1))), axis=1).ravel()[:-1]
    c = np.searchsorted(x[1:-1], s, side="right")
    off = (s - x[c]).ravel()
    c = (c + N * np.arange(J)[:, None]).ravel()
    c0, c1, lo, hi = c[:-1], c[1:], off[:-1], off[1:].copy()
    # an interval that leaves its first cell: that cell's piece ends at the
    # cell's end, and its last cell takes the piece [0, b]
    cut = np.flatnonzero(c1 > c0)
    hf = np.tile(h, J)
    b, wc, c1c = hi[cut], w[cut], c1[cut]
    hi[cut] = hf[c0[cut]]
    wd = w * (hi - lo)
    wb = wc * b
    # +w from the cell after the first, -w from the last: the running sum
    # holds one interval's weight at a time, so it is exact
    inside = np.cumsum(np.bincount(np.concatenate((c0[cut] + 1, c1c)),
                                   np.concatenate((wc, -wc)), J * N))
    for q, first, last in ((1, wd, wb),
                           (2, wd * (hi + lo), wb * b),
                           (3, wd * (hi * (hi + lo) + lo * lo), wb * b * b)):
        moments[q - 1] = (np.bincount(c0, first, J * N)
                          + np.bincount(c1c, last, J * N)
                          + inside * hf ** q).reshape(J, N)
    moments.flags.writeable = False
    return tuple(moments)


def _l1_cells(table: _Pchip, alpha: float, S: np.ndarray, n: int) -> np.ndarray:
    """The L1 sum that hb_caputo(table, alpha, warp, t_j, n, warped=True)
    takes before its factor p^alpha, at the warped times S_j > 0 of t_j and
    for every curve of a (K, cells + 1) table at once: shape (J, K).

    The nodes and weights are hb_caputo's; only the summation differs.
    Each increment g(s_i+1) - g(s_i) is summed from the cubics of the table
    cells that [s_i, s_i+1] meets, as c2 (hi - lo) + c1 (hi^2 - lo^2) +
    c0 (hi^3 - lo^3), so no interpolated value is differenced.  Weighted
    and summed over i, these moments form three (J, cells) matrices L_q
    that no curve enters (_l1_moments, cached), and the sums are three
    products of L_q with the coefficients.
    """
    cubic, quadratic, linear, _ = table._c
    moments = _l1_moments(table._x.tobytes(), alpha,
                          np.asarray(S, dtype=float).tobytes(), n)
    out = 0.0
    for L, coef in zip(moments, (linear, quadratic, cubic)):
        out = out + L @ coef.T
    return out
