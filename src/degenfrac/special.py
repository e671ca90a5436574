"""Special functions used by the solvers.

Two-parameter Mittag-Leffler function E_{alpha,beta}(z) on the real line
(high accuracy on the negative ray, where the relaxation kernels live),
and an empirical fit of the algebraic decay bound

    |E_{alpha,beta}(-x)| <= M / (1 + x),   x >= 0,  0 < alpha < 2.

Mittag-Leffler routes.  One dispatcher, _ml, picks them, first match wins:

1. alpha = 1, beta = n in 1..4: (e^z - sum_{k<n-1} z^k/k!)/z^(n-1), its
   Taylor series for |z| < 1.
2. 0 < alpha < 1, z <= 0, alpha - 2 <= beta <= 2 alpha + 4: the trapezoid
   rule on one fixed parabolic Hankel contour (mu = 4, h = 0.12, nodes
   u = 0..46 h on its upper half, of which c = 1 needs the first 33), all
   betas in one pass.  It is the one-column case c = 1 of the ratio
   tables P_B(x, c) = c^(B-1) E_{alpha,B}(-x c^alpha) (_ml_table), whose
   rule also serves the solver's source convolution at every
   0 < alpha <= 1 (at alpha = 1 the pole sits on the cut, inside the
   parabola, and the convolution's kernels B = 3, 4 match route 1 to
   1e-14): ratios in a band hi/4 < c <= hi, hi = 4^-m, share one table
   built from e^(s c/hi) and cached per (alpha, betas, ratios)
   (_band_tables).  _ml_table reads a band with one real GEMM.  A
   convolution is summed by parts against the same bands without forming
   P, in an x-free half (_ml_node_sums: the band GEMMs on the
   convolution's weights) and an x-dependent finish (_ml_finish: each
   row's reciprocals), so a caller that keeps the weights may keep the
   first half too; a kernel whose rows all have x = 0 needs only the sum
   against its exact values (_ml_exact_sums).  Public values at alpha = 1
   keep route 1.
3. Every other point, one by one (_ml_scalar):
   a. z > 0: the series up to z^(1/alpha) = 40, then the exponential
      asymptotics (in log form up to the double limit);
   b. -1 <= z <= 0: the series;
   c. z < -1: order halving onto 1/2 <= alpha/2^m < 1 (m = 0 below
      alpha = 1, one halving onto 1/2 at alpha = 1), each root on the
      contour of route 2 or, for a pole off the cut, Garrappa's pole-aware
      contour; ResolutionError past the same beta bound.

Each route returns 1/Gamma(beta) exactly at z = 0: the Taylor series and
the defining series by their first term, the ratio tables by their
x = 0 value.

Bessel zeros.  _bessel_j_zeros finds the first k zeros of J_nu in one
sweep: a scan in unit steps, which brackets each zero alone because
consecutive zeros lie more than 3 apart, then one batched bisection down
to adjacent doubles.

Accuracy contract: see ml_eval_many.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special as sp

from .errors import DomainError, ResolutionError, _is_real, _real_array


# ---------------------------------------------------------------------------
# Mittag-Leffler: the defining series
# ---------------------------------------------------------------------------

#: largest |z| handled by the defining series on the negative half-line.
#: Beyond it the alternating series loses digits like exp(|z|**(1/alpha)),
#: so the integral representation takes over.
_SERIES_NEG_CUT = 1.0

#: z**(1/alpha) threshold separating series from exponential asymptotics
#: on the positive half-line (no cancellation there, only term count).
#: By tau = 40 the e^tau principal term dwarfs the truncated algebraic
#: tail of the asymptotic branch, so the switch costs no relative digits.
_SERIES_POS_TAU = 40.0

#: past this exponent the exponential branches take their log form
_EXP_CUT = 700.0

_TERM_CAP = 500  # default series length cap; extended only on the safe z > 0 side


def _ml_series(alpha: float, beta: float, z: float, cap: int = _TERM_CAP) -> float:
    """Defining power series with compensated summation, for real z.

    Safe whenever |z|**(1/alpha) is small enough that the largest term
    stays O(1) (negative z) or unconditionally for z >= 0.
    """
    s = 0.0
    comp = 0.0
    zk = 1.0
    small_run = 0
    for k in range(cap):
        term = zk * sp.rgamma(alpha * k + beta)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        zk = zk * z
        if abs(term) < 1e-18 * (1.0 + abs(s)):
            small_run += 1
            if small_run >= 4:
                break
        else:
            small_run = 0
    return s


# ---------------------------------------------------------------------------
# Mittag-Leffler: trapezoid rule on a parabolic Hankel contour, 0 < alpha < 1
# ---------------------------------------------------------------------------
# E_{alpha,beta}(z) = (1/2 pi i) int_C e^s s^(alpha-beta) / (s^alpha - z) ds
# over a contour C round the cut s <= 0 with every pole to its left.  On the
# parabola s(u) = mu (1 + iu)^2, e^s decays like exp(-mu u^2), the cut sits
# at Im u = 1, and the trapezoid rule in u converges geometrically
# (Weideman & Trefethen, Math. Comp. 76 (2007) 1341-1356; Garrappa, SIAM
# J. Numer. Anal. 53 (2015) 1350-1369).  A contour costs a few array
# operations to build, so only the band tables of the ratios, which every
# block of a source convolution reuses, are cached (Lopez-Fernandez,
# Lubich & Schaedle, SIAM J. Sci. Comput. 30 (2008) 1015-1037: one contour
# serves a geometric band of a memory convolution).

#: the parabola for arguments with no pole on the principal sheet (every
#: z <= 0) or a pole on the cut, also rescaled by the ratio bands of
#: _ml_table: roundoff amplified by e^mu ~ 55, a step h fine enough for
#: the origin singularity s^(alpha-beta) within the beta bound of
#: _on_contour, and truncation exp(mu c (1 - (N h)^2)) below 2e-13 at the
#: band edge c = 1/4, where the decay of s^(alpha-B)/(s^alpha + x) brings
#: it below 1e-14 relative for B >= alpha + 1
_MU, _H, _N = 4.0, 0.12, 46


def _on_contour(alpha, beta):
    """Whether the contours serve beta at order alpha (elementwise for
    arrays): alpha - 2 <= beta <= 2 alpha + 4.  Above, s^(alpha-beta) is too
    sharp at the origin for the step h; below, it outgrows the truncation
    at u = N h and the roundoff.  Against mpmath at 25 digits (9 alphas in
    [0.05, 0.99], -z from 1e-6 to 1e6) the rule held 5e-13 (1 + |E|) to
    5.4e-14 at alpha - 2 and 1.7e-15 at 2 alpha + 4; past the bound it
    gave 3.5e-13 at alpha - 3.5 and 9.2e-15 at 2 alpha + 5.  The solver's
    largest kernel is beta = 2 alpha + 2."""
    return (beta >= alpha - 2.0) & (beta <= 2.0 * alpha + 4.0)


_LOG_EPS = math.log(np.finfo(float).eps)


def _parabola(mu: float, h: float, n: int, k0: int):
    """Nodes s(u_k) and weights h ds/du at u_k = h k, k = k0..n."""
    u = h * np.arange(k0, n + 1)
    return mu * (1.0 + 1j * u) ** 2, 2j * h * mu * (1.0 + 1j * u)


#: a node whose e^(Re s c) stays below e^-55 = 1e-24 for every ratio c of
#: a band adds below 1e-20 to any kernel within the beta bound, and is
#: left out of that band: a band of c = 1 alone keeps 33 of the 47 nodes
_LOG_NEGLIGIBLE = -55.0


def _bands(c: tuple) -> tuple:
    """The ratios c (decreasing, in [0, 1]) cut into bands hi/4 < c <= hi,
    hi = 4^-m: per band its column slice, hi and the table
    E = e^(s_j c/hi), one row per node u_j >= 0 of the fixed parabola
    that is not negligible in the band.  Columns with c = 0 are in no
    band."""
    c = np.asarray(c, dtype=float)
    s = _parabola(_MU, _H, _N, 0)[0]
    out, lo, hi = [], 0, 1.0
    while lo < c.size and c[lo] > 0.0:
        end = lo + int(np.count_nonzero(c[lo:] > 0.25 * hi))
        if end > lo:
            r = c[lo:end] / hi
            nodes = np.count_nonzero(s.real * r[-1] > _LOG_NEGLIGIBLE)
            out.append((slice(lo, end), hi,
                        np.exp(np.multiply.outer(s[:nodes], r))))
        lo, hi = end, 0.25 * hi
    return tuple(out)


#: rows per chunk of _ml_table: a chunk's temporaries are its reciprocals
#: [d; x d], (2 nodes, chunk) at 0.4 MB, and one band's product,
#: (chunk, len(betas) band columns) at up to 0.5 MB per beta
_CHUNK = 512

#: beyond this x the rule is summed in its large-x form, d = 0 and
#: x d = 1/x, exact to |s^alpha/x| < 1e-98 relative, before (p + x)^2
#: could overflow
_FAR = 1e100


def _exact(b: np.ndarray, c: tuple) -> np.ndarray:
    """P_B(0, c) = c^(B-1)/Gamma(B) for each B in b: shape (b.size, len(c))."""
    return np.asarray(c, dtype=float) ** (b[:, None] - 1.0) * sp.rgamma(b)[:, None]


@functools.lru_cache(maxsize=32)
def _band_tables(alpha: float, betas: tuple, c: tuple) -> tuple:
    """The x-free half of the ratio tables of _ml_table, built once per
    (alpha, betas, ratios): (p, q, exact, bands), with v^alpha = p + iq at
    the nodes u >= 0 of the fixed parabola, exact = c^(B-1)/Gamma(B), shape
    (len(betas), len(c)), and per band of _bands(c) its column slice, hi
    and the read-only (2 m, len(betas) * band columns) table
    [p Im G - q Re G; Im G] of G = hi^(B-1) v^(alpha-B) (dv/du)
    e^(v c/hi) / pi over the band's m nodes.  A key holds about 100 KB
    for one B and the 129 ratios of the default convolution."""
    v, dv = _parabola(_MU, _H, _N, 0)
    dv[0] *= 0.5
    va = v**alpha
    p, q = va.real, va.imag
    b = np.asarray(betas, dtype=float)
    W = v ** (alpha - b[:, None]) * dv / math.pi
    exact = _exact(b, c)
    exact.flags.writeable = False
    bands = []
    for cols, hi, E in _bands(c):
        m = E.shape[0]
        # G, (betas, nodes, cols), and the band's table for [d | x d]
        G = (W[:, :m] * hi ** (b - 1.0)[:, None])[:, :, None] * E
        table = np.concatenate((p[:m, None] * G.imag - q[:m, None] * G.real, G.imag),
                               axis=1).transpose(1, 0, 2).reshape(2 * m, -1)
        table.flags.writeable = False
        bands.append((cols, hi, table))
    return p, q, exact, tuple(bands)


def _ml_table(alpha: float, betas, x: np.ndarray, c: tuple) -> np.ndarray:
    """P_B(x, c) = c^(B-1) E_{alpha,B}(-x c^alpha) for 0 < alpha <= 1, real
    x >= 0 (rows), the ratios c (columns: a tuple, decreasing, in [0, 1])
    and each B in betas: shape (len(betas), x.size, len(c)).  Bands below
    c = 1 hold the bound of _MU for B >= alpha + 1, so at alpha = 1 the
    tables serve B >= 2, the source convolution's kernels B = 3 and 4;
    there the pole v = -x lies on the cut, inside the parabola.

    With s = v c in the Hankel integral, P_B(x, c) = (1/2 pi i) int e^(v c)
    v^(alpha-B) / (v^alpha + x) dv: c enters only through e^(v c).  For
    real arguments the rule is (1/pi) Im of the sum over the nodes u >= 0
    (half weight at u = 0).  A band hi/4 < c <= hi takes x hi^alpha and
    c/hi on the fixed parabola and gains hi^(B-1): with the band's cached
    E = e^(v c/hi), G = hi^(B-1) v^(alpha-B) (dv/du) E / pi and
    v^alpha = p + iq, each node adds
    Im G/(v^alpha + x) = d (p Im G - q Re G) + x d Im G,  d = 1/|v^alpha + x|^2.
    Only the reciprocals d depend on x, one set per row and band, shared
    by every B; the rest is a table per band (_band_tables, cached), so
    each band is one real GEMM [d | x d] @ [p Im G - q Re G; Im G] over
    every B and ratio at once.  Where x c^alpha = 0 the value is
    c^(B-1)/Gamma(B) exactly."""
    b = np.asarray(betas, dtype=float)
    p, q, exact, bands = _band_tables(alpha, tuple(b.tolist()), c)
    x = np.asarray(x, dtype=float).ravel()
    out = np.empty((b.size, x.size, len(c)))
    # the columns c = 0, after the last band
    rest = slice(bands[-1][0].stop if bands else 0, None)
    out[:, :, rest] = exact[:, None, rest]
    for cols, hi, table in bands:
        m = table.shape[0] // 2
        ncols = cols.stop - cols.start
        xh = x * hi**alpha
        near = np.minimum(xh, _FAR)
        q2 = (q[:m] ** 2)[:, None]
        # [d; x d] with the rows on the last axis, read by the GEMM transposed
        d = np.empty((2, m, min(x.size, _CHUNK)))
        for lo in range(0, x.size, _CHUNK):
            xs = near[lo:lo + _CHUNK]
            dk = d[:, :, :xs.size]
            np.add.outer(p[:m], xs, out=dk[0])
            dk[0] *= dk[0]
            dk[0] += q2
            np.reciprocal(dk[0], out=dk[0])
            np.multiply(dk[0], xs, out=dk[1])
            val = dk.reshape(2 * m, xs.size).T @ table
            out[:, lo:lo + xs.size, cols] = (
                val.reshape(xs.size, b.size, ncols).transpose(1, 0, 2))
        far = np.flatnonzero(xh > _FAR)
        if far.size:  # d = 0 and x d = 1/x
            val = np.multiply.outer(1.0 / xh[far], table[m:].sum(axis=0))
            out[:, far, cols] = (
                val.reshape(far.size, b.size, ncols).transpose(1, 0, 2))
    out[:, x == 0.0] = exact[:, None, :]
    return out


#: rows x[k, j] per chunk of _ml_finish: its two (nodes, rows)
#: temporaries take up to 3 MB each
_SUM_ROWS = 8192


def _ml_node_sums(alpha: float, B: float, coef: np.ndarray,
                  c: tuple) -> tuple:
    """The x-free half of the sums sum_i coef[r, j, i] P_B(x[k, j], c_i)
    (_ml_finish) for coefficients of shape (R, J, len(c)), with the J
    targets on the last axis of each array: (rest, whole, *Y).  rest and
    whole, shape (R, J), sum coef against the exact values
    c^(B-1)/Gamma(B) over the columns c = 0 and over every column; per
    band of _band_tables, one GEMM Y = table @ coef[..., band].T gives
    its node sums Y0, Y1, shape (2, m, R, J)."""
    _, _, exact, bands = _band_tables(alpha, (float(B),), c)
    exact = exact[0]
    R, J = coef.shape[:2]
    # the columns c = 0, after the last band
    rest = slice(bands[-1][0].stop if bands else 0, None)
    return (coef[..., rest] @ exact[rest], coef @ exact,
            *((table @ coef[..., cols].reshape(R * J, -1).T)
              .reshape(2, table.shape[0] // 2, R, J)
              for cols, _, table in bands))


def _ml_exact_sums(B: float, coef: np.ndarray, c: tuple) -> np.ndarray:
    """The whole sum of _ml_node_sums alone, sum_i coef[r, j, i]
    c_i^(B-1)/Gamma(B), shape (R, J): the value of _ml_finish on rows
    with x = 0, with no band table and no band GEMM."""
    return coef @ _exact(np.array([float(B)]), c)[0]


def _ml_finish(alpha: float, B: float, x: np.ndarray, sums: tuple,
               c: tuple) -> np.ndarray:
    """sum_i coef[r, j, i] P_B(x[k, j], c_i) for x >= 0 of shape (K, J),
    from the node sums (_ml_node_sums) of coefficients of shape
    (R, J, len(c)), R = 1 (one set shared by every k) or R = K: shape
    (K, J).  The rule of _ml_table, summed before the table is formed:
    each row finishes its sum with its own reciprocals, sum over the
    nodes of (Y0 + x' Y1) / |v^alpha + x'|^2, x' = x hi^alpha, so no
    (K J, len(c)) table of P is built.  Rows with x = 0 and columns with
    c = 0 take the exact value c^(B-1)/Gamma(B), and far rows the
    large-x form."""
    p, q, _, bands = _band_tables(alpha, (float(B),), c)
    rest, whole, *Ys = sums
    K, J = x.shape
    live = x > 0.0
    if not np.any(live):
        return np.broadcast_to(whole, x.shape).copy()
    out = np.broadcast_to(rest, x.shape).copy()
    step = max(1, _SUM_ROWS // J)  # modes per chunk
    for (_, hi, _), Y in zip(bands, Ys):
        m = Y.shape[1]
        xh = x * hi**alpha
        near = np.minimum(xh, _FAR)
        for lo in range(0, K, step):
            ks = slice(lo, lo + step)
            Yk = Y[:, :, ks] if Y.shape[2] > 1 else Y
            # (nodes, modes, J): the rows on the last axes, where the loops
            # run long
            den = np.add.outer(p[:m], near[ks])
            den *= den
            den += (q[:m] ** 2)[:, None, None]
            num = Yk[1] * near[ks]
            num += Yk[0]
            num /= den
            val = num.sum(axis=0)
            far = xh[ks] > _FAR
            if np.any(far):  # d = 0 and x d = 1/x
                val[far] = (np.broadcast_to(Yk[1].sum(axis=0), val.shape)[far]
                            / xh[ks][far])
            out[ks] += val
    if not np.all(live):
        out[~live] = np.broadcast_to(whole, x.shape)[~live]
    return out


def _between(sq1: float, p: float, log_tol: float):
    """Garrappa's parabola between the origin (singularity strength p) and
    a pole at Re sqrt(s) = sq1: (nodes, mu, h) or (inf, 0, 0)."""
    sq1 = min(sq1, 2.0 * math.sqrt(log_tol - _LOG_EPS))
    f_max = math.exp(log_tol - _LOG_EPS)
    f_min = max(1.01 * sq1 ** (1.0 - max(p, 1.0)), 1.5)
    if f_min >= f_max:
        return math.inf, 0.0, 0.0
    f_bar = f_min + f_min / f_max * (f_max - f_min)
    fp = f_bar ** (-1.0 / p) if p > 0.0 else 0.0
    w = -sq1 * sq1 / log_tol
    den = 2.0 + w - (1.0 + w) * fp + 1.0 / f_bar
    b0 = fp * sq1 / den
    b1 = (2.0 + w - (1.0 + w) * fp) * sq1 / den
    log_tol -= math.log(f_bar)
    w = -b1 * b1 / log_tol
    mu = (((1.0 + w) * b0 + b1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (b1 - b0) / ((1.0 + w) * b0 + b1)
    return math.ceil(math.sqrt(1.0 - log_tol / mu) / h), mu, h


def _beyond(phi: float, log_tol: float):
    """Garrappa's parabola enclosing a simple pole at (Re sqrt(s))^2 = phi:
    (nodes, mu, h) or (inf, 0, 0) when e^mu roundoff would spoil the sum."""
    thr = log_tol - _LOG_EPS
    if phi >= thr:
        return math.inf, 0.0, 0.0
    sq0 = math.sqrt(phi)
    phib = 1.01 * phi
    sqb = math.sqrt(phib)
    for _ in range(50):
        lt = log_tol / phib
        n = math.ceil(phib / math.pi * (1.0 - 1.5 * lt + math.sqrt(1.0 - 2.0 * lt)))
        A = math.pi * n / phib
        sq_mu = sqb * abs(4.0 - A) / abs(7.0 - math.sqrt(1.0 + 12.0 * A))
        if 1.0 < sq_mu / (sqb - sq0) < 10.0:
            break
        sqb = 0.2 * sq_mu + sq0
        phib = sqb * sqb
    mu = sq_mu * sq_mu
    h = (-3.0 * A - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * A)) / (4.0 - A) / n
    if mu > thr:
        phib = (0.2 * sq_mu + sq0) ** 2
        if phib >= thr:
            return math.inf, 0.0, 0.0
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-phib / _LOG_EPS)
        mu = thr
        n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return n, mu, h


def _ml_frac(alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z) for 1/2 <= alpha < 1 and complex z off the series
    disc.

    For |arg z| < pi alpha the pole s* = z^(1/alpha) lies on the principal
    sheet.  On the cut (Re sqrt(s*) = 0) it is inside the fixed parabola,
    which serves it as it serves every other z.  Elsewhere Garrappa's
    choice takes the cheaper of a parabola enclosing s* and one between
    the origin and s* plus the residue (1/alpha) s*^(1-beta) e^s*."""
    mu, h, n, outside = _MU, _H, _N, False
    if abs(cmath.phase(z)) < math.pi * alpha:
        pole = z ** (1.0 / alpha)
        phi = 0.5 * (pole.real + abs(pole))  # (Re sqrt(pole))^2
        p = max(0.0, 2.0 * (beta - alpha - 1.0))
        log_tol = math.log(1e-15)
        while phi > 0.0:
            n, mu, h, outside = min((*_between(math.sqrt(phi), p, log_tol), True),
                                    (*_beyond(phi, log_tol), False))
            if n <= 200:
                break
            log_tol += math.log(10.0)
    s, w = _parabola(mu, h, n, -n)
    val = complex(np.sum(np.exp(s) * s ** (alpha - beta) / (s**alpha - z) * w)) / (2j * math.pi)
    if outside:
        val += (1.0 / alpha) * pole ** (1.0 - beta) * cmath.exp(pole)
    return val


# ---------------------------------------------------------------------------
# Mittag-Leffler: alpha = 1, integer beta
# ---------------------------------------------------------------------------


#: integer beta = n up to this value takes the closed form at alpha = 1;
#: past it the closed form cancels beyond 1e-13 near |z| = 1
_ALPHA1_NMAX = 4

#: Taylor terms z^k/(k+n-1)! of E_{1,n} for |z| < 1: the first one left
#: out is below 1/20! = 4e-19
_TAYLOR_TERMS = 20


def _ml_alpha1_int(n: int, z: np.ndarray) -> np.ndarray:
    """E_{1,n}(z) = (e^z - sum_{k<n-1} z^k/k!)/z^(n-1) for integer 1 <= n <= 4.

    The closed form cancels near 0, so |z| < 1 takes the Taylor series
    sum_k z^k/(k+n-1)!; for z > 700 the leading term is taken in log
    form, e^(z - (n-1) log z), which is inf past the double range."""
    out = np.empty_like(z)
    near = np.abs(z) < 1.0
    taylor = 1.0 / np.array([math.factorial(k + n - 1) for k in range(_TAYLOR_TERMS)])
    out[near] = np.polynomial.polynomial.polyval(z[near], taylor)
    zf = z[~near]
    head = sum(zf**k / math.factorial(k) for k in range(n - 1))
    far = (np.exp(np.minimum(zf, _EXP_CUT)) - head) / zf ** (n - 1)
    big = zf > _EXP_CUT
    with np.errstate(over="ignore"):
        far[big] = np.exp(zf[big] - (n - 1) * np.log(zf[big]))
    out[~near] = far
    return out


# ---------------------------------------------------------------------------
# Mittag-Leffler: the route table
# ---------------------------------------------------------------------------


def _ml_scalar(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) at one real z by routes 3a-3c of the module
    docstring.  Raises OverflowError past the double range, and
    ResolutionError past the contours' beta bound."""
    if z > 0.0:
        tau = z ** (1.0 / alpha)
        if tau <= _SERIES_POS_TAU:
            # positive terms: no cancellation, just let the series run out
            cap = max(_TERM_CAP, int(6.0 * tau / alpha) + 50)
            return _ml_series(alpha, beta, z, cap=cap)
        # exponential branch plus algebraic tail; past _EXP_CUT in log form
        if tau <= _EXP_CUT:
            val = (1.0 / alpha) * z ** ((1.0 - beta) / alpha) * math.exp(tau)
        else:
            val = math.exp(tau + (1.0 - beta) / alpha * math.log(z) - math.log(alpha))
        for n in range(1, 12):
            val -= sp.rgamma(beta - alpha * n) * z ** (-n)
        return val
    x = -z
    if x <= _SERIES_NEG_CUT:
        return _ml_series(alpha, beta, z)
    # E_{a,b}(z) = (1/2^m) sum over the 2^m-th roots w of z of E_{a/2^m,b}(w),
    # halving until 1/2 <= a/2^m < 1; m = 0 for alpha < 1, m = 1 at alpha = 1
    m, a = 0, alpha
    while a >= 1.0:
        a *= 0.5
        m += 1
    if not _on_contour(a, beta):
        raise ResolutionError(f"E_{{{alpha},{beta}}}({z}): beta lies outside "
                              f"the contours' bound at order {a}")
    r = x ** (1.0 / 2**m)
    acc = sum(_ml_frac(a, beta, cmath.rect(r, math.pi * (2 * j + 1) / 2**m))
              for j in range(2**m)) / 2**m
    if abs(acc.imag) > 1e-8 * (1.0 + abs(acc.real)):
        raise ResolutionError(
            f"E_{{{alpha},{beta}}}({z}): order halving lost conjugate symmetry")
    return acc.real


def _ml(alpha: float, betas, z) -> np.ndarray:
    """E_{alpha,b}(z) for each b in betas, shape (len(betas),) + z.shape.

    The only place that picks a Mittag-Leffler route, by the table of the
    module docstring: routes 1 and 2 take whole rows, and _ml_scalar every
    point still left.  Raises ResolutionError where E exceeds the double
    range, and past the contours' beta bound."""
    z = np.asarray(z, dtype=float)
    b = np.asarray(betas, dtype=float)
    zf = z.ravel()
    out = np.empty((b.size, zf.size))
    whole = np.zeros(b.size, dtype=bool)
    if alpha == 1.0:
        whole = (b == np.round(b)) & (b >= 1.0) & (b <= _ALPHA1_NMAX)
        for i in np.flatnonzero(whole):
            out[i] = _ml_alpha1_int(int(b[i]), zf)
    elif alpha < 1.0:
        whole = _on_contour(alpha, b)
        out[whole] = _ml_table(alpha, b[whole], np.maximum(-zf, 0.0), (1.0,))[..., 0]
    # the contour ran at x = 0 in place of z > 0: those points are left
    left = np.flatnonzero(zf > 0.0) if alpha < 1.0 else []
    for i in range(b.size):
        for j in (left if whole[i] else range(zf.size)):
            try:
                out[i, j] = _ml_scalar(alpha, float(b[i]), float(zf[j]))
            except OverflowError:  # e.g. the residue of order halving
                out[i, j] = math.inf
    if not np.all(np.isfinite(out)):
        raise ResolutionError(
            f"E_{{{alpha},b}} exceeds the double range for b in {tuple(b)}")
    return out.reshape(b.shape + z.shape)


def ml_eval(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z:
    ml_eval_many(alpha, beta, [z])[0], bit for bit, under its contract.
    Raises ResolutionError past the double range, and at z < -1 when beta
    lies outside the contours' bound a - 2 <= beta <= 2 a + 4 (a the
    order on the contour, see ml_eval_many)."""
    return float(ml_eval_many(alpha, beta, [z])[0])


def ml_eval_many(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for positive order alpha, real beta and a real
    array z, by the route table of the module docstring.

    At z = 0 every route returns 1/Gamma(beta) exactly.  Raises
    ResolutionError past the double range, and at z < -1 when beta lies
    outside a - 2 <= beta <= 2 a + 4, a the order on the contour (alpha
    itself below 1, alpha/2^m in [1/2, 1) above; alpha = 1 takes a = 1/2);
    for |z| <= 1 the series serves every beta.

    Accuracy of the contour rule against a frozen mpmath table (alpha in
    [0.05, 0.99], beta <= 2 alpha + 2, 0 <= -z <= 1e6): absolute error
    below 5e-13 (1 + |E|), and relative error below 1e-10 for the kernels
    the solver uses, beta in {1, alpha+1, alpha+2, 2 alpha+1, 2 alpha+2}.
    Only at beta = alpha, where 1/Gamma(beta - alpha) = 0 cancels the
    leading x^-1 term and E falls off like x^-2, is the bound absolute.
    The closed forms at alpha = 1 and order halving keep the same bound,
    with two limits, both the cost of rounding the 2^m roots of z.  For
    alpha > 2, E oscillates on the negative ray with amplitude
    A ~ e^(|z|^(1/alpha) cos(pi/alpha)), and the rounding costs up to about
    2e-14 A, more than the bound near a zero.  At alpha = 2, beta = 1
    (E = cos sqrt(-z)) it costs about 1.6 sqrt(-z) eps, past the bound
    beyond -z = 1e7: 1.7e-12 up to 1e8, 1.8e-10 up to 1e12.
    """
    z = _real_array("ml_eval_many: z", z)
    if not (_is_real(alpha) and _is_real(beta)) or not np.all(np.isfinite(z)):
        raise DomainError("ml_eval_many: alpha, beta and z must be finite reals")
    if alpha <= 0.0:
        raise DomainError(f"ml_eval_many: order must be positive, got {alpha}")
    return _ml(float(alpha), (float(beta),), z)[0]


# ---------------------------------------------------------------------------
# Decay-bound fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLBoundFit:
    """Empirical constant for |E_{alpha,beta}(-x)| <= M/(1+x) on a sampled ray."""

    alpha: float
    beta: float
    M: float


def ml_bound_fit(alpha: float, beta: float, ray_samples: Sequence[float]) -> MLBoundFit:
    """Fit the smallest M with (1+x)|E_{alpha,beta}(-x)| <= M over the samples.

    Only meaningful for 0 < alpha < 2, where E is algebraically decaying on
    the negative ray.  The samples must be finite and >= 0.
    """
    if not (_is_real(alpha) and 0.0 < alpha < 2.0):
        raise DomainError(f"ml_bound_fit: requires 0 < alpha < 2, got {alpha}")
    xs = _real_array("ml_bound_fit: ray samples", list(ray_samples))
    if xs.size == 0 or np.any(xs < 0.0) or not np.all(np.isfinite(xs)):
        raise DomainError("ml_bound_fit: ray samples must be finite and >= 0")
    vals = ml_eval_many(alpha, beta, -xs)
    m = float(np.max((1.0 + xs) * np.abs(vals)))
    return MLBoundFit(alpha=alpha, beta=beta, M=m)


# ---------------------------------------------------------------------------
# Zeros of Bessel J
# ---------------------------------------------------------------------------


#: a scan of this many unit steps that has not found the wanted zeros is a
#: runaway
_SCAN_CAP = 10**6


def _bessel_j_zeros(order: float, k: int) -> np.ndarray:
    """The first k positive zeros of J_order, order > -1, ascending.

    Consecutive zeros of J_nu lie more than 3 apart for every nu > -1, and
    their gap tends to pi (Watson, A Treatise on the Theory of Bessel
    Functions, 2nd ed., 1944, 15.8), so a scan in unit steps brackets each
    zero in a cell of its own.  J_nu > 0 below its first zero, which
    exceeds nu and, by Rayleigh's sum of 1/j_{nu,k}^2 = 1/(4 (nu + 1)),
    2 sqrt(nu + 1): the scan starts at max(nu, 0) + min(1e-3, sqrt(nu + 1))
    and takes steps until it has k sign changes (np.signbit, so that an
    exact 0.0 at a node still leaves one bracket per zero).  Bisection then
    halves every bracket at once until no midpoint lies strictly inside its
    bracket: each zero then lies between two adjacent doubles, and the
    lower one is returned.  Raises ResolutionError when _SCAN_CAP steps do
    not reach the k-th zero."""
    start = max(order, 0.0) + min(1e-3, math.sqrt(order + 1.0))
    n = 4 * k + 16
    while True:
        n = min(n, _SCAN_CAP)
        x = start + np.arange(n)
        f = sp.jv(order, x)
        flips = np.flatnonzero(np.diff(np.signbit(f)))[:k]
        if flips.size == k:
            break
        if n == _SCAN_CAP:
            raise ResolutionError(f"no {k} zeros of J_{order} "
                                  f"within {_SCAN_CAP} steps of x = {start}")
        n *= 2
    lo, hi = x[flips], x[flips + 1]
    neg = np.signbit(f[flips])
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return lo
        # at adjacent doubles mid is lo or hi, and the update keeps it
        left = np.signbit(sp.jv(order, mid)) == neg
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
