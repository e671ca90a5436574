"""Closed-form references for manufactured modes.

With phi = zero and f = sep:mode:1|TSPEC the source is one eigenmode in
space, so only mode 1 is driven.  Per mode, D^alpha = p^alpha d_s^alpha in
warped time s = t^p - a^p, and with mu = lambda_1 / p^alpha a time factor
s^r gives the mode

    U(s) = Gamma(r+1) p^-alpha s^(r+alpha) E_{alpha, r+alpha+1}(-mu s^alpha)

times v_1 (Podlubny, Fractional Differential Equations, 1999, ch. 1.2).
spow:q is r = q; at a = 0, poly:c0,c1,... is the sum over m of c_m times
the same form with r = m/p, since t^m = s^(m/p).

The reference shares no rule with the solver: lambda_1 = ((2 - beta)
j_{nu,1} / 2)^2 and E come from mpmath, E by its defining series at about
40 + |z|^(1/alpha)/2 digits, with every alpha k + beta formed in mpmath.
The error is the sup over the CLI's 17 output times of the L2(0,1) error
(Parseval in the run's orthonormal modes), relative to the sup of the
reference's L2 norm.
"""
import functools

import mpmath as mp
import numpy as np
import pytest

from degenfrac import cli
from degenfrac.solver import assemble


def _ml(alpha, beta, z):
    """E_{alpha,beta}(z) for mpf alpha, beta and real z <= 0, summed until
    the terms past their peak fall below the working precision."""
    digits = 40 + int(abs(float(z)) ** (1.0 / float(alpha)) / 2)
    with mp.workdps(digits):
        z = mp.mpf(z)
        peak = abs(float(z)) ** (1.0 / float(alpha)) + 2
        total, k = mp.mpf(0), 0
        while True:
            term = z ** k / mp.gamma(alpha * k + beta)
            total += term
            if k > peak and abs(term) <= mp.eps * abs(total):
                return +total
            k += 1


@functools.lru_cache(maxsize=None)
def _lambda1(beta):
    """The first eigenvalue of -(x^beta v')' on (0, 1) with v(1) = 0."""
    b = mp.mpf(beta)
    nu = abs(1 - b) / (2 - b)
    return ((2 - b) * mp.besseljzero(nu, 1) / 2) ** 2


def _reference(alpha, theta, beta, tspec, t):
    """The exact mode-1 values U(s(t)) at the times t, with a = 0."""
    al, p = mp.mpf(alpha), 1 - mp.mpf(theta)
    mu = _lambda1(beta) / p ** al
    name, arg = tspec.split(":")
    if name == "spow":
        terms = [(1, mp.mpf(arg))]
    else:
        terms = [(mp.mpf(c), m / p) for m, c in enumerate(arg.split(","))
                 if float(c) != 0.0]
    out = []
    for tj in t:
        s = mp.mpf(tj) ** p
        out.append(float(sum(
            c * mp.gamma(r + 1) / p ** al * s ** (r + al)
            * _ml(al, r + al + 1, -mu * s ** al) for c, r in terms)))
    return np.array(out)


#: (alpha, theta, beta, eigen route, TSPEC, error measured when this file
#: was written); each case asserts 2x its measured error.  The Galerkin
#: errors include its eigenvalue error: lambda_1 is 1.7e-7 (beta 0.5) and
#: 5.5e-7 (beta 1.5) relative off the Bessel zero's
CASES = [
    (0.6, 0.3, 0.5, "galerkin", "spow:0.5", 5.63e-6),
    (0.6, 0.3, 0.5, "galerkin", "poly:0,1", 1.22e-5),
    (0.6, 0.3, 0.5, "bessel", "spow:0.5", 5.48e-6),
    (0.6, 0.3, 0.5, "bessel", "poly:0,1", 1.23e-5),
    (0.6, 0.3, 1.5, "galerkin", "spow:0.5", 8.38e-6),
    (0.6, 0.3, 1.5, "galerkin", "poly:0,1", 1.49e-5),
    (0.6, 0.3, 1.5, "bessel", "spow:0.5", 8.12e-6),
    (0.6, 0.3, 1.5, "bessel", "poly:0,1", 1.52e-5),
    (1.0, 0.3, 0.5, "galerkin", "spow:0.5", 6.26e-6),
    (1.0, 0.3, 0.5, "galerkin", "poly:0,1", 1.43e-5),
    (1.0, 0.3, 0.5, "bessel", "spow:0.5", 6.11e-6),
    (1.0, 0.3, 0.5, "bessel", "poly:0,1", 1.44e-5),
    (1.0, 0.3, 1.5, "galerkin", "spow:0.5", 1.13e-5),
    (1.0, 0.3, 1.5, "galerkin", "poly:0,1", 1.83e-5),
    (1.0, 0.3, 1.5, "bessel", "spow:0.5", 1.10e-5),
    (1.0, 0.3, 1.5, "bessel", "poly:0,1", 1.85e-5),
    (0.6, -10.0, 0.5, "galerkin", "spow:0.5", 8.22e-6),
    (0.6, -10.0, 0.5, "galerkin", "poly:0,1", 7.71e-6),
    (0.6, -10.0, 0.5, "bessel", "spow:0.5", 8.14e-6),
    (0.6, -10.0, 0.5, "bessel", "poly:0,1", 7.62e-6),
    (0.6, -10.0, 1.5, "galerkin", "spow:0.5", 1.04e-5),
    (0.6, -10.0, 1.5, "galerkin", "poly:0,1", 1.27e-5),
    (0.6, -10.0, 1.5, "bessel", "spow:0.5", 1.03e-5),
    (0.6, -10.0, 1.5, "bessel", "poly:0,1", 1.26e-5),
    (0.6, 0.9, 0.5, "galerkin", "poly:0,1", 1.29e-3),
]


@pytest.mark.parametrize("alpha,theta,beta,route,tspec,measured", CASES)
def test_manufactured_mode_matches_its_closed_form(alpha, theta, beta, route,
                                                   tspec, measured):
    cfg = cli.RunConfig(alpha=alpha, theta=theta, beta=beta, phi="zero",
                        f=f"sep:mode:1|{tspec}", modes="4", oracle=route)
    xg, tg = cli._solve_grids(cfg)
    system = cli._eigensystem(cfg, 4)
    field = assemble(cli._build_problem(cfg, system), system, 4, xg, tg)
    U = _reference(alpha, theta, beta, tspec, field.t_grid)
    # the reference's eigenvalue, checked against the route's
    assert system.lambdas[0] == pytest.approx(float(_lambda1(beta)), rel=1e-6)
    miss = field.mode_values.copy()
    miss[0] -= U
    err = np.max(np.sqrt(np.sum(miss ** 2, axis=0))) / np.max(np.abs(U))
    assert err <= 2.0 * measured
