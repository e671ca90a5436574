"""Exception taxonomy shared across the package, and the checks of a count
and of a real number at the public boundary."""

import math
from numbers import Integral

import numpy as np


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class DegeneracyError(DomainError):
    """The diffusion exponent hits an unsupported degeneracy (beta = 1, beta >= 2, ...)."""


class ResolutionError(RuntimeError):
    """A requested accuracy or mode count cannot be met at the given resolution."""


class RegimeError(RuntimeError):
    """An operation was invoked outside the regime (classical/weak) where it is defined."""


class SolverError(RuntimeError):
    """A linear solve or eigenvalue computation failed to converge."""


class ConfigError(ValueError):
    """A run configuration is malformed (unknown key, bad value, missing file)."""


class VerificationError(RuntimeError):
    """One or more verification suites failed their tolerance."""


def _is_real(v) -> bool:
    """True for a finite int, float or numpy scalar of either kind."""
    return isinstance(v, (int, float, np.integer, np.floating)) and math.isfinite(v)


def _check_alpha(alpha) -> None:
    """DomainError unless alpha, a fractional order, is a real in (0, 1]."""
    if not (_is_real(alpha) and 0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")


def _check_count(name: str, n) -> None:
    """DomainError unless n is an integer >= 1 (a bool is no count)."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {n!r}")
