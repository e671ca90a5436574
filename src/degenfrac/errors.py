"""Exception taxonomy shared across the package, and the checks of a count,
of a real number and of a real array at the public boundary."""

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


def _real_array(name: str, x) -> np.ndarray:
    """x as a native float64 array (float64 input keeps its bits), or
    DomainError unless its dtype is integer or floating: a complex, string,
    object or ragged input is refused, not cut to its real parts."""
    try:
        arr = np.asarray(x)
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _check_alpha(alpha) -> None:
    """DomainError unless alpha, a fractional order, is a real in (0, 1]."""
    if not (_is_real(alpha) and 0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")


def _check_count(name: str, n) -> None:
    """DomainError unless n is an integer >= 1 (a bool is no count)."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {n!r}")
