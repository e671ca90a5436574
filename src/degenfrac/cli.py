"""Command-line front end.

Subcommands: eigen (decompositions + orthogonality artifacts), solve
(spectral solve + diagnostics), verify (invariant suites incl. the FD
cross-check), convergence (refinement tables).  Configuration comes from a
flat key=value file plus flag overrides; outputs are deterministic CSV /
JSON with no timestamps, so repeated runs are byte-identical.

Each command cmd_*(cfg, files) computes its artifacts in memory: it adds
them to the ordered map files, {path relative to cfg.out: text}, and
touches no file.  main alone writes the map, once the command returns or
raises (so a failing verify still leaves verify.json), creating cfg.out
only when the map holds an artifact; an out that cannot take them exits 1.

Exit codes: 0 success, 1 usage/config, 2 parameter-domain violation,
3 resolution failure, 4 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys as _sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (ConfigError, DomainError, RegimeError, ResolutionError,
                     SolverError, VerificationError, _check_alpha)
from .fracops import TimeWarp, warp_forward
from .oraclefd import FDMesh, compare, fd_solve
from .solver import (ProblemSpec, SeparableSource, ModeODE, _TimeFactor,
                     assemble, mode_solution, mode_solution_alt,
                     residual_strong, residual_weak)
from .special import ml_eval_many
from .spectral import (bc_requirements, bessel_eigen, flux_limit_check,
                       orthogonality_report, solve_eigen)


@dataclass
class RunConfig:
    """Flat run configuration; every key can appear in the config file."""

    alpha: float = 0.6
    theta: float = 0.3
    beta: float = 0.5
    a: float = 0.0
    T: float = 1.0
    phi: str = "quadratic"
    f: str = "none"
    modes: str = "8"
    kmax: int = 64
    x_points: int = 65
    t_points: int = 17
    fd_nx: int = 256
    fd_nt: int = 256
    tol: Optional[float] = None
    out: str = "out"
    format: str = "csv"
    oracle: str = "galerkin"
    modes_ladder: str = "2,4,8,16"
    mesh_ladder: str = "64,128,256"

    def validate(self) -> None:
        bc_requirements(self.beta)          # beta in (0,2), beta != 1
        TimeWarp(self.theta, self.a)        # theta < 1, a >= 0
        _check_alpha(self.alpha)
        if not self.a < self.T:
            raise DomainError(f"need a < T, got a={self.a}, T={self.T}")
        if self.modes != "auto":
            try:
                k = int(self.modes)
            except ValueError:
                raise ConfigError(f"modes must be an integer or 'auto', "
                                  f"got {self.modes!r}") from None
            if k < 1:
                raise ConfigError(f"modes must be >= 1, got {k}")
        if self.kmax < 1:
            raise ConfigError(f"kmax must be >= 1, got {self.kmax}")
        if self.x_points < 3 or self.t_points < 2:
            raise ConfigError("x_points >= 3 and t_points >= 2 required")
        if self.fd_nx < 8 or self.fd_nt < 4:
            raise ConfigError("fd mesh too coarse")
        if self.tol is not None and not self.tol >= 0.0:
            raise ConfigError(f"tol must be >= 0, got {self.tol}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.oracle not in ("galerkin", "bessel"):
            raise ConfigError(f"oracle must be galerkin or bessel, "
                              f"got {self.oracle!r}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _cast(key: str, raw: str):
    ty = _FIELD_TYPES[key]
    if ty == "float":
        return float(raw)
    if ty == "int":
        return int(raw)
    if ty == "Optional[float]":
        return None if raw.lower() == "none" else float(raw)
    return raw


def _set(cfg: RunConfig, key: str, raw: str, where: str) -> RunConfig:
    """cfg with key set to raw, cast by _cast for a config file and a flag
    alike; ConfigError at where when the cast fails."""
    try:
        return replace(cfg, **{key: _cast(key, raw)})
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from None


def load_config(path) -> RunConfig:
    """Flat key=value file in UTF-8; '#' starts a comment; unknown keys
    rejected; ConfigError when the file is missing or unreadable."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    cfg = RunConfig()
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {body!r}")
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        cfg = _set(cfg, key, raw, f"{path}:{ln}")
    return cfg


# ---------------------------------------------------------------------------
# builtin expression grammar for phi and f: one table, read by one parser

def _const(c):
    return lambda x: c * np.ones_like(np.asarray(x, dtype=float))


def _mode(k, system):
    if system is None:
        raise ConfigError("mode:k needs a computed eigensystem")
    if not 1 <= k <= system.count:
        raise ConfigError(f"mode index {k} outside 1..{system.count}")
    return lambda x: system._rows(slice(k - 1, k), x, deriv=False)[0]


def _spow(q, warp):
    # written so that a NaN fails too; an infinite q would make s^q a step
    if not (q >= 0.0 and math.isfinite(q)):
        raise ConfigError(f"spow exponent must be a finite number >= 0, "
                          f"got {q}")
    return _TimeFactor("spow", (q,), warp)


#: every builtin profile of phi and f: name -> (argument kind, or None for
#: none; space builder (value, system) -> callable of x on (0,1), or None;
#: time builder (value, warp) -> a number, for a declared constant, or a
#: solver._TimeFactor, or None).  mode:k is the k-th eigenfunction of
#: system, and spow:q is (t^p - a^p)^q on warp.
_PROFILES = {
    "zero": (None, lambda *_: _const(0.0), None),
    "one": (None, lambda *_: _const(1.0), lambda *_: 1.0),
    "quadratic": (None, lambda *_: lambda x: x * (1.0 - x), None),
    "const": ("number", lambda c, _: _const(c), lambda c, _: c),
    "sin": ("number", lambda k, _: lambda x: np.sin(k * np.pi * x),
            lambda w, _: _TimeFactor("sin", (w,))),
    "cos": ("number", lambda k, _: lambda x: np.cos(k * np.pi * x),
            lambda w, _: _TimeFactor("cos", (w,))),
    "poly": ("numbers",
             lambda c, _: lambda x: np.polynomial.polynomial.polyval(x, c),
             lambda c, _: _TimeFactor("poly", c)),
    "mode": ("integer", _mode, None),
    "spow": ("number", None, _spow),
}

#: how the parser reads each argument kind, and what a refusal says it wants
_KINDS = {"number": (float, "a number"), "integer": (int, "an integer"),
          "numbers": (lambda arg: [float(c) for c in arg.split(",")],
                      "comma-separated numbers")}


def _profile(text: str, axis: str):
    """(name, builder, value) of the profile text name[:arg] on axis "space"
    or "time", its argument read by its kind: the grammar's one reader.
    ConfigError for a name the axis does not know, an argument the profile
    does not take (an empty one too), and a missing or malformed one."""
    name, colon, arg = text.strip().partition(":")
    col = 1 if axis == "space" else 2
    entry = _PROFILES.get(name)
    if entry is None or entry[col] is None:
        raise ConfigError(f"unknown {axis} profile {text!r}")
    if entry[0] is None:
        if colon:
            raise ConfigError(f"{name} takes no argument, got {arg!r}")
        return name, entry[col], None
    read, wants = _KINDS[entry[0]]
    try:
        return name, entry[col], read(arg)
    except ValueError:
        raise ConfigError(f"{name} wants {wants}, got {arg!r}") from None


def _mode_index(text: str) -> int:
    """The k of a mode:k space profile; 0 for any other profile."""
    name, _, value = _profile(text, "space")
    return value if name == "mode" else 0


def space_expr(text: str, system=None):
    """The callable of x on (0,1) of a builtin profile of _PROFILES; mode:k
    needs system."""
    _, build, value = _profile(text, "space")
    return build(value, system)


def time_expr(text: str, warp: TimeWarp):
    """The time factor of a builtin profile of _PROFILES.  The constant
    factors one and const:c come back as numbers, which the solver takes
    as a declared constant; the others as values (solver._TimeFactor):
    callables of t that take arrays, equal when their kind, numbers and
    (for spow) warp are, so the solver memoizes their convolution's node
    sums by value."""
    _, build, value = _profile(text, "time")
    return build(value, warp)


def _source_parts(text: str):
    """The (XSPEC, TSPEC) texts of a source: None for 'none', and TSPEC
    'one' for a bare space profile, a time-independent source."""
    text = text.strip()
    if text in ("", "none"):
        return None
    if not text.startswith("sep:"):
        return text, "one"
    body = text[4:]
    if "|" not in body:
        raise ConfigError("sep source wants 'sep:XSPEC|TSPEC'")
    xs, ts = body.split("|", 1)
    return xs.strip().strip("()"), ts.strip().strip("()")


def source_expr(text: str, warp: TimeWarp, system=None):
    """'none' -> no source; 'sep:XSPEC|TSPEC' -> separable product;
    a bare space profile -> time-independent source."""
    parts = _source_parts(text)
    if parts is None:
        return None
    return SeparableSource(space_expr(parts[0], system),
                           time_expr(parts[1], warp))


# ---------------------------------------------------------------------------
# artifacts: each command adds {relative path: text} to the map it is
# handed, and main alone writes the map (_write)

def _csv(header, rows) -> str:
    """One line for the header and one per row, each value written by its
    type: str and int by %s, any other value as %.16e.  The rows keep the
    column types of the first row."""
    def line(row):
        return ",".join("%s" if isinstance(v, (str, int, np.integer))
                        else "%.16e" for v in row) + "\n"

    header = tuple(header)
    lines = [line(header) % header]
    fmt = None
    for row in rows:
        row = tuple(row)
        if fmt is None:
            fmt = line(row)
        lines.append(fmt % row)
    return "".join(lines)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _field(cfg: RunConfig, files: dict, x, t, values) -> None:
    """The field u(t, x) as solution.csv, one row per time, or as
    solution.json, by cfg.format."""
    if cfg.format == "json":
        files["solution.json"] = _json({"x": x, "t": t, "u": values})
    else:
        rows = ([tj, *row] for tj, row in zip(t, values))
        files["solution.csv"] = _csv(["t", *x], rows)


def _write(out: Path, files: dict) -> None:
    """Each artifact of files under out, which is created only when there
    is one; ConfigError when out cannot take them."""
    if not files:
        return
    try:
        out.mkdir(parents=True, exist_ok=True)
        for rel, text in files.items():
            (out / rel).write_bytes(text.encode())
    except OSError as exc:
        msg = f"cannot write the artifacts to {out}: {exc}"
        raise ConfigError(msg) from None


# ---------------------------------------------------------------------------
# subcommands: cmd_*(cfg, files) adds its artifacts to files and returns
# the exit code

def _eigen_count(cfg: RunConfig) -> int:
    if cfg.modes == "auto":
        raise ConfigError("modes must be an explicit integer for this command")
    return int(cfg.modes)


def cmd_eigen(cfg: RunConfig, files: dict) -> int:
    K = _eigen_count(cfg)
    system = _eigensystem(cfg, K)
    extra = {}
    if cfg.oracle == "bessel":  # cross-checked against Galerkin
        gal = solve_eigen(cfg.beta, K)
        delta = np.abs(gal.lambdas - system.lambdas) / system.lambdas
        extra["cross_oracle_rel_delta"] = delta
        extra["cross_oracle_max_rel_delta"] = float(np.max(delta))
    files["eigenvalues.csv"] = _csv(
        ["k", "lambda"], ([k + 1, lam] for k, lam in enumerate(system.lambdas)))
    xs = np.linspace(0.0, 1.0, cfg.x_points)[1:]  # evaluator is defined on (0,1]
    grid = np.column_stack((xs, system.basis_matrix(xs).T))
    files["eigenfunctions.csv"] = _csv(
        ["x"] + [f"v{k}" for k in range(1, K + 1)], grid)
    rep = orthogonality_report(system)
    files["orthogonality.json"] = _json({
        "beta": cfg.beta, "modes": K, "method": system.method_tag,
        "lambdas": system.lambdas,
        "max_offdiag_l2": rep.max_offdiag_l2,
        "max_offdiag_weighted": rep.max_offdiag_weighted,
        **extra,
    })
    print(f"eigen: beta={cfg.beta} K={K} method={system.method_tag} "
          f"lambda1={system.lambdas[0]:.6f} "
          f"offdiag={rep.max_offdiag_l2:.2e}")
    return 0


def _build_problem(cfg: RunConfig, system):
    warp = TimeWarp(cfg.theta, cfg.a)
    phi = space_expr(cfg.phi, system)
    f = source_expr(cfg.f, warp, system)
    return ProblemSpec(cfg.alpha, cfg.theta, cfg.beta, cfg.a, cfg.T, phi, f)


def _solve_grids(cfg: RunConfig):
    xg = np.linspace(0.0, 1.0, cfg.x_points)
    span = cfg.T - cfg.a
    tg = cfg.a + span * np.linspace(0.0, 1.0, cfg.t_points + 1)[1:]
    return xg, tg


def _modes_rungs(cfg: RunConfig):
    """The mode counts solve tries in turn: the fixed K, or for auto a
    doubling ladder up to kmax from 4, or from the largest k of a mode:k
    profile in phi or f, which needs K >= k."""
    if cfg.modes != "auto":
        return [int(cfg.modes)]
    source = _source_parts(cfg.f)
    profiles = (cfg.phi,) if source is None else (cfg.phi, source[0])
    rungs = [min(max(4, *map(_mode_index, profiles)), cfg.kmax)]
    while rungs[-1] < cfg.kmax:
        rungs.append(min(2 * rungs[-1], cfg.kmax))
    return rungs


def _eigensystem(cfg: RunConfig, K: int):
    """The first K eigenpairs from the route cfg.oracle names."""
    route = bessel_eigen if cfg.oracle == "bessel" else solve_eigen
    return route(cfg.beta, K)


def cmd_solve(cfg: RunConfig, files: dict) -> int:
    xg, tg = _solve_grids(cfg)
    tol = 1e-6 if cfg.tol is None else cfg.tol
    for K in _modes_rungs(cfg):
        system = _eigensystem(cfg, K)
        spec = _build_problem(cfg, system)
        field = assemble(spec, system, K, xg, tg)
        tail = field.diagnostics["tail_estimate_l2"]
        if cfg.modes != "auto" or tail <= tol:
            break
    else:
        raise ResolutionError(f"tail estimate {tail:.3e} still above "
                              f"{tol:.3e} at K={K} (kmax)")

    if field.regime == "classical":
        res = residual_strong(field, spec)
        res_kind = "strong"
    else:
        res = residual_weak(field, spec)
        res_kind = "weak"

    _field(cfg, files, field.x_grid, field.t_grid, field.values)
    diags = dict(field.diagnostics)
    norms = diags.pop("norms")
    files["diagnostics.json"] = _json({
        "alpha": cfg.alpha, "theta": cfg.theta, "beta": cfg.beta,
        "a": cfg.a, "T": cfg.T, "modes": K,
        "regime": field.regime,
        "residual": {"kind": res_kind, "sup_abs": res.sup_abs,
                     "sup_rel": res.sup_rel, "scale": res.scale},
        "tail": diags,
        "norms": norms,
    })
    print(f"solve: regime={field.regime} K={K} "
          f"tail={field.diagnostics['tail_estimate_l2']:.2e} "
          f"residual[{res_kind}]={res.sup_rel:.2e}")
    return 0


# ---- verification suites ---------------------------------------------------

def _suite_ml_recurrence() -> float:
    worst = 0.0
    zs = np.linspace(-30.0, 5.0, 40)
    for al in (0.3, 0.5, 0.7, 1.2):
        for be in (0.5, 1.0, 2.0):
            e1 = ml_eval_many(al, be, zs)
            e2 = ml_eval_many(al, al + be, zs)
            defect = np.abs(e1 - 1.0 / math.gamma(be) - zs * e2)
            worst = max(worst, float(np.max(defect / (1.0 + np.abs(e1)))))
    return worst


def _suite_orthogonality(cfg: RunConfig) -> float:
    rep = orthogonality_report(solve_eigen(cfg.beta, 8))
    return max(rep.max_offdiag_l2, rep.max_offdiag_weighted)


def _suite_kernel_equivalence() -> float:
    worst = 0.0
    tg = np.linspace(0.55, 2.0, 30)
    for al in (0.3, 0.7):
        for th in (0.0, 0.5):
            warp = TimeWarp(th, 0.5)
            for lam in (0.5, 10.0):
                for fk in (None, 1.0, lambda t: math.sin(t)):
                    ode = ModeODE(1, al, lam, 0.8, fk, warp)
                    ua = mode_solution(ode, tg).values
                    ub = mode_solution_alt(ode, tg).values
                    worst = max(worst, float(np.max(np.abs(ua - ub))))
    return worst


def _suite_flux_limit(cfg: RunConfig) -> float:
    """beta>1: the weighted flux must vanish at 0 (value = |limit|).
    beta<1: it must match the closed-form route (value = rel diff)."""
    gal = solve_eigen(cfg.beta, 2)
    rg = flux_limit_check(gal.mode(1), cfg.beta)
    if cfg.beta > 1.0:
        return abs(rg.limit)
    bes = bessel_eigen(cfg.beta, 2)
    rb = flux_limit_check(bes.mode(1), cfg.beta)
    return abs(rg.limit - rb.limit) / max(abs(rb.limit), 1e-300)


def _fd_field(spec: ProblemSpec, nx: int, nt: int):
    """The FD oracle's field of spec on the standard nx x nt mesh up to T."""
    S_T = warp_forward(spec.warp, spec.T)
    return fd_solve(spec, FDMesh.build(spec.beta, spec.alpha, S_T,
                                       nx=nx, nt=nt))


def _suite_uniqueness(cfg: RunConfig) -> float:
    """Zero data must give the zero field, spectrally and by FD."""
    system = solve_eigen(cfg.beta, 4)
    spec = _build_problem(replace(cfg, phi="zero", f="none"), system)
    xg, tg = _solve_grids(replace(cfg, x_points=33, t_points=8))
    flds = (assemble(spec, system, 4, xg, tg), _fd_field(spec, nx=128, nt=64))
    return max(float(np.max(np.abs(fld.values))) for fld in flds)


def _suite_spectral_vs_fd(cfg: RunConfig) -> float:
    """FD on the fd_nx x fd_nt mesh against K = 12 spectral on the FD's own
    x-grid, so that no value is interpolated."""
    system = solve_eigen(cfg.beta, 12)
    spec = _build_problem(replace(cfg, phi="quadratic", f="sep:one|one"),
                          system)
    fldF = _fd_field(spec, nx=cfg.fd_nx, nt=cfg.fd_nt)
    fldS = assemble(spec, system, 12, fldF.x_grid, np.array([cfg.T]))
    rep = compare(fldF, fldS, t_subset=[cfg.T])
    return float(rep.l2_rel[0])


_SUITES = (
    ("ml_recurrence", lambda cfg: _suite_ml_recurrence(), 1e-11),
    ("orthogonality", _suite_orthogonality, 1e-6),
    ("kernel_equivalence", lambda cfg: _suite_kernel_equivalence(), 1e-8),
    ("flux_limit", _suite_flux_limit, 1e-3),
    ("uniqueness", _suite_uniqueness, 1e-12),
    ("spectral_vs_fd", _suite_spectral_vs_fd, 1e-2),
)


def cmd_verify(cfg: RunConfig, files: dict) -> int:
    if cfg.oracle != "galerkin":
        raise ConfigError("verify runs both eigen routes and takes no oracle; "
                          f"got oracle = {cfg.oracle}")
    report, failed = {}, []
    for name, fn, default_tol in _SUITES:
        tol = default_tol if cfg.tol is None else cfg.tol
        value = fn(cfg)
        ok = value <= tol
        report[name] = {"value": value, "tol": tol, "pass": bool(ok)}
        print(f"verify: {name:20s} {'PASS' if ok else 'FAIL'} "
              f"(value {value:.3e} vs tol {tol:.3e})")
        if not ok:
            failed.append(name)
    files["verify.json"] = _json({"suites": report, "all_pass": not failed})
    if failed:
        raise VerificationError("failing invariants: " + ", ".join(failed))
    return 0


def _parse_ladder(text: str, what: str):
    try:
        ladder = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"{what} ladder must be comma-separated integers, "
                          f"got {text!r}") from None
    if len(ladder) < 2:
        raise ConfigError(f"{what} ladder needs at least 2 levels, got {ladder}")
    if any(n < 1 for n in ladder) or any(np.diff(ladder) <= 0):
        raise ConfigError(f"{what} ladder must be positive and increasing")
    return ladder


def _orders(errs):
    out = []
    for i in range(len(errs) - 1):
        if errs[i] > 1e-14 and errs[i + 1] > 1e-14:
            out.append(math.log2(errs[i] / errs[i + 1]))
        else:
            out.append(float("nan"))
    return out


#: the most modes convergence takes as its reference (twice the top rung)
_KREF_MAX = 96


def cmd_convergence(cfg: RunConfig, files: dict) -> int:
    kladder = _parse_ladder(cfg.modes_ladder, "modes")
    nladder = _parse_ladder(cfg.mesh_ladder, "mesh")
    if kladder[-1] >= _KREF_MAX:
        raise ConfigError(f"modes ladder must stay below the {_KREF_MAX} "
                          f"modes of its reference, got {kladder[-1]}")
    kref = min(2 * kladder[-1], _KREF_MAX)
    system = _eigensystem(cfg, kref)
    spec = _build_problem(cfg, system)
    xg = np.linspace(0.0, 1.0, 257)[1:-1]
    tg = np.array([cfg.T])
    ref = assemble(spec, system, kref, xg, tg)

    def err(fld) -> float:
        return float(compare(ref, fld, t_subset=[cfg.T]).l2_rel[0])

    kerrs = [err(assemble(spec, system, K, xg, tg)) for K in kladder]
    files["convergence_modes.csv"] = _csv(["modes", "err_l2_rel"],
                                          zip(kladder, kerrs))

    nerrs = [err(_fd_field(spec, nx=N, nt=N)) for N in nladder]
    files["convergence_mesh.csv"] = _csv(["mesh", "err_l2_rel"],
                                         zip(nladder, nerrs))

    files["convergence.json"] = _json({
        "modes_ladder": kladder, "modes_err_l2_rel": kerrs,
        "modes_orders": _orders(kerrs),
        "mesh_ladder": nladder, "mesh_err_l2_rel": nerrs,
        "mesh_orders": _orders(nerrs),
        "reference_modes": kref,
    })
    print(f"convergence: modes errs {['%.2e' % e for e in kerrs]} | "
          f"mesh errs {['%.2e' % e for e in nerrs]}")
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not 2
        raise ConfigError(message)


#: the config keys that also take a flag, --key VALUE
_FLAGS = ("beta", "alpha", "theta", "a", "T", "modes", "out", "format",
          "oracle", "tol")

_COMMANDS = {
    "eigen": (cmd_eigen, "eigen-decomposition artifacts"),
    "solve": (cmd_solve, "spectral solve + diagnostics"),
    "verify": (cmd_verify, "invariant suites incl. FD cross-check"),
    "convergence": (cmd_convergence, "refinement ladders and observed orders"),
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing keeps no state
    between calls, and a usage error raises before any is kept.  Flag
    values stay strings until _config_from_args casts them.  No parser
    expands a prefix of a flag, so an abbreviated flag is an error."""
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", metavar="PATH")
    for key in _FLAGS:
        common.add_argument(f"--{key}")

    ap = _Parser(prog="degenfrac", allow_abbrev=False,
                 description="degenerate time-fractional diffusion toolbox")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, what) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=what, allow_abbrev=False,
                       epilog="--KEY VALUE sets the config key KEY and is "
                       "read as in a config file (--tol none works); "
                       "flags override the file")
    return ap


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for key in _FLAGS:
        raw = getattr(args, key)
        if raw is not None:
            cfg = _set(cfg, key, raw, f"--{key}")
    cfg.validate()
    return cfg


#: the exit code of each error kind (a DegeneracyError is a DomainError)
_EXIT_CODES = {ConfigError: 1, DomainError: 2, ResolutionError: 3,
               SolverError: 3, VerificationError: 4, RegimeError: 4}


def main(argv=None) -> int:
    files = {}
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        try:
            return _COMMANDS[args.command][0](cfg, files)
        finally:  # a failing verify still leaves verify.json
            _write(Path(cfg.out), files)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    _sys.exit(main())
