"""The three benchmark workloads.

Request ``i`` of seed ``s`` is a pure function of ``(s, i)``, so the
request order is fixed per seed and independent of how many requests a
run gets through.  A request is split
into three steps so that only the program's work is timed:

- ``prepare(params)`` writes inputs (config files) and returns a
  zero-argument callable;
- calling it is the timed request;
- ``check(result)`` returns ``(error, digest)``: the error that the
  tolerance applies to, and a hash of the outputs used to compare a
  traced run with an untraced one.

Library calls go through module attributes (``oraclefd.fd_solve``, not a
name bound at import), so the outside-in tracer in ``layertrace`` sees them.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from degenfrac import cli, oraclefd, solver, spectral
from degenfrac.fracops import warp_forward

RESIDUAL_TOL = 1e-3   # residual sup_rel of a CLI solve
L2_TOL = 1e-2         # spectral vs FD l2_rel, the tolerance of gate 11

FORCED_BETA = (0.3, 0.8)
WEAK_BETA = (1.2, 1.7)


def _rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{i}")


def _spread(name: str, seed: int, i: int, lo: float, hi: float) -> float:
    """Request i's value of the parameter a workload's cost depends on most.

    A golden-ratio (Weyl) sequence with a seeded offset: any n consecutive
    requests cover [lo, hi) nearly evenly, so two seeds time almost the
    same mix and the run median does not hinge on a lucky draw."""
    u = random.Random(f"{name}:{seed}").random() + i * 0.6180339887498949
    return lo + (hi - lo) * (u % 1.0)


def draw_forced(seed: int, i: int) -> dict:
    return {"beta": _spread("forced_solve", seed, i, *FORCED_BETA)}


def draw_cold(seed: int, i: int) -> dict:
    r = _rng("cold_sweep", seed, i)
    a = r.uniform(0.0, 0.5)
    return {"alpha": _spread("cold_sweep", seed, i, 0.3, 0.95),
            "theta": r.uniform(-0.5, 0.5), "a": a, "T": a + 1.0,
            "beta": r.uniform(*WEAK_BETA)}


def draw_fd(seed: int, i: int) -> dict:
    # even requests classical, odd ones weak
    return {"beta": _spread("fd_crosscheck", seed, i // 2,
                            *(FORCED_BETA if i % 2 == 0 else WEAK_BETA))}


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class _CliSolve:
    """A ``degenfrac solve --config FILE`` request, run in process."""

    def __init__(self, workdir: Path, tiny: bool):
        self.cfg_path = workdir / f"{self.name}.cfg"
        self.out = workdir / f"{self.name}_out"
        self.sizes = self.tiny_sizes if tiny else self.full_sizes

    def prepare(self, params: dict):
        body = {**self.fixed, **self.sizes, **params}
        self.cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in body.items()))
        argv = ["solve", "--config", str(self.cfg_path), "--out", str(self.out)]
        return lambda: cli.main(argv)

    def check(self, rc):
        if rc != 0:
            return math.inf, None
        diag = json.loads((self.out / "diagnostics.json").read_text())
        files = sorted(self.out.iterdir())
        return (float(diag["residual"]["sup_rel"]),
                _digest(*(p.name.encode() + p.read_bytes() for p in files)))


class ForcedSolve(_CliSolve):
    """Classical regime with a time-varying source: every mode goes through
    the per-time source convolution, on warm Mittag-Leffler keys."""

    name = "forced_solve"
    draw = staticmethod(draw_forced)
    tol = RESIDUAL_TOL
    min_requests = 4
    fixed = {"alpha": 0.6, "theta": 0.3, "a": 0.0, "T": 1.0,
             "phi": "quadratic", "f": "sep:one|sin:3"}
    # modes 1, not 8: a request at modes 8 takes 20-27 s on a 2-core host;
    # at modes 2 a 30 s run still timed only 5-6 requests, and the median
    # of so few moved by 0.11 (IQR/median) from run to run
    full_sizes = {"modes": 1}
    tiny_sizes = {"modes": 1, "x_points": 9, "t_points": 3}

    def warm_up(self) -> None:
        # the Mittag-Leffler keys depend on alpha only, and the largest
        # argument on lambda_K, which is largest at the lowest beta drawn
        beta = FORCED_BETA[0]
        K = int(self.sizes["modes"])
        spec = solver.ProblemSpec(
            self.fixed["alpha"], self.fixed["theta"], beta, self.fixed["a"],
            self.fixed["T"], lambda x: x * (1.0 - x),
            solver.SeparableSource(lambda x: np.ones_like(x),
                                   lambda t: math.sin(3.0 * t)))
        solver.assemble(spec, spectral.solve_eigen(beta, K), K,
                        np.linspace(0.0, 1.0, 65), np.array([spec.T]))


class ColdSweep(_CliSolve):
    """Weak regime, a fresh fractional order per request: every request
    builds new ray fits.  The source is constant in time, so the
    convolution loop is skipped."""

    name = "cold_sweep"
    draw = staticmethod(draw_cold)
    tol = RESIDUAL_TOL
    min_requests = 24
    fixed = {"phi": "quadratic", "f": "sep:quadratic|one"}
    full_sizes = {"modes": 8}
    tiny_sizes = {"modes": 2, "x_points": 9, "t_points": 3}

    def warm_up(self) -> None:
        """Import only: the cold work is per request by design."""


class FDCrosscheck:
    """Library path of gate 11: FD oracle, spectral reference on the FD
    x-grid, and their comparison at T."""

    name = "fd_crosscheck"
    draw = staticmethod(draw_fd)
    tol = L2_TOL
    min_requests = 32
    alpha, theta, a, T = 0.6, 0.3, 0.0, 1.0

    def __init__(self, workdir: Path, tiny: bool):
        self.nx, self.nt = (64, 64) if tiny else (512, 512)
        self.K = 16

    def prepare(self, params: dict):
        return lambda: self._request(params["beta"])

    def _request(self, beta: float):
        spec = solver.ProblemSpec(
            self.alpha, self.theta, beta, self.a, self.T,
            lambda x: x * (1.0 - x),
            solver.SeparableSource(lambda x: np.ones_like(x), lambda t: 1.0))
        mesh = oraclefd.FDMesh.build(beta, self.alpha,
                                     warp_forward(spec.warp, self.T),
                                     nx=self.nx, nt=self.nt)
        fd = oraclefd.fd_solve(spec, mesh)
        ref = solver.assemble(spec, spectral.solve_eigen(beta, self.K), self.K,
                              fd.x_grid, np.array([self.T]))
        rep = oraclefd.compare(fd, ref, t_subset=[self.T])
        return fd, ref, rep

    def check(self, result):
        fd, ref, rep = result
        return (float(rep.l2_rel[0]),
                _digest(fd.values.tobytes(), ref.values.tobytes()))

    def warm_up(self) -> None:
        # one full request: fills the ray fits up to lambda_K at the lowest
        # beta drawn, and pays the first touch of the FD history buffers
        self._request(FORCED_BETA[0])


WORKLOADS = {w.name: w for w in (ForcedSolve, ColdSweep, FDCrosscheck)}
