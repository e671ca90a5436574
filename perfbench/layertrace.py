"""Outside-in layer trace.

Wraps public functions of degenfrac under the name their caller uses, so
a span opens each time a layer is entered.  Nothing inside the package is
changed: the wrappers replace module attributes while the traced phase
runs and the originals are put back afterwards.

A span is ``(request, name, parent, start, end, points)``; ``parent`` is
the index of the enclosing span or -1.  A layer's self time is its span
minus the spans directly inside it.
"""
from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The CLI binds the solver entry points
# at import, so they are wrapped in degenfrac.cli; the library calls of
# fd_crosscheck go through degenfrac.solver / spectral / oraclefd.
WRAPPED = (
    ("degenfrac.cli", "main", "cli.main"),
    ("degenfrac.cli", "solve_eigen", "spectral.solve_eigen"),
    ("degenfrac.cli", "assemble", "solver.assemble"),
    ("degenfrac.cli", "residual_strong", "solver.residual"),
    ("degenfrac.cli", "residual_weak", "solver.residual"),
    ("degenfrac.spectral", "solve_eigen", "spectral.solve_eigen"),
    ("degenfrac.solver", "assemble", "solver.assemble"),
    ("degenfrac.solver", "ml_eval_many", "special.ml_eval_many"),
    ("degenfrac.solver", "hb_caputo", "fracops.hb_caputo"),
    ("degenfrac.special", "ml_eval", "special.ml_eval"),
    ("degenfrac.oraclefd", "fd_solve", "oraclefd.fd_solve"),
    ("degenfrac.oraclefd", "compare", "oraclefd.compare"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                points = (int(np.size(args[2])) if name == "special.ml_eval_many"
                          else 0)
                self.spans[idx] = (self.request, name, parent, t0, t1, points)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name in WRAPPED:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(name, saved[-1][2]))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def layer_totals(self, request) -> dict:
        """name -> [calls, seconds, self seconds, points] for one request."""
        child = {}
        for r, _, parent, t0, t1, _ in self.spans:
            if r == request and parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {}
        for idx, (r, name, _, t0, t1, points) in enumerate(self.spans):
            if r != request:
                continue
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += (t1 - t0) - child.get(idx, 0.0)
            acc[3] += points
        return out


def request_layers(totals: dict, new_keys: int, fd_cells: int) -> dict:
    """Per-layer metrics of one traced request (see README.md)."""
    def get(name, field):
        return totals.get(name, [0, 0.0, 0.0, 0])[field]

    fd_s = get("oraclefd.fd_solve", 1)
    points = get("special.ml_eval_many", 3)
    return {
        "special.ml_eval.calls": get("special.ml_eval", 0),
        "special.ml_eval.s": get("special.ml_eval", 1),
        "special.ml_eval_many.new_keys": new_keys,
        "special.ml_eval_many.calls": get("special.ml_eval_many", 0),
        "special.ml_eval_many.points": points,
        "special.ml_eval_many.s": get("special.ml_eval_many", 1),
        "special.points_per_new_key": points / max(new_keys, 1),
        "solver.assemble.s": get("solver.assemble", 1),
        "solver.assemble.self_s": get("solver.assemble", 2),
        "solver.residual.s": get("solver.residual", 1),
        "solver.residual.self_s": get("solver.residual", 2),
        "fracops.hb_caputo.calls": get("fracops.hb_caputo", 0),
        "fracops.hb_caputo.s": get("fracops.hb_caputo", 1),
        "spectral.solve_eigen.calls": get("spectral.solve_eigen", 0),
        "spectral.solve_eigen.s": get("spectral.solve_eigen", 1),
        "oraclefd.fd_solve.s": fd_s,
        "oraclefd.fd_solve.cell_steps_per_s": fd_cells / fd_s if fd_s else 0.0,
        "oraclefd.compare.s": get("oraclefd.compare", 1),
        "cli.main.self_s": get("cli.main", 2),
    }


def median_layers(per_request: list) -> dict:
    return {k: statistics.median(r[k] for r in per_request)
            for k in per_request[0]}
