"""Compare the CLI artifacts of a git revision with the working tree's.

    python tools/artifact_diff.py REV

Extracts REV's src/ with `git archive` into a temporary directory, runs one
fixed matrix of CLI commands (MATRIX) as `python -m degenfrac` with
PYTHONPATH set to each tree's src/, REV's and then the working tree's, and
BLAS pinned to one thread in both.  Each of these runs is a fresh process.
A warm leg then runs the matrix's solve cases, and after them its verify
and convergence cases (the ones that march the FD oracle), again in one
interpreter of the working tree, in matrix order, through
degenfrac.cli.main (WARM), so each case meets the caches its predecessors
filled; their artifacts must equal the fresh runs' bytes.  Prints one line
per artifact: "identical", or the largest absolute and relative change of
a numeric CSV cell or JSON leaf.
Exits 0 only when every command exits 0 and every artifact is identical.
Everything is written under the temporary directory, which is removed at
the end.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SIN3 = {"f": "sep:one|sin:3"}
QUAD1 = {"f": "sep:quadratic|one"}
SHORT = {"x_points": 3, "t_points": 2, **SIN3}
COS2 = {"f": "sep:one|cos:2"}
SPOW_A = {"f": "sep:one|spow:0.5"}
A03 = ["--a", "0.3", "--T", "1.4"]

#: (case name, CLI arguments, config-file keys); --out is added per run
MATRIX = (
    ("eigen-b0.5", ["eigen", "--modes", "8", "--beta", "0.5"], {}),
    ("eigen-b0.5-bessel", ["eigen", "--modes", "8", "--beta", "0.5",
                           "--oracle", "bessel"], {}),
    ("eigen-b0.8", ["eigen", "--modes", "16", "--beta", "0.8"], {}),
    # lambda_64 at beta 0.95 takes the refined 16,384-cell mesh
    ("eigen-b0.95-k64", ["eigen", "--modes", "64", "--beta", "0.95"], {}),
    ("eigen-b1.5", ["eigen", "--modes", "8", "--beta", "1.5"], {}),
    # the most Lanczos steps of the matrix: 2 K + 64 = 320 may be taken
    ("eigen-b1.7-k128", ["eigen", "--modes", "128", "--beta", "1.7"], {}),
    ("eigen-b1.5-bessel", ["eigen", "--modes", "8", "--beta", "1.5",
                           "--oracle", "bessel"], {}),
    # nu = 4, above the orders 1/3 and 1 of the other Bessel cases
    ("eigen-b1.8-bessel-k32", ["eigen", "--modes", "32", "--beta", "1.8",
                               "--oracle", "bessel"], {}),
    # nu = 19, where each sp.jv point of the closed form costs most
    ("eigen-b1.95-bessel-k16", ["eigen", "--modes", "16", "--beta", "1.95",
                                "--oracle", "bessel"], {}),
    ("solve-sin3-b0.5", ["solve", "--modes", "8", "--beta", "0.5"], SIN3),
    ("solve-sin3-b1.5", ["solve", "--modes", "8", "--beta", "1.5"], SIN3),
    ("solve-sin3-alpha1", ["solve", "--modes", "8", "--alpha", "1"], SIN3),
    # the residual's graded grid at a small alpha, where no node underflows
    ("solve-alpha0.05", ["solve", "--modes", "8", "--alpha", "0.05"], SIN3),
    # the residual's first nodes underflow onto 0, and its last L1
    # intervals span several cells of the mode table
    ("solve-alpha0.02", ["solve", "--modes", "8", "--alpha", "0.02"], SIN3),
    ("solve-quad-b1.5", ["solve", "--modes", "8", "--beta", "1.5"], QUAD1),
    ("solve-quad-a0.3", ["solve", "--modes", "8", *A03], QUAD1),
    ("solve-spow", ["solve", "--modes", "16"], {"f": "sep:one|spow:0.3"}),
    # every time factor the solver memoizes by value; a second beta on the
    # same factor and time setup, next in the matrix, meets the warm leg's
    # memo hits
    ("solve-cos2-b0.5", ["solve", "--modes", "8", "--beta", "0.5"], COS2),
    ("solve-cos2-b1.5", ["solve", "--modes", "8", "--beta", "1.5"], COS2),
    ("solve-poly", ["solve", "--modes", "8"],
     {"f": "sep:one|poly:0,1,-0.5"}),
    ("solve-spow-a0.3-b0.5", ["solve", "--modes", "8", "--beta", "0.5",
                              *A03], SPOW_A),
    ("solve-spow-a0.3-b1.5", ["solve", "--modes", "8", "--beta", "1.5",
                              *A03], SPOW_A),
    # forced_solve's settings: one mode, whose finish takes the whole
    # dense table in one pass; the second beta, next in the matrix, is the
    # warm leg's beta-sweep hit on the convolution's node sums
    ("solve-sin3-k1-b0.3", ["solve", "--modes", "1", "--beta", "0.3"], SIN3),
    ("solve-sin3-k1-b0.8", ["solve", "--modes", "1", "--beta", "0.8"], SIN3),
    # the README forced example, and the stiff end of the kernels
    ("solve-sin3-k16", ["solve", "--modes", "16"], SIN3),
    # the most modes whose by-parts roundoff one forced case sums
    ("solve-sin3-k64", ["solve", "--modes", "64"], SIN3),
    ("solve-sin30-k16", ["solve", "--modes", "16"], {"f": "sep:one|sin:30"}),
    # short grids: one interior x, so the strong residual takes its
    # fallback x grid, and fewer than 7 times for the residual to sample
    ("solve-short-b0.5", ["solve", "--modes", "8", "--beta", "0.5"],
     SHORT),
    ("solve-short-b1.5", ["solve", "--modes", "8", "--beta", "1.5"],
     SHORT),
    ("solve-nosource", ["solve", "--modes", "8"], {}),
    # every space profile of the grammar's two families, wave (sin, cos)
    # and constant (zero, one, const), in phi or in a source's space factor
    ("solve-wave-profiles", ["solve", "--modes", "8"],
     {"phi": "sin:1", "f": "sep:cos:0.5|sin:3"}),
    ("solve-const-profiles", ["solve", "--modes", "8"],
     {"phi": "zero", "f": "sep:const:2|cos:2"}),
    # an eigenmode and a polynomial as space profiles: mode:5 starts the
    # auto ladder at K = 5
    ("solve-mode-auto", ["solve", "--modes", "auto", "--tol", "1e-3"],
     {"phi": "poly:0,1,-1", "f": "sep:mode:5|spow:0.5"}),
    ("solve-bessel", ["solve", "--modes", "8", "--oracle", "bessel"], {}),
    # the field as solution.json, the one JSON artifact of numpy rows
    ("solve-json", ["solve", "--modes", "8", "--format", "json"], SIN3),
    # the README's --modes auto example
    ("solve-auto", ["solve", "--beta", "1.5", "--alpha", "0.6", "--theta",
                    "0.3", "--modes", "auto", "--tol", "1e-3"], {}),
    ("verify-b0.5", ["verify", "--beta", "0.5"], {}),
    ("verify-b1.5", ["verify", "--beta", "1.5"], {}),
    # the FD oracle's march at alpha = 1, where the L1 rule is backward
    # differences
    ("verify-alpha1", ["verify", "--alpha", "1"], {}),
    # the FD oracle's marches from a > 0, in warped time
    ("verify-a0.3", ["verify", "--beta", "0.5", *A03], {}),
    ("convergence", ["convergence"], {}),
    # FD marches of 72 = 64 + 8 and 133 = 2 * 64 + 5 steps, both ending in
    # a partial block, with a source that changes from step to step
    ("convergence-fd-partial", ["convergence"],
     {"mesh_ladder": "72,133", "f": "sep:one|sin:3"}),
    # the same partial blocks in the weak regime, where x = 0 is an
    # unknown, with a space factor that is not constant
    ("convergence-fd-weak", ["convergence", "--beta", "1.5"],
     {"mesh_ladder": "72,133", "f": "sep:quadratic|cos:2"}),
)

#: the warm leg's cases, in matrix order: the solves, then the verify and
#: convergence cases, whose FD marches share the L1 weight cache
WARM = tuple(case for case in MATRIX
             if case[1][0] in ("solve", "verify", "convergence"))


#: BLAS is pinned to one thread in both trees: some artifacts change in
#: their last bits with the thread count (ROADMAP item 7)
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def extract_src(rev: str, dest: Path) -> Path:
    """REV's src/ under dest, by git archive; returns dest / "src"."""
    blob = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar",
                           rev, "src"], check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(blob)) as tf:
        tf.extractall(dest, **safe)
    return dest / "src"


def _child_env(src: Path) -> dict:
    """The environment of a run against the package under src."""
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                **{name: "1" for name in _BLAS_THREADS})


def _cli_args(work: Path, args, keys) -> list:
    """The CLI arguments of one case writing into work/out, with its
    config-file keys in work/run.cfg."""
    work.mkdir(parents=True)
    argv = [*args, "--out", str(work / "out")]
    if keys:
        cfg = work / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        argv += ["--config", str(cfg)]
    return argv


def run_case(src: Path, work: Path, args, keys) -> int:
    """One CLI run against the package under src, writing into work/out;
    returns its exit code."""
    argv = [sys.executable, "-m", "degenfrac", *_cli_args(work, args, keys)]
    return subprocess.run(argv, cwd=work, env=_child_env(src),
                          capture_output=True).returncode


#: the warm leg's interpreter: every case's CLI arguments, from a JSON
#: list, through one degenfrac.cli.main; its last line is their exit codes
_WARM = ("import json, sys\n"
         "from degenfrac.cli import main\n"
         "print(json.dumps([main(a) for a in json.loads(sys.argv[1])]))\n")


def run_warm(src: Path, root: Path, cases) -> list:
    """The cases (name, CLI arguments, config-file keys) in order, in one
    interpreter against the package under src, case name writing into
    root/name/out; returns their exit codes."""
    argvs = [_cli_args(root / name, args, keys) for name, args, keys in cases]
    proc = subprocess.run([sys.executable, "-c", _WARM, json.dumps(argvs)],
                          cwd=root, env=_child_env(src), capture_output=True)
    if proc.returncode != 0:
        return [proc.returncode] * len(cases)
    return json.loads(proc.stdout.splitlines()[-1])


def _leaves(text: str, suffix: str):
    """The leaves of a CSV (cells, row-major) or JSON (sorted key order)
    artifact, and a structure key that must match for leaves to pair up."""
    if suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        return [c for r in rows for c in r], [len(r) for r in rows]
    leaves, shape = [], []

    def walk(node, path):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], f"{path}/{k}")
        elif isinstance(node, list):
            shape.append((path, len(node)))
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        else:
            shape.append(path)
            leaves.append(node)
    walk(json.loads(text), "")
    return leaves, shape


def _number(v):
    """v as a float when it is a numeric leaf or cell, else None."""
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def diff_artifact(old: bytes, new: bytes, suffix: str) -> str | None:
    """None when the bytes agree; else the largest absolute and relative
    change of a numeric leaf, or why the two cannot be paired up."""
    if old == new:
        return None
    try:
        a, shape_a = _leaves(old.decode(), suffix)
        b, shape_b = _leaves(new.decode(), suffix)
    except (UnicodeDecodeError, ValueError) as exc:
        return f"unreadable ({exc})"
    if shape_a != shape_b:
        return "different structure"
    big_abs = big_rel = 0.0
    for u, v in zip(a, b):
        x, y = _number(u), _number(v)
        if x is None or y is None:
            if u != v:
                return f"text leaf {u!r} -> {v!r}"
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        big_abs = max(big_abs, d)
        big_rel = max(big_rel, d / max(abs(x), abs(y)))
    return f"max abs change {big_abs:.3e}, max rel change {big_rel:.3e}"


def _compare(label: str, outs, sides) -> bool:
    """Prints one verdict per artifact of the two output directories outs,
    whose trees are named sides; True when every artifact is identical."""
    files = sorted({p.relative_to(o).as_posix()
                    for o in outs if o.is_dir()
                    for p in o.rglob("*") if p.is_file()})
    ok = True
    for rel in files:
        old, new = (o / rel for o in outs)
        if not (old.is_file() and new.is_file()):
            verdict = "only in " + sides[0 if old.is_file() else 1]
        else:
            verdict = diff_artifact(old.read_bytes(), new.read_bytes(),
                                    Path(rel).suffix)
        ok = ok and verdict is None
        print(f"{label}/{rel}: {verdict or 'identical'}")
    return ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = Path(tmp)
        trees = (("rev", extract_src(args[0], tmp / "rev")),
                 ("work", REPO / "src"))
        for name, cli_args, keys in MATRIX:
            codes = [run_case(src, tmp / side / "runs" / name, cli_args, keys)
                     for side, src in trees]
            if codes != [0, 0]:
                ok = False
                print(f"{name}: exit codes {codes[0]} (REV), {codes[1]} "
                      "(working tree); every case should exit 0")
            outs = [tmp / side / "runs" / name / "out" for side, _ in trees]
            ok = _compare(name, outs, ("REV", "the working tree")) and ok
        codes = run_warm(REPO / "src", tmp / "warm", WARM)
        for (name, _, _), code in zip(WARM, codes):
            if code != 0:
                ok = False
                print(f"warm/{name}: exit code {code}; every case should "
                      "exit 0")
            outs = [tmp / "work" / "runs" / name / "out",
                    tmp / "warm" / name / "out"]
            ok = _compare(f"warm/{name}", outs, ("the fresh run",
                                                 "the warm run")) and ok
    print("all artifacts identical" if ok else "artifacts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
