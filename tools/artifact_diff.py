"""Compare the CLI artifacts of a git revision with the working tree's.

    python tools/artifact_diff.py REV

Extracts REV's src/ with `git archive` into a temporary directory, runs one
fixed matrix of CLI commands (MATRIX) as `python -m degenfrac` with
PYTHONPATH set to each tree's src/, REV's and then the working tree's, and
BLAS pinned to one thread in both.  Prints one line per artifact:
"identical", or the largest absolute and relative change of a numeric CSV
cell or JSON leaf.  Exits 0 only when every command exits 0 on both trees
and every artifact is identical.  Everything is written under the
temporary directory, which is removed at the end.
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

#: (case name, CLI arguments, config-file keys); --out is added per run
MATRIX = (
    ("eigen-b0.5", ["eigen", "--modes", "8", "--beta", "0.5"], {}),
    ("eigen-b0.5-bessel", ["eigen", "--modes", "8", "--beta", "0.5",
                           "--oracle", "bessel"], {}),
    ("eigen-b0.8", ["eigen", "--modes", "16", "--beta", "0.8"], {}),
    # lambda_64 at beta 0.95 takes the refined 16,384-cell mesh
    ("eigen-b0.95-k64", ["eigen", "--modes", "64", "--beta", "0.95"], {}),
    ("eigen-b1.5", ["eigen", "--modes", "8", "--beta", "1.5"], {}),
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
    ("solve-quad-a0.3", ["solve", "--modes", "8", "--a", "0.3",
                         "--T", "1.4"], QUAD1),
    ("solve-spow", ["solve", "--modes", "16"], {"f": "sep:one|spow:0.3"}),
    # the README forced example, and the stiff end of the kernels
    ("solve-sin3-k16", ["solve", "--modes", "16"], SIN3),
    # the most modes whose by-parts roundoff one forced case sums
    ("solve-sin3-k64", ["solve", "--modes", "64"], SIN3),
    ("solve-sin30-k16", ["solve", "--modes", "16"], {"f": "sep:one|sin:30"}),
    ("solve-nosource", ["solve", "--modes", "8"], {}),
    ("solve-bessel", ["solve", "--modes", "8", "--oracle", "bessel"], {}),
    # the README's --modes auto example
    ("solve-auto", ["solve", "--beta", "1.5", "--alpha", "0.6", "--theta",
                    "0.3", "--modes", "auto", "--tol", "1e-3"], {}),
    ("verify-b0.5", ["verify", "--beta", "0.5"], {}),
    ("verify-b1.5", ["verify", "--beta", "1.5"], {}),
    # the FD oracle's march at alpha = 1, where the L1 rule is backward
    # differences
    ("verify-alpha1", ["verify", "--alpha", "1"], {}),
    ("convergence", ["convergence"], {}),
)


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


def run_case(src: Path, work: Path, args, keys) -> int:
    """One CLI run against the package under src, writing into work/out;
    returns its exit code."""
    work.mkdir(parents=True)
    argv = [sys.executable, "-m", "degenfrac", *args,
            "--out", str(work / "out")]
    if keys:
        cfg = work / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        argv += ["--config", str(cfg)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               **{name: "1" for name in _BLAS_THREADS})
    return subprocess.run(argv, cwd=work, env=env,
                          capture_output=True).returncode


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
            files = sorted({p.relative_to(o).as_posix()
                            for o in outs if o.is_dir()
                            for p in o.rglob("*") if p.is_file()})
            for rel in files:
                old, new = (o / rel for o in outs)
                if not (old.is_file() and new.is_file()):
                    verdict = "only in " + ("REV" if old.is_file() else
                                            "the working tree")
                else:
                    verdict = diff_artifact(old.read_bytes(), new.read_bytes(),
                                            Path(rel).suffix)
                ok = ok and verdict is None
                print(f"{name}/{rel}: {verdict or 'identical'}")
    print("all artifacts identical" if ok else "artifacts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
