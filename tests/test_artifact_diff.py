"""The numeric comparison, the child environment and the warm leg's
driver of tools/artifact_diff.py (its CLI matrix is run by hand: python
tools/artifact_diff.py REV)."""
import importlib.util
import json
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
_spec = importlib.util.spec_from_file_location("artifact_diff", _PATH)
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)
diff = artifact_diff.diff_artifact


def test_identical_bytes_give_no_verdict():
    assert diff(b"t,x\n1,2\n", b"t,x\n1,2\n", ".csv") is None


def test_csv_reports_the_largest_numeric_change():
    old = b"t,1.0e+00\n1.0e+00,4.0e+00\n2.0e+00,1.0e+00\n"
    new = b"t,1.0e+00\n1.0e+00,4.5e+00\n2.0e+00,1.0e+00\n"
    assert diff(old, new, ".csv") == ("max abs change 5.000e-01, "
                                      "max rel change 1.111e-01")
    assert diff(old, b"t,1.0e+00\n1.0e+00,4.0e+00\n", ".csv") == \
        "different structure"
    assert diff(old, old.replace(b"t,", b"s,"), ".csv").startswith("text leaf")


def test_json_walks_nested_leaves_and_their_structure():
    def enc(obj):
        return json.dumps(obj, sort_keys=True).encode()

    old = {"a": [1.0, 2.0], "b": {"c": 3.0, "kind": "strong", "ok": True}}
    new = {"a": [1.0, 2.0], "b": {"c": 3.0 + 3e-12, "kind": "strong",
                                  "ok": True}}
    assert diff(enc(old), enc(new), ".json").startswith("max abs change 3.0")
    assert diff(enc(old), enc(dict(old, a=[1.0])), ".json") == \
        "different structure"
    flipped = dict(old, b=dict(old["b"], ok=False))
    assert diff(enc(old), enc(flipped), ".json") == "text leaf True -> False"


def test_run_case_pins_blas_to_one_thread_in_the_child(tmp_path,
                                                       monkeypatch):
    # some artifacts change in their last bits with the BLAS thread count,
    # so the caller's setting must not reach either tree's run
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "2")
    seen = {}

    class Done:
        returncode = 0

    def run(argv, **kwargs):
        seen.update(argv=argv, **kwargs)
        return Done()

    monkeypatch.setattr(artifact_diff.subprocess, "run", run)
    src = tmp_path / "src"
    assert artifact_diff.run_case(src, tmp_path / "w", ["eigen"], {}) == 0
    env = seen["env"]
    assert env["PYTHONPATH"] == str(src)
    assert all(env[name] == "1" for name in ("OPENBLAS_NUM_THREADS",
                                             "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS"))
    assert seen["argv"][-3:] == ["eigen", "--out", str(tmp_path / "w" / "out")]


def test_run_warm_drives_every_case_through_one_main_in_order(tmp_path,
                                                              monkeypatch):
    # the warm leg runs the solve cases and then the FD-marching verify and
    # convergence cases in one interpreter, so a cache key that misses a
    # field of the time setup shows as changed bytes; its child gets the
    # same environment as a fresh run's
    commands = [args[0] for _, args, _ in artifact_diff.WARM]
    assert commands == sorted(commands, key=["solve", "verify",
                                             "convergence"].index)
    assert {"solve", "verify", "convergence"} == set(commands)
    assert list(artifact_diff.WARM) == [
        case for case in artifact_diff.MATRIX if case[1][0] != "eigen"]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "2")
    seen = {}

    class Done:
        returncode = 0
        stdout = b"solve: regime=classical\n[0, 3, 0]\n"

    def run(argv, **kwargs):
        seen.update(argv=argv, **kwargs)
        return Done()

    monkeypatch.setattr(artifact_diff.subprocess, "run", run)
    src, root = tmp_path / "src", tmp_path / "warm"
    root.mkdir()
    cases = [("one", ["solve", "--modes", "8"], {"f": "sep:one|sin:3"}),
             ("two", ["solve", "--beta", "1.5"], {}),
             ("three", ["verify", "--alpha", "1"], {})]
    assert artifact_diff.run_warm(src, root, cases) == [0, 3, 0]
    env = seen["env"]
    assert env["PYTHONPATH"] == str(src)
    assert all(env[name] == "1" for name in ("OPENBLAS_NUM_THREADS",
                                             "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS"))
    assert seen["argv"][:3] == [sys.executable, "-c", artifact_diff._WARM]
    assert "from degenfrac.cli import main" in artifact_diff._WARM
    cfg = root / "one" / "run.cfg"
    assert json.loads(seen["argv"][3]) == [
        ["solve", "--modes", "8", "--out", str(root / "one" / "out"),
         "--config", str(cfg)],
        ["solve", "--beta", "1.5", "--out", str(root / "two" / "out")],
        ["verify", "--alpha", "1", "--out", str(root / "three" / "out")]]
    assert cfg.read_text() == "f = sep:one|sin:3\n"
    # a child that dies leaves every case failed
    Done.returncode = 1
    assert artifact_diff.run_warm(src, tmp_path / "again", cases) == [1, 1, 1]


def test_the_matrix_solves_every_time_factor_kind_twice_in_a_row():
    # each time factor that the solver memoizes by value (sin, cos, poly,
    # spow, spow at a > 0) has a solve case; cos and spow at a > 0 are
    # solved at two betas one after the other on the same time setup, so
    # the warm leg reads their second solve's node sums from the memo
    def setup(case):
        args = list(case[1])
        i = args.index("--beta") if "--beta" in args else None
        if i is not None:
            del args[i:i + 2]
        return args, case[2]

    solves = [case for case in artifact_diff.WARM if case[1][0] == "solve"]
    factors = [case[2].get("f", "").rpartition("|")[2] for case in solves]
    for kind in ("sin:", "cos:", "poly:", "spow:"):
        assert any(f.startswith(kind) for f in factors), kind
    assert any(f.startswith("spow:") and "--a" in case[1]
               for f, case in zip(factors, solves))
    for kind, needs_a in (("cos:", False), ("spow:", True)):
        assert any(
            f.startswith(kind) and ("--a" in one[1]) == needs_a
            and setup(one) == setup(two) and one[1] != two[1]
            for f, one, two in zip(factors, solves, solves[1:])), kind


def test_the_matrix_solves_one_mode_at_two_betas_in_a_row():
    # forced_solve's beta sweep (K = 1, sin:3, beta 0.3 then 0.8): the one
    # mode finishes the whole dense table in one pass, and the warm leg's
    # second solve reads the first one's node sums
    solves = [case for case in artifact_diff.WARM if case[1][0] == "solve"]
    assert any(
        one[1] == ["solve", "--modes", "1", "--beta", "0.3"]
        and two[1] == ["solve", "--modes", "1", "--beta", "0.8"]
        and one[2] == two[2] == artifact_diff.SIN3
        for one, two in zip(solves, solves[1:]))


def test_the_matrix_compares_the_field_in_both_formats():
    # solution.csv and solution.json are formatted apart, so each is
    # compared with the other tree's bytes, fresh and warm
    formats = {"json" if "json" in args else "csv"
               for _, args, _ in artifact_diff.WARM if args[0] == "solve"}
    assert formats == {"csv", "json"}
