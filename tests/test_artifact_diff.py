"""The numeric comparison and the child environment of
tools/artifact_diff.py (its CLI matrix is run by hand: python
tools/artifact_diff.py REV)."""
import importlib.util
import json
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
