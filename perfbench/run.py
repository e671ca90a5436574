"""Benchmark of degenfrac: three workloads, end-to-end or layer by layer.

    python3 perfbench/run.py --workload forced_solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (degenfrac is imported from src/).
Every interpreter is a fresh `worker.py` process: two set-up-only ones
and the worker that runs the timed loop, whose set-up is the third
sample.  The last line of stdout is the result as one JSON object; the
line before it records the host, the versions and the sample counts.
See perfbench/README.md for the workloads and the metrics.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest problem sizes, one set-up sample (self-test)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _worker(args, workdir: Path, seconds: float, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t-launch", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _digits(error: float) -> float:
    return -math.log10(error) if 0.0 < error < math.inf else 0.0


def _result(args, setups, res):
    records = res["records"]
    times = [r["seconds"] for r in records]
    ok = [r["ok"] for r in records]
    correct = all(ok) and res.get("identical", True)
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in res["layers"].items()}
    else:
        worst = max(r["error"] for r in records[:res["min_requests"]])
        scale = res["time_scale"]
        setup = statistics.median(s["setup_norm_s"] for s in setups)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "request_s_p50": {"value": scale * statistics.median(times),
                              "unit": "s"},
            "requests_per_s": {"value": sum(ok) / (scale * sum(times)),
                               "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "accuracy_digits": {"value": _digits(worst), "unit": "digits"},
        }
    return {"correct": bool(correct), "attempted": len(records),
            "failed": ok.count(False), "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "degenfrac" / "__init__.py").is_file():
        print(f"error: no degenfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load_before = os.getloadavg()
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(0 if args.tiny else SETUP_SAMPLES - 1):
                setups.append(_worker(args, workdir, 0.0, deadline))
        res = _worker(args, workdir, args.seconds, deadline)
        setups.append(res)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = sorted(r["seconds"] for r in res["records"])
    quart = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "samples": len(times), "request_s_q1_q3": [quart[0], quart[2]],
            "setup_samples_s": [s["setup_s"] for s in setups],
            "setup_samples_norm_s": [s["setup_norm_s"] for s in setups],
            "request_s_p50_raw": statistics.median(times),
            "time_scale": res.get("time_scale"), "versions": res["versions"],
            "cpu": _cpu_model(), "nproc": os.cpu_count(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg()}
    print(json.dumps({"info": info}))
    print(json.dumps(_result(args, setups, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
