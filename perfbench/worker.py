"""One benchmark interpreter, started by run.py.

It imports degenfrac, runs the workload's warm-up and reports the time
since its launch as one set-up sample, with a calibration block right
after it (see calibrate.py).  With --seconds > 0 it then runs the timed
closed loop (one client, one request at a time), with calibration
samples between requests; with --trace 1, an untraced and a traced loop
instead.  It prints one JSON line.
"""
import os

# noise guard: every array here is small, and BLAS threads would only
# compete for the two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate

CAL_SHARE = 0.25       # calibration time per unit of request time
SETUP_CAL_S = 0.3      # calibration right after set-up


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t-launch", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


def _ml_cache_size(special) -> int:
    # the number of (alpha, b) keys with a built ray fit; 0 once the
    # evaluator keeps no cache
    return len(getattr(special, "_RAY_CACHE", ()))


def run_phase(wl, seed, start, seconds, min_requests, special, tracer=None,
              calibration=None):
    """Closed loop from request `start` until `seconds` have passed and at
    least `min_requests` have run.  One record per request.  With a
    `calibration` list, calibration samples are interleaved between
    requests until they have taken CAL_SHARE of the requests' time."""
    records = []
    t_phase = time.perf_counter()
    busy = cal_busy = 0.0
    i = start
    while (len(records) < min_requests
           or time.perf_counter() - t_phase < seconds):
        request = wl.prepare(wl.draw(seed, i))
        keys0 = _ml_cache_size(special)
        gc.collect()
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            result = request()
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            error, digest = math.inf, None
        else:
            dt = time.perf_counter() - t0
            error, digest = wl.check(result)
        if tracer is not None:
            tracer.request = None
        records.append({"index": i, "seconds": dt, "error": error,
                        "ok": error <= wl.tol, "digest": digest,
                        "new_keys": _ml_cache_size(special) - keys0})
        i += 1
        busy += dt
        if calibration is not None:
            t0 = time.perf_counter()
            calibration += calibrate.run_for(CAL_SHARE * busy - cal_busy)
            cal_busy += time.perf_counter() - t0
    return records


def _traced(wl, args, special):
    import layertrace

    half = args.seconds / 2.0
    plain = run_phase(wl, args.seed, 0, half, 1, special)
    tracer = layertrace.Tracer()
    with tracer.installed():
        traced = run_phase(wl, args.seed, len(plain), half, 1, special, tracer)
    # the first traced request once more, untraced: its outputs must match
    again = run_phase(wl, args.seed, traced[0]["index"], 0.0, 1, special)
    fd_cells = getattr(wl, "nx", 0) * getattr(wl, "nt", 0)
    layers = layertrace.median_layers([
        layertrace.request_layers(tracer.layer_totals(r["index"]),
                                  r["new_keys"], fd_cells)
        for r in traced])
    layers["trace.overhead_s"] = (
        statistics.median(r["seconds"] for r in traced)
        - statistics.median(r["seconds"] for r in plain))
    return {"records": plain + traced + again,
            "identical": again[0]["digest"] == traced[0]["digest"]
            and again[0]["digest"] is not None,
            "layers": layers}


def main(argv=None) -> int:
    args = _parse(argv)
    proto = sys.stdout
    sys.stdout = open(os.devnull, "w")   # the CLI prints a summary line

    import numpy
    import scipy
    import degenfrac
    from degenfrac import special
    import workloads

    wl = workloads.WORKLOADS[args.workload](Path(args.workdir), args.tiny)
    wl.warm_up()
    setup_s = time.monotonic() - args.t_launch
    cal = calibrate.run_for(SETUP_CAL_S)
    out = {"setup_s": setup_s,
           "setup_norm_s": setup_s * calibrate.REFERENCE_S / statistics.fmean(cal)}
    if args.seconds > 0:
        if args.trace:
            out.update(_traced(wl, args, special))
        else:
            min_requests = 1 if args.tiny else wl.min_requests
            out["records"] = run_phase(wl, args.seed, 0, args.seconds,
                                       min_requests, special, calibration=cal)
            out["min_requests"] = min_requests
            out["time_scale"] = calibrate.REFERENCE_S / statistics.fmean(cal)
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
        out["versions"] = {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "degenfrac": degenfrac.__version__}
    proto.write(json.dumps(out) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
