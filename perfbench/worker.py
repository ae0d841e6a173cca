"""One workload process: set up, run the timed loop, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|run

``--mode setup`` stops after set-up and prints the monotonic clock
reading at which the first timed request would start; ``run.py`` times
several such processes from spawn to that reading.  ``--mode run``
also runs the closed loop (one client, one thread, each request waits
for its answer) and prints one JSON object with the raw results.  With
``--trace 1`` the first half of the time runs untraced and the second
half under the span tracer, so that the tracing overhead is measured
on the same process.
"""

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE.parent / ".perfbench"  # traced runs write their spans here
# Request times in the end-to-end metrics are scaled to a host on which
# reference_kernel() takes REF_NOMINAL_S on average (about its time on
# the 2-core x86 VM the bounds were set on, when that host runs fast),
# which removes the drift of the host's own speed between runs.  The
# kernel is timed every REF_EVERY_S of request time.
REF_STEPS = 4000
REF_NOMINAL_S = 0.0035
REF_EVERY_S = 0.25


def _execute(req):
    t0 = time.perf_counter()
    try:
        req.output = req.run()
    except Exception as exc:  # a failed request is recorded and the run goes on
        req.error = f"{type(exc).__name__}: {exc}"
    req.latency = time.perf_counter() - t0


def reference_kernel():
    """Seconds for a fixed pure-Python complex Horner loop, the arithmetic
    the root finder spends its time in.  It does not depend on freeconv,
    so its time tracks only how fast the host runs this kind of code."""
    coeffs = [complex(i, -i) for i in range(1, 7)]
    t0 = time.perf_counter()
    acc = 0j
    for k in range(REF_STEPS):
        z = complex(0.001 * k, 0.5)
        p = 0j
        for c in coeffs:
            p = p * z + c
        acc += p
    return time.perf_counter() - t0


def timed_loop(workload, seconds, tracer=None):
    """Whole rounds, stopping at the round boundary nearest to ``seconds``
    of request time (a new round starts while at least half of it fits).
    The reference kernel is timed between requests, every REF_EVERY_S of
    request time, off the clock.  The host switches between a fast and a
    slow state many times a second, so its mean time, not the median,
    follows the share of time spent slow.  Each answer is checked right
    after its request, also off the clock.  Returns the Tally, the request
    time and the host scale: REF_NOMINAL_S over that mean, by which a time
    is multiplied to express it at the reference speed."""
    tally, kernel = Tally(), []
    busy = last_round = 0.0
    last_sample = -math.inf
    while not tally.latency or busy + 0.5 * last_round <= seconds:
        round_start = busy
        for req in workload.round():
            if busy - last_sample >= REF_EVERY_S:
                kernel.append(reference_kernel())
                last_sample = busy
            if tracer is None:
                _execute(req)
            else:
                tracer.request = len(tally.latency)
                with tracer.span("request"):
                    _execute(req)
            busy += req.latency
            tally.add(req)
        last_round = busy - round_start
    kernel.append(reference_kernel())
    return tally, busy, REF_NOMINAL_S / statistics.fmean(kernel)


def check(req):
    """Run the request's oracle check; a check failure fails the request."""
    if req.error is None:
        try:
            return req.check(req.output) or {}
        except Exception as exc:
            req.error = f"check: {type(exc).__name__}: {exc}"
    return {}


class Tally:
    """What the report needs of each checked request.  The requests
    themselves, with their outputs and closures, are dropped, so that
    the benchmark's own memory does not grow with the request count and
    move peak_rss_mb."""

    def __init__(self):
        self.latency = []  # a failed request counts as infinitely slow
        self.by_slot = {}
        self.keys, self.repeats = set(), 0
        self.failed, self.errors = 0, set()
        self.accuracy = {}  # worst oracle error of each kind

    def add(self, req):
        for k, v in check(req).items():
            self.accuracy[k] = max(self.accuracy.get(k, 0.0), v)
        self.latency.append(req.latency if req.error is None else math.inf)
        self.by_slot.setdefault(req.slot, []).append(req.latency)
        self.repeats += req.key in self.keys
        self.keys.add(req.key)
        if req.error is not None:
            self.failed += 1
            self.errors.add(f"{req.label}: {req.error}")


def summary(tally, wall, scale):
    """Metrics of a loop; times are scaled to the reference host speed,
    the unscaled ones are kept under ``raw``."""
    lat, n = tally.latency, len(tally.latency)
    ok = n - tally.failed
    out = {
        "attempted": n,
        "failed": tally.failed,
        "latency_p50_s": statistics.median(lat) * scale,
        "throughput_rps": ok / wall / scale,
        "host_scale": scale,
        "raw": {"latency_p50_s": statistics.median(lat), "throughput_rps": ok / wall},
        "repeat_share": tally.repeats / n,
        "wall_s": wall,
        "errors": sorted(tally.errors)[:10],
        "by_slot": tally.by_slot,
    }
    if n >= 100:
        out["latency_p90_s"] = statistics.quantiles(lat, n=10)[8] * scale
    return out


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                if hasattr(handle, name):
                    return int(getattr(handle, name)())
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "FREECONV_THREADS": os.environ.get("FREECONV_THREADS"),
    }


def layer_metrics(tr, workload, untraced_thr, traced_thr):
    import tracer as T

    stats, nested = tr.layer_stats()
    get = lambda layer, key: stats.get(layer, {}).get(key, 0)
    out = {}
    for layer in T.LAYERS:
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.self_s"] = get(layer, "self_s")
    moves = get("resolvent.continuation", "calls")
    out["resolvent.roots.errors"] = tr.counts.get("resolvent.roots.errors", 0)
    out["resolvent.continuation.roots_per_move"] = nested["roots_in_move"] / moves if moves else 0.0
    out["resolvent.seed.restart_ratio"] = get("resolvent.seed", "calls") / moves if moves else 0.0
    quad = get("resolvent.quadrature", "calls")
    out["resolvent.quadrature.total_s"] = get("resolvent.quadrature", "total_s")
    out["resolvent.quadrature.moves_per_call"] = nested["moves_in_quad"] / quad if quad else 0.0
    out["resolvent.cdf.total_s"] = get("resolvent.cdf", "total_s")
    request_s = get("request", "total_s")
    layer_self = sum(st["self_s"] for layer, st in stats.items() if layer != "request")
    out["trace.coverage"] = layer_self / request_s if request_s else 0.0
    out["trace.overhead"] = traced_thr / untraced_thr if untraced_thr else 0.0
    unexercised = [layer for layer in workload.layers if not get(layer, "calls")]
    shares = {layer: (st["self_s"] / request_s, st["total_s"] / request_s)
              for layer, st in stats.items() if layer != "request" and request_s}
    return out, unexercised, shares


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import freeconv

    if Path(freeconv.__file__).resolve().parent != SRC / "freeconv":
        sys.exit(f"freeconv imported from {freeconv.__file__}, not from {SRC}")
    import tracer as T
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_end = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0

    before = T.snapshot()
    seconds = args.seconds / 2 if args.trace else args.seconds
    tally, wall, scale = timed_loop(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_end": setup_end,
        "untraced": summary(tally, wall, scale),
        "peak_rss_mb": peak_rss_mb,
        "untraced_attributes_original": T.unchanged(before),
    }
    if args.trace:
        tr = T.Tracer()
        tr.install()
        try:
            traced, traced_wall, traced_scale = timed_loop(workload, seconds, tr)
        finally:
            tr.uninstall()
        result["restored_attributes_original"] = T.unchanged(before)
        result["traced"] = summary(traced, traced_wall, traced_scale)
        metrics, unexercised, shares = layer_metrics(
            tr, workload, result["untraced"]["throughput_rps"], result["traced"]["throughput_rps"])
        for k in ("density_rel_err", "edge_err", "moment_err", "ks"):
            metrics[f"accuracy.{k}_max"] = max(tally.accuracy.get(k, 0.0),
                                               traced.accuracy.get(k, 0.0))
        spans_path = SPANS_DIR / f"{args.workload}-{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent", "request"],
                       "spans": tr.spans}, fh)
        result.update(layer_metrics=metrics, unexercised=unexercised,
                      missing=tr.missing, shares=shares,
                      spans_path=str(spans_path.relative_to(HERE.parent)))

    probes = workload.probes() if args.trace else []
    for req in probes:
        _execute(req)
        check(req)
    result["probes"] = [{"request": " ".join(r.label.split()[:3]), "key": r.key,
                         "error": r.error} for r in probes]
    loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    result["attempted"] = sum(loop["attempted"] for loop in loops)
    result["failed"] = sum(loop["failed"] for loop in loops)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
