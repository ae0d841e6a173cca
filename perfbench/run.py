"""freeconv benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload curves|points|algebra|montecarlo|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; freeconv is imported from
``src/``.  The workload runs in a fresh process (``worker.py``) as a
closed loop: one client, one Python thread, every call waits for its
answer, FREECONV_THREADS unset.  Set-up is repeated in several
processes (at least SETUPS_MIN; more, up to SETUPS_MAX, while they fit
in SETUP_BUDGET_S) and reported as the median.  Times are scaled to a
reference host speed measured in the worker (see
``worker.reference_kernel``); the unscaled values and the factor are
printed too, also as a JSON line just before the result.  Every
response is checked against an independent oracle right after its
request, off the clock.  Human-readable lines come
first; the last line is the JSON result (``all`` runs the workloads one
after the other, each ending with its own).  With ``--trace 1`` the
result holds the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curves", "points", "algebra", "montecarlo")
# processes whose set-up time is measured, the last one also runs: short
# set-ups are repeated more, since one of them spans too few of the
# host's switches between its fast and slow states to be steady
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 5, 15, 5.0
DEADLINE_S = 170.0  # one workload ends within this
MIN_COVERAGE = 0.95  # share of traced request time that layer spans must account for


def _worker(workload, args, mode, deadline):
    env = {k: v for k, v in os.environ.items() if k != "FREECONV_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        sys.exit(f"worker ({mode}) ran past the {DEADLINE_S:g} s deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"worker ({mode}) exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_end"] - t0
    return out


def _line(name, value, unit, note=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())


def report(workload, args):
    """Run one workload and print its report; the last line is the JSON result."""
    deadline = time.monotonic() + DEADLINE_S
    start, setups = time.monotonic(), []
    while len(setups) < SETUPS_MIN - 1 or (len(setups) < SETUPS_MAX - 1
                                           and time.monotonic() - start < SETUP_BUDGET_S):
        setups.append(_worker(workload, args, "setup", deadline)["setup_s"])
    res = _worker(workload, args, "run", deadline)
    setups.append(res["setup_s"])

    u = res["untraced"]
    correct = res["failed"] == 0 and res["untraced_attributes_original"]
    print(f"freeconv benchmark: workload={workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  environment: {json.dumps(res['environment'])}")
    print(f"  untraced run: {u['attempted']} requests in {u['wall_s']:.2f} s, "
          f"repeat share {u['repeat_share']:.3f}, every wrapped attribute original: "
          f"{res['untraced_attributes_original']}")
    scale = u["host_scale"]
    # the kernel cannot be timed during set-up without adding to it: the
    # set-ups take the factor of the loop that follows them (see README.md)
    setup_raw = statistics.median(setups)
    setup_s = setup_raw * scale
    print(f"  times below are at reference host speed: unscaled times x {scale:.4f}")
    _line("setup_s", setup_s, "s",
          "median of unscaled " + ", ".join(f"{s:.3f}" for s in setups))
    p50 = u["latency_p50_s"]
    _line("latency_p50_s", p50, "s", f"n={u['attempted']}; unscaled {u['raw']['latency_p50_s']:.6g}")
    if "latency_p90_s" in u:
        _line("latency_p90_s", u["latency_p90_s"], "s", f"n={u['attempted']}")
    _line("throughput_rps", u["throughput_rps"], "1/s",
          f"unscaled {u['raw']['throughput_rps']:.6g}")
    _line("error_rate", u["failed"] / u["attempted"], "ratio", f"{u['failed']}/{u['attempted']}")
    _line("peak_rss_mb", res["peak_rss_mb"], "MB")
    print("  median latency by request type:")
    for slot, lat in sorted(u["by_slot"].items(), key=lambda kv: statistics.median(kv[1])):
        print(f"    {slot:<30} {statistics.median(lat):10.4f} s  n={len(lat)}")
    for err in u["errors"]:
        print(f"  FAILED {err}")
    for probe in res["probes"]:
        state = f"still fails: {probe['error']}" if probe["error"] else "now passes"
        print(f"  known defect {probe['request']}: {state}")

    if args.trace:
        t = res["traced"]
        coverage = res["layer_metrics"]["trace.coverage"]
        correct = (correct and res["restored_attributes_original"] and not res["unexercised"]
                   and coverage >= MIN_COVERAGE)
        if coverage < MIN_COVERAGE:
            print(f"  tracer: layer self time covers only {coverage:.3f} of the traced "
                  f"request time (at least {MIN_COVERAGE} expected)")
        print(f"  traced run: {t['attempted']} requests in {t['wall_s']:.2f} s, "
              f"attributes restored: {res['restored_attributes_original']}, "
              f"spans written to {res['spans_path']}")
        for layer, where in res["missing"]:
            print(f"  tracer: {where} not found, {layer} not wrapped there")
        for layer in res["unexercised"]:
            print(f"  tracer: no span in {layer}, which this workload should exercise")
        for err in t["errors"]:
            print(f"  FAILED {err}")
        print("  shares of traced request time:      self   inclusive")
        for layer, (own, total) in sorted(res["shares"].items(), key=lambda kv: -kv[1][0]):
            print(f"    {layer:<30} {own:7.3f} {total:9.3f}")
        metrics = {}
        for name, value in res["layer_metrics"].items():
            unit = ("count" if name.endswith((".calls", ".errors")) else
                    "s" if name.endswith("_s") else "ratio")
            _line(name, value, unit)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "latency_p50_s": {"value": p50 if math.isfinite(p50) else 1e9, "unit": "s"},
            "throughput_rps": {"value": u["throughput_rps"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    # not metrics: lets two runs be compared for the host speed they saw
    unscaled = {"setup_s": setup_raw, **u["raw"]}
    scales = {"untraced": scale}
    if args.trace:
        scales["traced"] = res["traced"]["host_scale"]
    print(json.dumps({"host_scale": scales, "unscaled": unscaled}))
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "freeconv" / "__init__.py").is_file():
        sys.exit(f"no freeconv sources under {ROOT / 'src'}; run from a source checkout")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        report(workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
