#!/usr/bin/env python3
"""Steadiness runner for the repository benchmark.

Runs every workload of BENCHMARK.json (or the ones named) several times,
each run with its own seed, and reports for each end-to-end metric and
each set of runs its median, quartiles and spread (interquartile distance
as a share of the median) against the metric's bound. With --sets 2 it
repeats the series and also reports how far each later set's median moved
from the first set's, in the metric's "worse" direction.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads sweep-small --runs 5 --seconds 10
    python3 perfbench/steady.py --runs 10 --sets 2

A spread at or under a third of the bound is marked "ok"; under the bound
"thin"; over it "WIDE". The exit code is 0 when every run passed its own
output checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = "BENCHMARK.json"
SEED0 = 101

def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    elapsed = time.monotonic() - started
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    ok = proc.returncode == 0 and result is not None and result.get("correct")
    if not ok:
        sys.stderr.write(proc.stderr[-4000:])
    return ok, result, elapsed


def report(workload, sets, bounds):
    """Prints one workload's table: per metric, one row per set."""
    print(f"\n{workload}: {len(sets)} set(s) of {len(sets[0][next(iter(bounds))])} runs")
    print(f"  {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict  drift")
    for m, spec in bounds.items():
        bound = spec["bound"]
        first = None
        for s, values in enumerate(sets):
            if len(values[m]) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values[m], n=4)
            med = statistics.median(values[m])
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "thin"
            else:
                verdict = "WIDE"
            drift = ""
            if first is None:
                first = med
            else:
                worse = (med - first) / first if spec["better"] == "lower" else (first - med) / first
                drift = f"{worse:+.3f}{' OVER' if worse > bound else ''}"
            print(f"  {m:<14} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6.3f}  {verdict:<7}  {drift}")
    print(flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="override run_seconds (0 = use BENCHMARK.json)")
    a = ap.parse_args()

    bench = json.load(open(BENCH))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = a.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = [n for n in a.workloads.split(",") if n]
    all_ok = True
    for workload in names:
        sets = []
        for s in range(a.sets):
            values = {m: [] for m in bounds}
            for r in range(a.runs):
                seed = SEED0 + 1000 * s + r
                ok, result, elapsed = run_once(bench["command"], workload, seed, seconds)
                all_ok &= bool(ok)
                if result is None:
                    print(f"{workload} seed {seed}: no result line", flush=True)
                    continue
                for m in bounds:
                    values[m].append(result["metrics"][m]["value"])
                shown = " ".join(f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds)
                print(f"{workload} set {s} seed {seed} ({elapsed:.1f} s, "
                      f"{'ok' if ok else 'FAILED'}): {shown}", flush=True)
            sets.append(values)
        report(workload, sets, bounds)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
