#!/usr/bin/env python3
"""Steadiness tool for the KV-CSD system benchmark.

Runs each workload N times through perfbench/run.py with seeds seed0,
seed0+1, ..., alternating the workload order from one round to the next,
and prints the median, quartiles and spread (IQR / median) of every
end-to-end metric against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--seed0 1] [--workloads serve]
                                [--seconds 10] [--save runs.json]
    python3 perfbench/steady.py --compare A.json B.json

Exit status is nonzero when a run fails its checks, when a spread other than
setup_s exceeds its bound, or, with --compare, when B's median is worse than
A's by more than the bound, or when a simulated metric differs at all
between two runs of the same workload and seed (the simulator is
deterministic, so only host-clock metrics may move).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Host-clock metrics; every other end-to-end metric is simulated.
HOST_METRICS = {"host_s", "setup_s", "peak_rss_mb"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    try:
        out = json.loads(lines[-1])
    except ValueError:
        out = {"correct": False, "metrics": {}}
    return {k: v["value"] for k, v in out["metrics"].items()}, (
        proc.returncode == 0 and out["correct"])


def collect(workloads, runs, seed0, seconds):
    """runs[workload] = list of {"seed", "ok", "metrics"} in run order."""
    result = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            metrics, ok = run_one(w, seed0 + i, seconds)
            result[w].append({"seed": seed0 + i, "ok": ok,
                              "metrics": metrics})
            print("run %d %s seed %d %s" % (i, w, seed0 + i,
                                            "ok" if ok else "FAILED"),
                  file=sys.stderr)
    return result


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(spec, runs):
    """Prints the per-metric table; returns False on a failed gate."""
    ok = True
    print("%-8s %-18s %14s %14s %14s %8s %6s" %
          ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for w, rs in runs.items():
        if not all(r["ok"] for r in rs):
            print("%s: a run failed its checks" % w)
            ok = False
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in rs
                    if m["name"] in r["metrics"]]
            if len(vals) != len(rs):
                print("%s: %s missing from a run" % (w, m["name"]))
                ok = False
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag = " OVER"
                ok = False
            elif spread > m["bound"] / 3:
                flag = " >1/3"
            print("%-8s %-18s %14.6g %14.6g %14.6g %8.4f %6.3f%s" %
                  (w, m["name"], q1, med, q3, spread, m["bound"], flag))
    return ok


def same_seed_sim_check(a, b):
    """Simulated metrics of one workload and seed must match exactly."""
    ok = True
    for w in a:
        by_seed = {r["seed"]: r["metrics"] for r in a[w]}
        for r in b.get(w, []):
            other = by_seed.get(r["seed"])
            if other is None:
                continue
            for name, v in r["metrics"].items():
                if name in HOST_METRICS:
                    continue
                if other.get(name) != v:
                    print("%s seed %d: simulated %s differs: %r vs %r" %
                          (w, r["seed"], name, other.get(name), v))
                    ok = False
    return ok


def compare(spec, a, b):
    ok = same_seed_sim_check(a, b)
    print("%-8s %-18s %14s %14s %8s %6s" %
          ("workload", "metric", "median A", "median B", "worse", "bound"))
    for w in a:
        if w not in b:
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a[w]]
            vb = [r["metrics"][m["name"]] for r in b[w]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = ""
            if worse > m["bound"]:
                flag = " WORSE"
                ok = False
            print("%-8s %-18s %14.6g %14.6g %8.4f %6.3f%s" %
                  (w, m["name"], ma, mb, worse, m["bound"], flag))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        with open(args.compare[0]) as f:
            a = json.load(f)
        with open(args.compare[1]) as f:
            b = json.load(f)
        ok = summarize(spec, a) & summarize(spec, b) & compare(spec, a, b)
        return 0 if ok else 1

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = collect(workloads, args.runs, args.seed0, seconds)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if summarize(spec, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
