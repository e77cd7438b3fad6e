#!/usr/bin/env python3
"""Builds and runs one workload of the KV-CSD system benchmark.

    python3 perfbench/run.py --workload {ingest|serve|analyze} --seed N \
        --seconds S --trace {0|1}

Run from the root of a source tree. The benchmark program
(perfbench/perfbench.cc) and the repository's libraries are built with CMake
into $CARGO_TARGET_DIR (default .bench_build) on first use. The program
repeats the workload for S seconds and checks every answer against a host
model.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, taken from untraced repetitions; with --trace 1 they are the
per_layer metrics: meter and counter deltas across the timed phase, plus the
per-op-class self-time split of one extra traced repetition.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "serve", "analyze")
RUN_TIMEOUT_S = 170

# Trace analysis: benchmark spans (track "bench") name the op class; the
# device-side spans of the same command share its cmd_id.
OP_CLASS = {
    "get": "get",
    "put": "put",
    "delete": "put",
    "scan": "query",
    "sidx": "query",
    "select": "query",
    "aggregate": "query",
}
CLASSES = ("get", "put", "query")
COMPONENTS = ("submit", "sq_wait", "dispatch", "exec", "complete", "other")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full source tree")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "kvcsd_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    return binary


def spans_by_cmd(path):
    """Streams the Chrome trace; returns (benchmark spans, per-cmd spans)."""
    tracks = {}
    ops = []  # (class, begin, end, cmd_id)
    qwait, dev, comp = {}, {}, {}
    with open(path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if not line.startswith('{"name"'):
                continue
            ev = json.loads(line)
            if ev["ph"] == "M":
                if ev["name"] == "thread_name":
                    tracks[ev["tid"]] = ev["args"]["name"]
                continue
            if ev["ph"] != "X" or "cmd_id" not in ev.get("args", {}):
                continue
            track = tracks.get(ev["tid"], "")
            cmd = int(ev["args"]["cmd_id"])
            span = (ev["ts"], ev["ts"] + ev["dur"])
            if track == "bench" and ev["name"] in OP_CLASS:
                ops.append((OP_CLASS[ev["name"]], span[0], span[1], cmd))
            elif track == "nvme.sq" and ev["name"] == "queue_wait":
                qwait[cmd] = span
            elif track == "device":
                dev[cmd] = span
            elif track == "nvme.cq" and ev["name"] == "complete":
                comp[cmd] = span
    return ops, qwait, dev, comp


def self_times(path):
    """Mean per-op self time (us) of each layer, per op class.

    One synchronous call splits into client submit (call start to SQ
    enqueue), SQ wait, dispatch (dequeue to device exec start), exec,
    completion DMA, and whatever the benchmark span holds beyond those.
    """
    ops, qwait, dev, comp = spans_by_cmd(path)
    sums = {c: dict.fromkeys(COMPONENTS, 0.0) for c in CLASSES}
    counts = dict.fromkeys(CLASSES, 0)
    unmatched = 0
    for cls, d0, d1, cmd in ops:
        if cmd not in qwait or cmd not in dev or cmd not in comp:
            unmatched += 1
            continue
        q0, q1 = qwait[cmd]
        e0, e1 = dev[cmd]
        c0, c1 = comp[cmd]
        parts = {
            "submit": q0 - d0,
            "sq_wait": q1 - q0,
            "dispatch": e0 - q1,
            "exec": e1 - e0,
            "complete": c1 - c0,
        }
        parts["other"] = (d1 - d0) - sum(parts.values())
        for k, v in parts.items():
            sums[cls][k] += v
        counts[cls] += 1
    table = {}
    for cls in CLASSES:
        n = counts[cls]
        for k in COMPONENTS:
            table["trace.%s.%s_us" % (cls, k)] = sums[cls][k] / n if n else 0.0
    print("traced self time per op (us, mean), by op class:")
    print("  %-6s %7s" % ("class", "ops") +
          "".join(" %9s" % k for k in COMPONENTS))
    for cls in CLASSES:
        print("  %-6s %7d" % (cls, counts[cls]) + "".join(
            " %9.3f" % table["trace.%s.%s_us" % (cls, k)] for k in COMPONENTS))
    table["trace.unmatched_ops"] = float(unmatched)
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(
            build_dir(), "trace-%s-%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        out = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    correct = proc.returncode == 0 and out["correct"]
    if args.trace:
        values = dict(out["layer"])
        values.update(out["host"])
        values.update(self_times(trace_path))
        os.remove(trace_path)
        if values["trace.unmatched_ops"] or values["trace.dropped"]:
            correct = False
        wanted = spec["per_layer"]
    else:
        values = dict(out["sim"])
        values.update(out["host"])
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            print("missing metric " + m["name"], file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
