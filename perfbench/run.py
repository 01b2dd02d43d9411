#!/usr/bin/env python3
"""Benchmark entry point for the UDR simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the simulator sources under src/) into
.bench_build/, then:

  --trace 0  runs the workload in fresh processes, one after another, until
             --seconds have passed (at least MIN_REPS times). Every process
             sets the workload up, runs its fixed-size timed phase and checks
             the outputs. The end-to-end metrics are the medians over those
             runs. All runs use the same seed, so the digests of their
             modelled outputs must agree.
  --trace 1  runs the workload once untraced, then replays a seeded sample of
             its op shapes through each layer and reports the per-layer
             metrics. The spans go to .bench_build/perfbench/.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The full record of the run,
seed and build stamp included, is written next to the spans. The exit code
is 0 only if every output check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MAX_REPS = 40
REP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out_dir):
    """Configures and builds the benchmark; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out_dir), "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    binary = out_dir / "udr_perfbench"
    return binary if binary.is_file() else None


def run_binary(binary, args):
    """Runs one benchmark process; returns its parsed JSON line or None."""
    try:
        proc = subprocess.run([str(binary)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out: " + " ".join(args))
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if record is None or proc.returncode not in (0, 1):
        log(proc.stderr[-4000:])
        log("perfbench: run failed (exit %d): %s" % (proc.returncode, " ".join(args)))
        return None
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
    return record


def span_file_ok(path):
    """The span file must parse as Chrome trace-event JSON."""
    try:
        events = json.loads(Path(path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return bool(events) and all(
        e.get("ph") == "X" and "name" in e and "ts" in e and "dur" in e
        for e in events)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload " + args.workload)
        return 2
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    base_args = ["--workload", args.workload, "--seed", str(args.seed)]
    checks = []
    reps = []
    if args.trace:
        spans = out_dir / ("spans-%s.json" % tag)
        rec = run_binary(binary, base_args + ["--traced", "--trace-out", str(spans)])
        if rec is None:
            return 1
        reps.append(rec)
        if not span_file_ok(spans):
            checks.append("span file does not parse as Chrome trace JSON")
        checks += rec.get("probe_failures", [])
        wanted = spec["per_layer"]
        values = rec.get("layers", {})
    else:
        deadline = time.monotonic() + args.seconds
        while len(reps) < MIN_REPS or (time.monotonic() < deadline
                                       and len(reps) < MAX_REPS):
            rec = run_binary(binary, base_args)
            if rec is None:
                return 1
            reps.append(rec)
            if not rec["correct"]:
                break
        digests = {r["digest"] for r in reps}
        if len(digests) != 1:
            checks.append("modelled-output digests differ across runs of one "
                          "seed: %s" % sorted(digests))
        wanted = spec["end_to_end"]
        values = {m["name"]: statistics.median(r["metrics"][m["name"]] for r in reps)
                  for m in wanted}

    for r in reps:
        checks += r["check_failures"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        checks.append("metrics missing: %s" % missing)
    correct = not checks
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": reps[0]["env"],
        "digest": reps[0]["digest"],
        "runs": len(reps),
        "check_failures": checks,
        "per_run": [r["metrics"] for r in reps],
        "result": result,
    }
    (out_dir / ("result-%s.json" % tag)).write_text(json.dumps(record, indent=1))

    env = reps[0]["env"]
    print("perfbench %s seed=%d runs=%d nproc=%s compiler=%s build=%s digest=%s"
          % (args.workload, args.seed, len(reps), env["nproc"], env["compiler"],
             env["build_type"], reps[0]["digest"]))
    for m in wanted:
        print("  %-40s %16.6g %s" % (m["name"], metrics[m["name"]]["value"] or 0,
                                     m["unit"]))
    for c in checks:
        print("  CHECK FAILED: " + c)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
