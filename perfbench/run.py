#!/usr/bin/env python3
"""Run one workload of the ppde repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the perfbench
benchmark binary from source (Release, into $CARGO_TARGET_DIR or
.bench_build), runs the workload in a fresh process, checks that it
reported every metric BENCHMARK.json names, and prints as its last line
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The line before it is the host fingerprint. Every result is also
appended, fingerprint included, to .bench_results/results.jsonl; traced
runs write their spans to .bench_results/trace-<workload>-<seed>.json.
perfbench/compare.py compares two such files.

Exits 2 without printing a result when the checkout holds no ppde sources
or the build fails.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Wall-clock cap on one workload process; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def build():
    """Configure (once) and build ppde_bench; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ppde sources under %s/src; run from a checkout's root" % ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ppde_bench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "ppde_bench")


def source_digest():
    """sha256 over the ppde and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def commit():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(report):
    """Host fingerprint: results compare only when the host part matches."""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": report["compiler"],
        "build_type": report["build_type"],
        "threads": report["threads"],
        "commit": commit(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes: each workload in seconds")
    parser.add_argument("--expect", action="append", default=[],
                        metavar="GATE=VALUE",
                        help="replace a gate's expected value (self-test)")
    args = parser.parse_args()

    contract = load_contract()
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    binary = build()

    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            results_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.tiny:
        command.append("--tiny")
    for expect in args.expect:
        command += ["--expect", expect]
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("ppde_bench exited with %d" % run.returncode)
    report = json.loads(lines[-1])
    result = report["result"]

    metrics = {}
    for spec in wanted:
        measured = result["metrics"].get(spec["name"])
        if (measured is None or measured["unit"] != spec["unit"]
                or not math.isfinite(measured["value"])
                or (not args.trace and measured["value"] <= 0
                    and result["failed"] == 0)):
            fail("metric %s: %r" % (spec["name"], measured))
        metrics[spec["name"]] = {"value": measured["value"],
                                 "unit": spec["unit"]}
    for gate in result["gates"]:
        if not gate["ok"]:
            print("perfbench: gate %s failed: %s" % (gate["name"],
                                                     gate["detail"]),
                  file=sys.stderr)
    for error in result["errors"]:
        print("perfbench: " + error, file=sys.stderr)

    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    host = fingerprint(report)
    with open(os.path.join(results_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps({
            "fingerprint": host, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "gates": result["gates"], "all_metrics": result["metrics"],
            **summary}) + "\n")
    print("fingerprint " + json.dumps(host, sort_keys=True))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
