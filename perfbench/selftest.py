#!/usr/bin/env python3
"""Self-test of the ppde benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (about a minute once built). Checks
that
  * every workload, at tiny size, passes all its gates both untraced and
    traced, and reports every metric BENCHMARK.json names;
  * every correctness gate trips, and is counted as a failed operation,
    when it is fed a wrong expected value;
  * run.py exits non-zero without printing a result in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
Exits 1 on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("certify-smc", "verify-frontier", "serve-mixed",
             "ensemble-n2-cold")

# (workload, gate, wrong expected value, text naming the failure, traced)
TRIPS = [
    ("certify-smc", "certify.verdict", "REFUTED", "certify.verdict", 0),
    ("certify-smc", "certify.trials", "41", "certify.trials", 0),
    ("certify-smc", "certify.digest", "0123456789abcdef",
     "certify.digest_repeats", 0),
    ("certify-smc", "certify.digest", "0123456789abcdef",
     "certify.digest_replay", 1),
    ("verify-frontier", "verify.verdict", "stabilises to false",
     "verify.verdict", 0),
    ("verify-frontier", "verify.configs", "401683", "verify.counts", 0),
    ("verify-frontier", "verify.edges", "421009", "verify.counts", 0),
    ("ensemble-n2-cold", "ensemble.stabilised", "7", "ensemble.stabilised",
     0),
    ("ensemble-n2-cold", "ensemble.accepted", "1", "ensemble.accepted", 0),
    ("ensemble-n2-cold", "ensemble.firings", "1", "ensemble.firings", 0),
    ("serve-mixed", "serve.reply", '"ok":false', "query ", 0),
    ("serve-mixed", "serve.digest", "0123456789abcdef", "serve.digest", 0),
]


def run(workload, trace, expect=None, cwd=ROOT):
    command = [sys.executable, os.path.relpath(RUN, ROOT), "--workload",
               workload, "--seed", "42", "--seconds", "1", "--trace",
               str(trace), "--tiny"]
    if expect:
        command += ["--expect", expect]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done, result


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        sys.exit(1)


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            done, result = run(workload, trace)
            check(done.returncode == 0 and result is not None
                  and result["correct"] and result["failed"] == 0,
                  "%s --trace %d passes at tiny size" % (workload, trace))

    for workload, gate, wrong, marker, trace in TRIPS:
        done, result = run(workload, trace, "%s=%s" % (gate, wrong))
        check(result is not None and not result["correct"]
              and result["failed"] >= 1 and marker in done.stderr,
              "%s trips on %s=%s (--trace %d)" % (marker.strip(), gate, wrong,
                                                 trace))

    # Only BENCHMARK.json and the benchmark's files: no sources to build.
    bare = os.path.join(ROOT, ".bench_results", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in contract["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    done, result = run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and result is None,
          "run.py refuses a directory without the ppde sources")


if __name__ == "__main__":
    main()
