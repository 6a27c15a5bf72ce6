#!/usr/bin/env python3
"""Compare two sets of ppde benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a .bench_results/results.jsonl written by perfbench/run.py.
Refuses (exit 2) when the files mix hosts: every record's fingerprint must
agree on nproc, CPU model, compiler, build type and thread count, so a
1-core result is never compared with a 4-core one. The commit may differ;
that is what is being compared.

For every workload and end-to-end metric it prints each side's median and
quartiles over its untraced, full-size runs, the change of the median, and
a verdict against the metric's bound in BENCHMARK.json: "worse" when the
new median is worse than the base by more than the bound, "unresolved"
when either side's spread (quartile distance over median) exceeds the
bound, otherwise "ok". Exits 1 if any metric is worse.
"""
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu", "compiler", "build_type", "threads")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host(record):
    return {key: record["fingerprint"].get(key) for key in HOST_KEYS}


def spread(values):
    if len(values) < 2:
        return 0.0, values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), q1, q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {json.dumps(host(r), sort_keys=True) for r in base + new}
    if len(hosts) != 1:
        print("refusing to compare results from different hosts:",
              file=sys.stderr)
        for fingerprint in sorted(hosts):
            print("  " + fingerprint, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        contract = json.load(f)

    def values(records, workload, metric):
        return [r["metrics"][metric]["value"] for r in records
                if r["workload"] == workload and not r["trace"]
                and not r.get("tiny") and r["correct"]]

    worse = False
    print("%-18s %-16s %28s %28s %8s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "verdict"))
    for workload in (w["name"] for w in contract["workloads"]):
        for spec in contract["end_to_end"]:
            a = values(base, workload, spec["name"])
            b = values(new, workload, spec["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            (sa, a1, a3), (sb, b1, b3) = spread(a), spread(b)
            change = (mb - ma) / ma
            loss = change if spec["better"] == "lower" else -change
            if spec["name"] != "setup_s" and max(sa, sb) > spec["bound"]:
                verdict = "unresolved"
            elif loss > spec["bound"]:
                verdict = "worse"
                worse = True
            else:
                verdict = "ok"
            print("%-18s %-16s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
                  "%+7.1f%%  %s" % (workload, spec["name"], ma, a1, a3, mb,
                                    b1, b3, 100 * change, verdict))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
