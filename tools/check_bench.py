#!/usr/bin/env python3
"""Validate every BENCH_*.json report against its versioned schema.

One pass over all machine-readable benchmark reports, dispatched on the
schema tag each report leads with (bench_engine_v / bench_serve_v /
bench_sched_v). CI smoke jobs call this instead of re-growing per-job
grep pipelines; EXPERIMENTS.md numbers are copied from the same files.

Usage:
    python3 tools/check_bench.py [FILE...]
    python3 tools/check_bench.py --fresh FRESH.json [--factor 2.0] \
        [--warn-only] [FILE...]

With no positional arguments, validates every BENCH_*.json in the
repository root (the directory above this script). Exits non-zero with a
per-file message on the first schema violation.

--fresh FRESH.json additionally compares the committed BENCH_engine.json
against a just-measured report on the current machine and flags any row
whose throughput deviates by more than --factor (default 2.0) in either
direction — a committed baseline from different hardware or predating an
engine change fails loudly instead of anchoring EXPERIMENTS.md to numbers
nobody can reproduce. --warn-only prints deviations without failing (for
noisy CI runners).
"""

import glob
import json
import os
import sys


def fail(path, message):
    raise SystemExit(f"{path}: {message}")


def require(path, condition, message):
    if not condition:
        fail(path, message)


def check_engine(path, doc):
    """bench_engine_v == 6: per-(mode, harness, m) rows."""
    require(path, doc.get("bench_engine_v") == 6,
            f"bench_engine_v != 6 (got {doc.get('bench_engine_v')})")
    rows = doc.get("rows")
    require(path, isinstance(rows, list) and rows, "rows missing or empty")
    for i, row in enumerate(rows):
        for key in ("protocol", "m", "mode", "harness",
                    "firings_per_sec", "effective_meetings_per_sec",
                    "threads"):
            require(path, key in row, f"rows[{i}] missing {key}")
        # Rates must be real positive numbers, not zeros or NaN.
        require(path, row["firings_per_sec"] > 0,
                f"rows[{i}] nonpositive firings_per_sec")
        require(path, row["effective_meetings_per_sec"] > 0,
                f"rows[{i}] nonpositive effective_meetings_per_sec")
        require(path, row["harness"] in ("step", "fleet"),
                f"rows[{i}] bad harness {row['harness']!r}")
    # Both engines and the large population point.
    modes = {row["mode"] for row in rows}
    for mode in ("per-agent", "count+null-skip"):
        require(path, mode in modes, f"missing mode {mode}")
    require(path, any(row["m"] == 100014 for row in rows),
            "missing m=100014 row")
    # The fleet harness at the large population: the trial loop users run.
    require(path, any(row["harness"] == "fleet" and row["m"] == 100014
                      for row in rows),
            "missing fleet row at m=100014")
    # The certify statement's population, m = |F| + 2 = 16, where nearly
    # every firing populates or depopulates a state: a count+null-skip step
    # row.
    require(path, any(row["m"] == 16 and row["mode"] == "count+null-skip"
                      and row["harness"] == "step" for row in rows),
            "missing count+null-skip step row at m=16")


def row_key(row):
    """Identity of one engine row across re-measures of the same machine."""
    return (row["protocol"], row["m"], row["mode"], row["harness"],
            row["threads"])


def compare_fresh(baseline_path, fresh_path, factor, warn_only):
    """Flag baseline rows deviating more than `factor`x from a fresh
    re-measure on the current machine. A committed BENCH_engine.json from
    different hardware (or a stale one after an engine change) fails here
    instead of silently anchoring EXPERIMENTS.md to numbers nobody can
    reproduce."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(fresh_path) as handle:
        fresh = json.load(handle)
    for doc, path in ((baseline, baseline_path), (fresh, fresh_path)):
        require(path, "bench_engine_v" in doc,
                "--fresh compares bench_engine_v reports only")
    fresh_rows = {row_key(row): row for row in fresh["rows"]}
    deviations = []
    missing = []
    for row in baseline["rows"]:
        other = fresh_rows.get(row_key(row))
        if other is None:
            missing.append(row_key(row))
            continue
        for metric in ("firings_per_sec", "effective_meetings_per_sec"):
            ratio = row[metric] / other[metric]
            if ratio > factor or ratio < 1.0 / factor:
                deviations.append(
                    f"{row_key(row)} {metric}: baseline {row[metric]:.3e} "
                    f"vs fresh {other[metric]:.3e} ({ratio:.2f}x)")
    for key in missing:
        print(f"check_bench: fresh report has no row {key}")
    for line in deviations:
        print(f"check_bench: deviation > {factor}x: {line}")
    if not deviations and not missing:
        print(f"check_bench: {baseline_path} within {factor}x of "
              f"{fresh_path} on all {len(baseline['rows'])} rows")
    elif not warn_only:
        raise SystemExit(
            f"{baseline_path}: {len(deviations)} row(s) deviate more than "
            f"{factor}x from {fresh_path} (re-measure and commit, or "
            f"run with --warn-only)")


def check_serve(path, doc):
    """bench_serve_v == 1: certify digests by worker count + scaling."""
    require(path, doc.get("bench_serve_v") == 1,
            f"bench_serve_v != 1 (got {doc.get('bench_serve_v')})")
    runs = doc.get("runs")
    require(path, isinstance(runs, list) and runs, "runs missing or empty")
    digests = set()
    for i, run in enumerate(runs):
        for key in ("workers", "wall_seconds", "verdict", "digest"):
            require(path, key in run, f"runs[{i}] missing {key}")
        digests.add(run["digest"])
    # The whole point of the daemon: sharding is invisible to the digest.
    require(path, len(digests) == 1,
            f"certificate digest varies across worker counts: {digests}")
    require(path, doc.get("digest_identical") is True,
            "digest_identical flag not true")
    ensemble_runs = doc.get("ensemble_runs")
    require(path, isinstance(ensemble_runs, list) and ensemble_runs,
            "ensemble_runs missing or empty")
    for i, run in enumerate(ensemble_runs):
        for key in ("workers", "wall_seconds", "speedup"):
            require(path, key in run, f"ensemble_runs[{i}] missing {key}")


def check_sched(path, doc):
    """bench_sched_v == 1: scheduler x construction convergence table."""
    require(path, doc.get("bench_sched_v") == 1,
            f"bench_sched_v != 1 (got {doc.get('bench_sched_v')})")
    trials = doc.get("trials")
    require(path, isinstance(trials, int) and trials > 0,
            "trials missing or nonpositive")
    rows = doc.get("rows")
    require(path, isinstance(rows, list) and rows, "rows missing or empty")
    for i, row in enumerate(rows):
        for key in ("construction", "scenario", "population", "window",
                    "budget", "stabilised", "accepted", "interactions_p50",
                    "parallel_time_p50", "total_firings", "wall_seconds"):
            require(path, key in row, f"rows[{i}] missing {key}")
        require(path, row["population"] >= 2, f"rows[{i}] population < 2")
        require(path, 0 <= row["stabilised"] <= trials,
                f"rows[{i}] stabilised out of [0, trials]")
        require(path, 0 <= row["accepted"] <= row["stabilised"],
                f"rows[{i}] accepted > stabilised")
        require(path, row["interactions_p50"] > 0,
                f"rows[{i}] nonpositive interactions_p50")
    # The table must actually cover the S27 matrix: every scheduler
    # strategy and at least one of each fault kind, over >= 3
    # constructions (threshold protocol + the two baselines).
    constructions = {row["construction"] for row in rows}
    require(path, len(constructions) >= 3,
            f"expected >= 3 constructions, got {sorted(constructions)}")
    schedulers = {row["scenario"].split("+")[0].split(":")[0]
                  for row in rows}
    for scheduler in ("uniform", "ring", "grid", "regular", "biased",
                      "aging"):
        require(path, scheduler in schedulers,
                f"missing scheduler {scheduler}")
    faults = {row["scenario"].split("+")[1].split(":")[0]
              for row in rows if "+" in row["scenario"]}
    for fault in ("corrupt", "churn", "burst"):
        require(path, fault in faults, f"missing fault plan {fault}")


def check_obs(path, doc):
    """bench_obs_v == 1: S29 distributed-tracing data-path timings."""
    require(path, doc.get("bench_obs_v") == 1,
            f"bench_obs_v != 1 (got {doc.get('bench_obs_v')})")
    rows = doc.get("rows")
    require(path, isinstance(rows, list) and rows, "rows missing or empty")
    for i, row in enumerate(rows):
        for key in ("name", "ns_per_op", "ops"):
            require(path, key in row, f"rows[{i}] missing {key}")
        require(path, row["ns_per_op"] > 0,
                f"rows[{i}] nonpositive ns_per_op")
        require(path, isinstance(row["ops"], int) and row["ops"] > 0,
                f"rows[{i}] nonpositive ops")
    names = {row["name"] for row in rows}
    # The report must cover both ends of the wire (worker capture +
    # serialisation, daemon stitch) and both metric surfaces (delta
    # roll-up, Prometheus render), anchored by the disabled-path row.
    for name in ("span_disabled", "span_capture", "capture_drain_per_event",
                 "stitch_emit_foreign", "delta_collect",
                 "prometheus_render"):
        require(path, name in names, f"missing row {name}")
    by_name = {row["name"]: row for row in rows}
    # The disabled path must stay orders of magnitude below the capture
    # path — the contract that lets hot loops carry spans unconditionally.
    require(path,
            by_name["span_disabled"]["ns_per_op"] <
            by_name["span_capture"]["ns_per_op"],
            "span_disabled not cheaper than span_capture")


CHECKERS = {
    "bench_engine_v": check_engine,
    "bench_serve_v": check_serve,
    "bench_sched_v": check_sched,
    "bench_obs_v": check_obs,
}


def check_file(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(path, f"unreadable or invalid JSON: {error}")
    for tag, checker in CHECKERS.items():
        if tag in doc:
            checker(path, doc)
            print(f"{path}: OK ({tag} = {doc[tag]})")
            return
    fail(path, f"no recognised schema tag (one of {sorted(CHECKERS)})")


def main(argv):
    args = argv[1:]
    fresh = None
    factor = 2.0
    warn_only = False
    paths = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--fresh":
            i += 1
            fresh = args[i]
        elif arg.startswith("--fresh="):
            fresh = arg.split("=", 1)[1]
        elif arg == "--factor":
            i += 1
            factor = float(args[i])
        elif arg.startswith("--factor="):
            factor = float(arg.split("=", 1)[1])
        elif arg == "--warn-only":
            warn_only = True
        elif arg.startswith("-"):
            raise SystemExit(f"check_bench: unknown flag {arg}")
        else:
            paths.append(arg)
        i += 1
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not paths:
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        raise SystemExit("check_bench: no BENCH_*.json files found")
    for path in paths:
        check_file(path)
    print(f"{len(paths)} report(s) valid")
    if fresh is not None:
        check_file(fresh)
        baseline = next(
            (path for path in paths
             if os.path.basename(path) == "BENCH_engine.json"), None)
        if baseline is None:
            raise SystemExit(
                "check_bench: --fresh needs BENCH_engine.json among the "
                "validated reports")
        compare_fresh(baseline, fresh, factor, warn_only)


if __name__ == "__main__":
    main(sys.argv)
