// The benchmark's four workloads. Each runs in its own process, drives the
// library's public entry points on min(4, nproc) threads, checks every
// output against its gates, and fills a Result: end-to-end metrics from
// the untraced jobs, per-layer metrics (traced runs only) from one more
// job run under the span recorder plus probes of single layers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace bench {

/// The seed the reference figures were measured at. Gates that pin a
/// seed-dependent count (firings) compare against it only at this seed;
/// at any other seed they check that every repetition reproduces the
/// first.
inline constexpr std::uint64_t kReferenceSeed = 42;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  bool traced = false;
  /// Tiny sizes: every workload in a few seconds, for the self-test.
  bool tiny = false;
  unsigned threads = 4;
  Expectations expect;
};

/// Run `job` as many times as jobs of `nominal_seconds` (its length on the
/// reference 4-core host) fit in `seconds`, and at least once. The count
/// depends on --seconds alone, so every run measures the same work.
/// Returns each job's wall seconds.
std::vector<double> run_jobs(double seconds, double nominal_seconds,
                             const std::function<void()>& job);

/// End-to-end metrics of a workload whose requests are all one job type:
/// run_s is the median job; the request metrics (certify_p50_ms,
/// certify_p95_ms, ensemble_p50_ms, queries_per_s) describe those jobs.
void report_jobs(const std::vector<double>& seconds, Result& result);

/// obs.trace_overhead_fraction: the traced job against the untraced
/// median.
void report_overhead(double traced_seconds, double untraced_seconds,
                     Result& result);

void certify_smc(const RunOptions& run, Trace& trace, Result& result);
void verify_frontier(const RunOptions& run, Trace& trace, Result& result);
void serve_mixed(const RunOptions& run, Trace& trace, Result& result);
void ensemble_n2_cold(const RunOptions& run, Trace& trace, Result& result);

}  // namespace bench
