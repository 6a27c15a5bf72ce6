// ppde_bench: one workload of the repository benchmark per process.
//
//   ppde_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--tiny] [--trace-out PATH] [--expect GATE=VALUE]...
//
// Prints one JSON line: the build it ran on, attempted/failed operations,
// every gate with its verdict, and the metrics. perfbench/run.py wraps it
// (build, host fingerprint, the metric contract); run it directly only to
// debug a workload.
#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "workloads.hpp"

#ifndef PPDE_BENCH_BUILD_TYPE
#define PPDE_BENCH_BUILD_TYPE "unknown"
#endif

namespace bench {

std::vector<double> run_jobs(double seconds, double nominal_seconds,
                             const std::function<void()>& job) {
  const auto count = std::max(1, static_cast<int>(seconds / nominal_seconds));
  std::vector<double> times;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    job();
    times.push_back(seconds_since(start));
  }
  return times;
}

void report_jobs(const std::vector<double>& seconds, Result& result) {
  const double total = std::accumulate(seconds.begin(), seconds.end(), 0.0);
  result.metric("run_s", median(seconds), "s");
  result.metric("certify_p50_ms", median(seconds) * 1e3, "ms");
  result.metric("certify_p95_ms", quantile(seconds, 0.95) * 1e3, "ms");
  result.metric("ensemble_p50_ms", median(seconds) * 1e3, "ms");
  result.metric("queries_per_s", static_cast<double>(seconds.size()) / total,
                "1/s");
}

void report_overhead(double traced_seconds, double untraced_seconds,
                     Result& result) {
  result.metric("obs.trace_overhead_fraction",
                traced_seconds / untraced_seconds - 1.0, "ratio");
}

}  // namespace bench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ppde_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--trace-out PATH] "
               "[--expect GATE=VALUE]...\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench;
  RunOptions run;
  run.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::string trace_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        run.workload = value();
      } else if (arg == "--seed") {
        run.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        run.seconds = std::stod(value());
      } else if (arg == "--trace") {
        run.traced = value() == "1";
      } else if (arg == "--tiny") {
        run.tiny = true;
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--expect") {
        const std::string pair = value();
        const auto eq = pair.find('=');
        if (eq == std::string::npos)
          throw std::invalid_argument("--expect needs GATE=VALUE");
        run.expect.set(pair.substr(0, eq), pair.substr(eq + 1));
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ppde_bench: %s\n", error.what());
    usage();
    return 2;
  }

  const std::map<std::string, void (*)(const RunOptions&, Trace&, Result&)>
      workloads = {{"certify-smc", certify_smc},
                   {"verify-frontier", verify_frontier},
                   {"serve-mixed", serve_mixed},
                   {"ensemble-n2-cold", ensemble_n2_cold}};
  const auto workload = workloads.find(run.workload);
  if (workload == workloads.end()) {
    std::fprintf(stderr, "ppde_bench: unknown workload '%s'\n",
                 run.workload.c_str());
    usage();
    return 2;
  }

  Trace trace(run.traced);
  Result result;
  try {
    workload->second(run, trace, result);
  } catch (const std::exception& error) {
    result.operation(false, run.workload + ": " + error.what());
  }
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  if (run.traced) {
    report_self_times(trace, result);
    if (!trace_out.empty()) trace.write(trace_out);
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,"
              "\"threads\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
              "\"result\":%s}\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              run.traced ? "true" : "false", run.threads,
              PPDE_BENCH_BUILD_TYPE, "g++ " __VERSION__,
              result.to_json().c_str());
  return 0;
}
