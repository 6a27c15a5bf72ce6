// ensemble-n2-cold: build the full n = 2 pipeline from nothing, then run
// engine::run_ensemble with 128 trials at |F| + 3 = 33 agents — below
// k(2), so every trial correctly rejects. The only workload where
// czerner, compile and isa do measurable work (the cold start every worker
// pays on its first n = 2 query), and the engine runs on a table far
// larger than n = 1's.
#include "engine/ensemble.hpp"
#include "engine/executor.hpp"
#include "workloads.hpp"

namespace bench {

using namespace ppde;

namespace {

constexpr std::uint64_t kExtra = 3;  // m = |F| + 3 = 33 < |F| + k(2): reject
constexpr double kJobSeconds = 2.5;  // one fleet on the reference host

}  // namespace

void ensemble_n2_cold(const RunOptions& run, Trace& trace, Result& result) {
  std::unique_ptr<Pipeline> pipeline =
      timed_setup(2, true, run.tiny ? 1 : 3, trace, result);
  const pp::Protocol& protocol = pipeline->protocol();
  const pp::Config initial = pipeline->initial(kExtra);
  engine::EnsembleOptions options;
  options.trials = run.tiny ? 8 : 128;
  options.threads = run.threads;
  options.master_seed = run.seed;
  options.sim.stable_window = 90'000'000;
  options.sim.max_interactions = 2'000'000'000;

  trace.set_enabled(false);
  std::vector<engine::EnsembleStats> fleets;
  const std::vector<double> seconds = run_jobs(run.seconds, kJobSeconds, [&] {
    try {
      fleets.push_back(engine::run_ensemble(protocol, initial, options));
      result.operation(true, "ensemble");
    } catch (const std::exception& error) {
      result.operation(false, std::string("ensemble: ") + error.what());
    }
  });
  trace.set_enabled(run.traced);
  report_jobs(seconds, result);
  if (fleets.empty()) return;

  const engine::EnsembleStats& first = fleets.front();
  result.gate("ensemble.stabilised",
              first.stabilised == run.expect.u64("ensemble.stabilised",
                                                 options.trials),
              std::to_string(first.stabilised) + "/" +
                  std::to_string(first.trials) + " stabilised");
  result.gate("ensemble.accepted",
              first.accepted == run.expect.u64("ensemble.accepted", 0),
              std::to_string(first.accepted) + " accepted");
  // The reference firing count holds at the reference seed; elsewhere
  // every repetition must reproduce the first.
  const std::uint64_t reference =
      run.seed == kReferenceSeed && !run.tiny ? 12'501'265
                                              : first.totals.firings;
  const std::uint64_t firings = run.expect.u64("ensemble.firings", reference);
  bool same = true;
  for (const engine::EnsembleStats& fleet : fleets)
    same = same && fleet.totals.firings == firings &&
           fleet.stabilised == first.stabilised &&
           fleet.accepted == first.accepted;
  result.gate("ensemble.firings", same,
              std::to_string(first.totals.firings) + " firings in " +
                  std::to_string(fleets.size()) + " runs");
  if (!run.traced) return;

  // Traced job: the fleet run_ensemble runs (run_trial_fleet over
  // engine::TrialExecutor), one span per trial, aggregated by
  // engine::aggregate. Its statistics must be the untraced ones.
  const unsigned workers = engine::fleet_workers(options.trials, run.threads);
  engine::TrialExecutor executor(protocol, options.engine, options.dispatch,
                                 options.scenario, workers, options.batch);
  const Clock::time_point start = Clock::now();
  std::vector<engine::TrialResult> trials;
  {
    Trace::Span job(trace, "engine.run_ensemble");
    const std::int64_t parent = job.id();
    trials = engine::run_trial_fleet(
        options.trials, run.threads, options.master_seed,
        [&](unsigned worker, std::uint64_t, std::uint64_t seed) {
          Trace::Span span(trace, "engine.trial", parent);
          return executor.run(worker, initial, seed, options.sim);
        });
  }
  const double traced_seconds = seconds_since(start);
  const engine::EnsembleStats traced = engine::aggregate(trials);
  result.gate("ensemble.traced_stats",
              traced.totals.firings == first.totals.firings &&
                  traced.stabilised == first.stabilised &&
                  traced.accepted == first.accepted &&
                  traced.interactions.p50 == first.interactions.p50,
              std::to_string(traced.totals.firings) + " traced firings");
  report_overhead(traced_seconds, median(seconds), result);

  std::vector<double> trial_seconds;
  double busy = 0.0;
  for (const engine::TrialResult& trial : trials) {
    trial_seconds.push_back(trial.metrics.wall_seconds);
    busy += trial.metrics.wall_seconds;
  }
  const auto total_firings = static_cast<double>(traced.totals.firings);
  result.metric("engine.firings", total_firings, "count");
  result.metric("engine.trial_s_p50", median(trial_seconds), "s");
  result.metric("engine.trial_s_max", quantile(trial_seconds, 1.0), "s");
  result.metric("engine.ns_per_firing", busy * 1e9 / total_firings, "ns");
  result.metric("engine.weight_updates_per_firing",
                static_cast<double>(traced.totals.weight_updates) /
                    total_firings,
                "ratio");
  result.metric("pool.busy_fraction", busy / (traced_seconds * workers),
                "ratio");

  report_pipeline(*pipeline, trace, result);
  report_firing_split(protocol, initial, run.seed, trace, result);
  report_idle(result, {Group::kSmc, Group::kVerify, Group::kServe});
}

}  // namespace bench
