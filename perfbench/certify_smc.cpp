// certify-smc: in-process smc::certify of the converted n = 1 protocol at
// population |F| + 2 = 16, the user's main job. The count + null-skip
// engine's per-firing loop does almost all the work, with the SPRT fold
// and pool barriers behind it.
#include <cstdio>
#include <mutex>

#include "engine/executor.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"
#include "smc/partial.hpp"
#include "workloads.hpp"

namespace bench {

using namespace ppde;

namespace {

constexpr std::uint64_t kExtra = 2;  // m = |F| + 2 = 16 >= k(1): accept
constexpr double kJobSeconds = 8.0;  // one certify on the reference host

/// The tiny statement keeps the trial length and widens the indifference
/// region, so the SPRT decides after 3 trials instead of 42.
smc::CertifyOptions certify_options(const RunOptions& run) {
  smc::CertifyOptions options;
  options.delta = run.tiny ? 0.1 : 0.05;
  options.indifference = run.tiny ? 0.8 : 0.1;
  options.alpha = 0.01;
  options.beta = 0.01;
  options.batch = 8;
  options.threads = run.threads;
  options.seed = run.seed;
  options.sim.stable_window = 200'000'000;
  options.sim.max_interactions = 40'000'000'000;
  return options;
}

std::string hex(std::uint64_t value) {
  char text[20];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

/// The certificate of `records` folded by smc::FoldState.
smc::Certificate fold(const std::vector<smc::TrialRecord>& records,
                      const smc::CertifyOptions& options) {
  smc::FoldState state(options);
  for (const smc::TrialRecord& record : records) state.fold(record);
  return state.finish(options);
}

/// Digest of `certificate` once the statement fields certify() fills
/// (protocol, population, expected output) are set.
std::string digest_of(smc::Certificate certificate,
                      const pp::Protocol& protocol, const pp::Config& initial,
                      bool expected) {
  certificate.protocol_fingerprint = protocol.fingerprint();
  certificate.population = initial.total();
  certificate.expected_output = expected;
  return hex(smc::certificate_digest(certificate));
}

struct TrialRow {
  double seconds = 0.0;
  std::uint64_t firings = 0;
  std::uint64_t weight_updates = 0;
};

}  // namespace

void certify_smc(const RunOptions& run, Trace& trace, Result& result) {
  std::unique_ptr<Pipeline> pipeline =
      timed_setup(1, true, 3, trace, result);
  const pp::Protocol& protocol = pipeline->protocol();
  const pp::Config initial = pipeline->initial(kExtra);
  const bool expected = true;
  const smc::CertifyOptions options = certify_options(run);

  // Untraced jobs: the same statement, certified again and again.
  trace.set_enabled(false);
  std::vector<smc::Certificate> certificates;
  const std::vector<double> seconds = run_jobs(run.seconds, kJobSeconds, [&] {
    try {
      certificates.push_back(
          smc::certify(protocol, initial, expected, options));
      result.operation(true, "certify");
    } catch (const std::exception& error) {
      certificates.emplace_back();
      result.operation(false, std::string("certify: ") + error.what());
    }
  });
  trace.set_enabled(run.traced);
  report_jobs(seconds, result);

  // Every job's statement is certified by the same number of folded
  // trials: all succeed, and the SPRT needs a fixed count of successes.
  const std::string verdict = run.expect.str("certify.verdict", "CERTIFIED");
  const std::uint64_t trials =
      run.expect.u64("certify.trials", run.tiny ? 3 : 42);
  for (const smc::Certificate& certificate : certificates) {
    result.gate("certify.verdict",
                smc::to_string(certificate.verdict) == verdict,
                smc::to_string(certificate.verdict));
    result.gate("certify.trials", certificate.trials == trials,
                std::to_string(certificate.trials) + " trials folded");
  }
  const smc::Certificate& first = certificates.front();
  const std::string digest =
      run.expect.str("certify.digest", hex(smc::certificate_digest(first)));
  bool repeated = true;
  for (const smc::Certificate& certificate : certificates)
    repeated = repeated && hex(smc::certificate_digest(certificate)) == digest;
  result.gate("certify.digest_repeats", repeated,
              std::to_string(certificates.size()) + " jobs, digest " + digest);
  if (!run.traced) return;

  // Replay, in traced runs (it costs as much as a job): the folded trials
  // re-run through run_outcome_range and folded by FoldState must give
  // the same certificate.
  std::vector<smc::TrialRecord> records;
  {
    Trace::Span span(trace, "smc.replay");
    const std::vector<smc::TrialOutcome> outcomes = smc::run_outcome_range(
        protocol, initial, expected, options, 0, first.trials, run.threads);
    for (std::uint64_t i = 0; i < outcomes.size(); ++i)
      records.push_back(smc::make_trial_record(i, outcomes[i]));
  }
  const std::string replayed =
      digest_of(fold(records, options), protocol, initial, expected);
  result.gate("certify.digest_replay", replayed == digest,
              "certify " + digest + ", replay " + replayed);

  // Traced job: certify_trials with the per-trial body certify() runs
  // (engine::TrialExecutor), one span per trial. Its certificate must be
  // the untraced one.
  const unsigned workers = engine::fleet_workers(options.batch, run.threads);
  engine::TrialExecutor executor(protocol, options.engine, options.dispatch,
                                 options.scenario, workers,
                                 options.batch_width);
  std::mutex rows_mutex;
  std::vector<TrialRow> rows;
  const Clock::time_point start = Clock::now();
  smc::Certificate traced;
  {
    Trace::Span job(trace, "smc.certify");
    const std::int64_t parent = job.id();
    traced = smc::certify_trials(
        [&](unsigned worker, std::uint64_t, std::uint64_t seed) {
          Trace::Span span(trace, "engine.trial", parent);
          const engine::TrialResult trial =
              executor.run(worker, initial, seed, options.sim);
          {
            std::lock_guard<std::mutex> lock(rows_mutex);
            rows.push_back(TrialRow{trial.metrics.wall_seconds,
                                    trial.metrics.firings,
                                    trial.metrics.weight_updates});
          }
          // certify()'s mapping of a run to an outcome.
          smc::TrialOutcome outcome;
          outcome.metrics = trial.metrics;
          outcome.stabilised = trial.sim.stabilised &&
                               trial.sim.consensus_since !=
                                   pp::SimulationResult::kNeverStabilised;
          outcome.success = outcome.stabilised && trial.sim.output == expected;
          if (outcome.stabilised)
            outcome.convergence_parallel_time =
                static_cast<double>(trial.sim.consensus_since) /
                static_cast<double>(initial.total());
          return outcome;
        },
        options);
  }
  const double traced_seconds = seconds_since(start);
  const std::string traced_digest =
      digest_of(traced, protocol, initial, expected);
  result.gate("certify.traced_digest", traced_digest == digest,
              "traced " + traced_digest);
  report_overhead(traced_seconds, seconds.front(), result);

  std::vector<double> trial_seconds;
  double busy = 0.0, firings = 0.0, updates = 0.0;
  for (const TrialRow& row : rows) {
    trial_seconds.push_back(row.seconds);
    busy += row.seconds;
    firings += static_cast<double>(row.firings);
    updates += static_cast<double>(row.weight_updates);
  }
  result.metric("engine.firings", firings, "count");
  result.metric("engine.trial_s_p50", median(trial_seconds), "s");
  result.metric("engine.trial_s_max", quantile(trial_seconds, 1.0), "s");
  result.metric("engine.ns_per_firing", busy * 1e9 / firings, "ns");
  result.metric("engine.weight_updates_per_firing", updates / firings,
                "ratio");
  result.metric("pool.busy_fraction", busy / (traced_seconds * workers),
                "ratio");

  // The fold alone, over the recorded trial records.
  std::uint64_t folds = 0;
  const Clock::time_point fold_start = Clock::now();
  {
    Trace::Span span(trace, "smc.fold");
    while (seconds_since(fold_start) < 0.05) {
      fold(records, options);
      ++folds;
    }
  }
  result.metric("smc.trials_run", static_cast<double>(rows.size()), "count");
  result.metric("smc.trials_folded", static_cast<double>(traced.trials),
                "count");
  result.metric("smc.useful_fraction",
                static_cast<double>(traced.trials) /
                    static_cast<double>(rows.size()),
                "ratio");
  result.metric("smc.fold_us_per_trial",
                seconds_since(fold_start) * 1e6 /
                    static_cast<double>(folds * records.size()),
                "us");

  report_pipeline(*pipeline, trace, result);
  report_firing_split(protocol, initial, run.seed, trace, result);
  report_idle(result, {Group::kVerify, Group::kServe});
}

}  // namespace bench
