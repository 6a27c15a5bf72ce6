// Statistical model checking of population protocols (DESIGN.md S23).
//
// The exact verifier (S22) proves "every fair run stabilises to b" but is
// bounded by the explicit configuration space — ~m_regs = 7 under a 12 s
// budget on the converted Czerner n = 1 protocol. The paper's subject is
// behaviour at populations near k >= 2^(2^(n-1)), far beyond any explicit
// search. This module quantifies what simulation *can* establish there:
//
//   "from configuration C the protocol stabilises to output b with
//    probability >= 1 - delta over the uniform random scheduler"
//
// tested sequentially (Wald SPRT, smc/sprt.hpp) over independent trials of
// the S21 ensemble engine, with exact Clopper–Pearson intervals on the
// observed correctness probability and streaming P² tails of the
// convergence time. The result is a *certificate*: a versioned record with
// explicit (alpha, beta, delta) error bounds whose every statistical field
// is a pure function of (protocol, initial, options) — trial i always runs
// with seed derive_trial_seed(seed, i) and outcomes are folded in trial
// order, so the certificate digest is bit-identical at any thread count.
//
// A trial-budget cap downgrades the verdict to kInconclusive with the
// partial statistics attached; a certificate never overstates what was
// sampled.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/ensemble.hpp"
#include "engine/metrics.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "smc/sprt.hpp"
#include "smc/stats.hpp"

namespace ppde::smc {

enum class Verdict {
  kCertified,     ///< SPRT accepted H1: correctness probability >= 1-delta
  kRefuted,       ///< SPRT accepted H0: correctness probability <= 1-delta-eps
  kInconclusive,  ///< trial budget exhausted before either boundary
};

const char* to_string(Verdict verdict);

struct CertifyOptions {
  /// Certified statement: correct with probability >= 1 - delta.
  double delta = 0.01;
  /// Indifference width eps: H0 is p <= 1 - delta - eps. Inside the gap
  /// either verdict is statistically acceptable (Wald).
  double indifference = 0.05;
  double alpha = 0.01;  ///< P(kCertified | p <= 1-delta-eps)
  double beta = 0.01;   ///< P(kRefuted   | p >= 1-delta)
  /// Confidence level of the Clopper–Pearson interval in the certificate.
  double ci_confidence = 0.99;
  /// Hard trial cap; hitting it yields kInconclusive with partial stats.
  std::uint64_t max_trials = 4096;
  /// Trials dispatched per fleet batch. Outcomes are folded into the SPRT
  /// in trial order after each batch drains, so the batch size affects
  /// wall time only — never the verdict or the digest. Keep it small when
  /// individual trials are expensive: the whole batch runs even if the
  /// SPRT decides on its first outcome.
  std::uint64_t batch = 8;
  // ignored; kept only because perfbench/ passes it
  std::uint32_t batch_width = 0;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  std::uint64_t seed = 1;
  engine::EngineKind engine = engine::EngineKind::kCountNullSkip;
  isa::Dispatch dispatch{};  // ignored; kept only because perfbench/ passes it
  /// Stress scenario (S27): scheduler strategy + fault plan each trial
  /// runs under. Part of the certified statement — a non-default scenario
  /// is folded into the certificate payload (and hence the digest), so a
  /// claim is certified *per scenario*; the default emits nothing and
  /// reproduces pre-S27 certificates byte for byte.
  sched::Scenario scenario;
  /// Per-trial stopping rule (sim.seed is ignored; trial seeds are derived
  /// from `seed`).
  pp::SimulationOptions sim;

  /// The derived SPRT hypotheses; throws std::invalid_argument if delta,
  /// indifference, alpha, beta are inconsistent.
  SprtOptions sprt() const;
};

/// One trial's contribution to a certificate.
struct TrialOutcome {
  bool success = false;     ///< stabilised to the expected output
  bool stabilised = false;  ///< window heuristic fired at all
  /// Parallel time to the *start* of the final consensus (the window after
  /// it is measurement overhead). Valid iff stabilised.
  double convergence_parallel_time = 0.0;
  engine::RunMetrics metrics;
};

struct Certificate {
  /// Format version of the JSONL serialisation (smc/json.hpp).
  static constexpr int kVersion = 1;

  Verdict verdict = Verdict::kInconclusive;

  // -- the certified statement ------------------------------------------
  std::uint64_t protocol_fingerprint = 0;  ///< pp::Protocol::fingerprint()
  std::uint64_t population = 0;
  bool expected_output = false;
  double delta = 0.0;
  double indifference = 0.0;
  double alpha = 0.0;
  double beta = 0.0;
  double ci_confidence = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t max_trials = 0;
  std::uint64_t interaction_budget = 0;  ///< per-trial scheduler budget
  /// Canonical scenario descriptor; empty for the default scenario, in
  /// which case the payload omits the field entirely (digest-scoping rule,
  /// sched/scenario.hpp: uniform certificates stay byte-identical to
  /// pre-S27 ones; every stressed claim gets its own digest space).
  std::string scenario;

  // -- evidence (all deterministic given the statement) ------------------
  std::uint64_t trials = 0;      ///< outcomes folded before the SPRT stopped
  std::uint64_t successes = 0;
  std::uint64_t stabilised = 0;  ///< window fired (irrespective of output)
  double llr = 0.0;              ///< final SPRT log-likelihood ratio
  BinomialInterval interval;     ///< Clopper–Pearson on successes/trials
  /// P² tails of convergence parallel time over successful trials; NaN
  /// until the estimator has seen at least one observation.
  double time_p50 = 0.0;
  double time_p90 = 0.0;
  double time_p99 = 0.0;
  std::uint64_t total_meetings = 0;  ///< summed over folded trials
  std::uint64_t total_firings = 0;

  // -- execution record (excluded from the digest) -----------------------
  double wall_seconds = 0.0;
  unsigned threads_used = 0;

  double success_fraction() const {
    return trials ? static_cast<double>(successes) / trials : 0.0;
  }
};

/// A trial body: given (executing worker, trial index, derived seed), run
/// one independent experiment. Must be safe to call concurrently from
/// different threads, and the outcome must be a pure function of (trial,
/// seed) alone — the worker index only identifies per-worker scratch
/// (e.g. a reusable CountSimulator) that is fully reset between trials,
/// so it can never influence a result (or the certificate digest).
using TrialFn = std::function<TrialOutcome(
    unsigned worker, std::uint64_t trial, std::uint64_t seed)>;

/// Core driver: batches of `body` trials on the shared engine::WorkerPool,
/// folded into the SPRT/interval/quantile state in trial order until the
/// test decides or options.max_trials is exhausted. Statement fields that
/// depend on the system under test (fingerprint, population,
/// expected_output) are left zero — certify() fills them.
Certificate certify_trials(const TrialFn& body, const CertifyOptions& options);

/// Certify "`protocol` stabilises to `expected_output` from `initial` with
/// probability >= 1 - delta". Success = the run's window heuristic fired
/// AND the consensus equals expected_output; a budget-capped run counts as
/// failure (conservative: the certificate never credits unfinished runs).
Certificate certify(const pp::Protocol& protocol, const pp::Config& initial,
                    bool expected_output, const CertifyOptions& options);

/// Run trials [first, first + count) of the same workload certify() folds,
/// without folding: outcome i of the result is trial first + i, run with
/// seed derive_trial_seed(options.seed, first + i). This is the shard
/// entry point of the serve daemon (S25) — because each outcome is a pure
/// function of (trial, seed), any partition of the trial index space into
/// ranges reproduces exactly the outcome sequence certify() would fold,
/// regardless of which process runs which range. `threads` as in
/// CertifyOptions::threads (0 = hardware concurrency; capped at count).
std::vector<TrialOutcome> run_outcome_range(
    const pp::Protocol& protocol, const pp::Config& initial,
    bool expected_output, const CertifyOptions& options, std::uint64_t first,
    std::uint64_t count, unsigned threads);

/// Human-readable multi-line rendering (used by the CLI).
std::string describe(const Certificate& certificate);

}  // namespace ppde::smc
