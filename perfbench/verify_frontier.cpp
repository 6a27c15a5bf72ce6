// verify-frontier: pp::Verifier in witness mode on the no-broadcast n = 1
// conversion from pi(C) with m_regs = 7 — the exhaustive frontier. The
// verify kernel, its interner and isa successor generation do all the
// work; the engine, smc and serve do none.
#include "machine/machine.hpp"
#include "obs/registry.hpp"
#include "pp/verifier.hpp"
#include "workloads.hpp"

namespace bench {

using namespace ppde;

namespace {

constexpr double kJobSeconds = 6.0;  // one verify on the reference host

}  // namespace

void verify_frontier(const RunOptions& run, Trace& trace, Result& result) {
  const std::uint64_t m_regs = run.tiny ? 4 : 7;
  std::unique_ptr<Pipeline> pipeline =
      timed_setup(1, false, 3, trace, result);
  std::vector<std::uint64_t> regs(pipeline->construction.num_registers(), 0);
  regs[pipeline->construction.R()] = m_regs;
  const pp::Config initial = pipeline->conversion.pi(
      machine::initial_state(pipeline->lowered.machine, regs), false);
  const pp::Verifier verifier(pipeline->protocol());
  pp::VerifierOptions options;
  options.witness_mode = true;
  options.max_configs = 8'000'000;
  options.threads = run.threads;

  const auto verify = [&](const pp::VerifierOptions& with,
                          pp::VerificationResult* out) {
    try {
      *out = verifier.verify(initial, with);
      result.operation(true, "verify");
    } catch (const std::exception& error) {
      result.operation(false, std::string("verify: ") + error.what());
    }
  };

  trace.set_enabled(false);
  std::vector<pp::VerificationResult> verdicts;
  const std::vector<double> seconds = run_jobs(run.seconds, kJobSeconds, [&] {
    verdicts.emplace_back();
    verify(options, &verdicts.back());
  });
  trace.set_enabled(run.traced);
  report_jobs(seconds, result);

  const std::string expected =
      run.expect.str("verify.verdict", "stabilises to true");
  const std::uint64_t configs =
      run.expect.u64("verify.configs", run.tiny ? 401'684 : 2'431'108);
  const std::uint64_t edges =
      run.expect.u64("verify.edges", run.tiny ? 421'008 : 2'576'804);
  for (const pp::VerificationResult& verdict : verdicts) {
    result.gate("verify.verdict", pp::to_string(verdict.verdict) == expected,
                pp::to_string(verdict.verdict));
    result.gate("verify.counts",
                verdict.explored_configs == configs &&
                    verdict.explored_edges == edges,
                std::to_string(verdict.explored_configs) + " configs, " +
                    std::to_string(verdict.explored_edges) + " edges");
  }
  const pp::VerificationResult& first = verdicts.front();
  if (!run.traced) return;

  // Traced job at the workload's thread count, then one at a single
  // thread for the kernel's thread speedup.
  pp::VerificationResult traced, serial;
  Clock::time_point start = Clock::now();
  {
    Trace::Span span(trace, "verify.verify");
    verify(options, &traced);
  }
  const double traced_seconds = seconds_since(start);
  const double interner_bytes =
      obs::Registry::global().gauge("verify.interner_bytes").value();
  pp::VerifierOptions one_thread = options;
  one_thread.threads = 1;
  start = Clock::now();
  {
    Trace::Span span(trace, "verify.verify_1thread");
    verify(one_thread, &serial);
  }
  const double serial_seconds = seconds_since(start);
  result.gate("verify.traced_counts",
              traced.verdict == first.verdict &&
                  serial.verdict == first.verdict &&
                  traced.explored_configs == first.explored_configs &&
                  serial.explored_configs == first.explored_configs &&
                  traced.explored_edges == first.explored_edges &&
                  serial.explored_edges == first.explored_edges,
              std::to_string(traced.explored_configs) + " / " +
                  std::to_string(serial.explored_configs) + " configs");
  report_overhead(traced_seconds, median(seconds), result);

  const auto explored = static_cast<double>(first.explored_configs);
  result.metric("verify.configs", explored, "count");
  result.metric("verify.edges", static_cast<double>(first.explored_edges),
                "count");
  result.metric("verify.configs_per_s", explored / median(seconds), "1/s");
  result.metric("verify.bytes_per_config", interner_bytes / explored,
                "bytes");
  result.metric("verify.thread_speedup", serial_seconds / traced_seconds,
                "ratio");

  report_pipeline(*pipeline, trace, result);
  report_idle(result,
              {Group::kSplit, Group::kTrials, Group::kSmc, Group::kServe});
}

}  // namespace bench
