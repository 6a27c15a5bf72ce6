#include "engine/executor.hpp"

namespace ppde::engine {

TrialExecutor::TrialExecutor(const pp::Protocol& protocol, EngineKind kind,
                             isa::Dispatch,
                             const sched::Scenario& scenario, unsigned workers,
                             std::uint32_t)
    : protocol_(protocol),
      scenario_(scenario),
      per_agent_(kind == EngineKind::kPerAgent || !scenario.is_default()),
      sims_(workers) {}

TrialResult TrialExecutor::run(unsigned worker, const pp::Config& initial,
                               std::uint64_t seed,
                               const pp::SimulationOptions& options) {
  TrialResult trial;
  trial.seed = seed;
  if (per_agent_) {
    pp::Simulator simulator(protocol_, initial, scenario_, seed);
    trial.sim = simulator.run_until_stable(options);
    trial.metrics = simulator.metrics();
  } else {
    // One reusable simulator per worker: reset() rewinds counts, weights
    // and RNG without reallocating; a reset simulator behaves identically
    // to a fresh one, so results stay pure functions of (initial, seed).
    std::unique_ptr<CountSimulator>& sim = sims_[worker];
    if (!sim)
      sim = std::make_unique<CountSimulator>(protocol_, initial, seed);
    else
      sim->reset(initial, seed);
    trial.sim = sim->run_until_stable(options);
    trial.metrics = sim->metrics();
  }
  return trial;
}

}  // namespace ppde::engine
