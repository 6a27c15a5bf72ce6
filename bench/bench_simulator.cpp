// Substrate benchmarks: simulator and exact-verifier throughput.
//
// Not a paper artefact — these measure the infrastructure every other
// experiment stands on: interactions/second of the random scheduler across
// protocol shapes and population sizes, and configurations/second of the
// bottom-SCC verifier. Before the google-benchmark tables this binary
// prints three engine reports (DESIGN.md S21): per-agent vs count+null-skip
// effective throughput on the converted n=1 Czerner protocol, the states
// populated and depopulated per firing at the certify population, and
// ensemble wall-clock scaling over thread counts.
//
// With --json[=path] the binary instead writes a machine-readable engine
// report (default BENCH_engine.json) and exits — the CI perf-smoke job's
// regression artefact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <vector>

#include "baselines/flock.hpp"
#include "baselines/majority.hpp"
#include "baselines/remainder.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/count_sim.hpp"
#include "engine/ensemble.hpp"
#include "pp/simulator.hpp"
#include "pp/verifier.hpp"

namespace {

using namespace ppde;

// ---------------------------------------------------------------------------
// Engine comparison: same protocol, same population, fixed wall budget per
// engine; the figure of merit is *effective* interactions/second — meetings
// advanced per second of wall clock, where a skipped null meeting counts
// exactly like an executed one (it is one, just accounted in closed form).
// ---------------------------------------------------------------------------

template <typename Step>
std::uint64_t run_for(double budget_seconds, const Step& step) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration<double>(budget_seconds);
  std::uint64_t batches = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    // Check the clock every few thousand steps, not every step.
    for (int i = 0; i < 4096; ++i) step();
    ++batches;
  }
  return batches;
}

struct EngineRow {
  const char* name;
  std::uint64_t interactions;
  std::uint64_t firings;
  double seconds;
};

struct EngineComparison {
  std::uint32_t m;
  EngineRow rows[2];
};

EngineComparison measure_engines(std::uint32_t extra_agents,
                                 double budget_seconds) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const pp::Config initial =
      conv.initial_config(conv.num_pointers + extra_agents);
  EngineComparison result;
  result.m = conv.num_pointers + extra_agents;

  {
    pp::Simulator sim(conv.protocol, initial, 13);
    const auto start = std::chrono::steady_clock::now();
    run_for(budget_seconds, [&] { sim.step(); });
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    result.rows[0] = {"per-agent", sim.interactions(), sim.metrics().firings,
                      elapsed};
  }
  {
    engine::CountSimulator sim(conv.protocol, initial, 13);
    const auto start = std::chrono::steady_clock::now();
    run_for(budget_seconds, [&] { sim.step(); });
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    result.rows[1] = {"count+null-skip", sim.interactions(),
                      sim.metrics().firings, elapsed};
  }
  return result;
}

void print_engine_comparison(std::uint32_t extra_agents,
                             double budget_seconds) {
  const EngineComparison comparison =
      measure_engines(extra_agents, budget_seconds);
  std::printf(
      "\n=== Engine comparison: converted Czerner n=1, m = %u agents, "
      "%.1fs budget per engine ===\n",
      comparison.m, budget_seconds);
  std::printf("%-16s %18s %14s %20s %10s\n", "engine", "interactions",
              "firings", "eff. interactions/s", "speedup");
  const double base =
      static_cast<double>(comparison.rows[0].interactions) /
      comparison.rows[0].seconds;
  for (const EngineRow& row : comparison.rows) {
    const double rate =
        static_cast<double>(row.interactions) / row.seconds;
    std::printf("%-16s %18llu %14llu %20.3e %9.1fx\n", row.name,
                static_cast<unsigned long long>(row.interactions),
                static_cast<unsigned long long>(row.firings), rate,
                rate / base);
  }
}

// ---------------------------------------------------------------------------
// Machine-readable perf regression report (--json[=path]). One row per
// (m, engine mode, harness) on the converted Czerner n=1
// protocol; the perf-smoke CI job validates the schema and
// archives the file so throughput trends stay visible across commits.
// firings_per_sec is the regression metric (work actually done);
// effective_meetings_per_sec counts closed-form-skipped null meetings too
// and is the figure comparable across engine modes. Schema v2 added the
// "dispatch" field (S26). Schema v3 added "harness": "step" rows drive
// one simulator's step() loop, "fleet" rows drive run_ensemble at
// threads = 1. Schema v4 drops the lockstep "batch" column and "simd"
// tag with the lockstep core: one fleet row per m, scalar. v4 reports
// also carry count+null-skip step rows at m = |F| + 2, the certify
// statement's population. Schema v5 drops the "dispatch" column with the
// interp core: every row runs the one bytecode core. Schema v6 drops the
// "count-based" rows with the count engine's plain stepping mode.
// ---------------------------------------------------------------------------

struct ReportRow {
  std::uint32_t m;
  const char* mode;
  const char* harness;
  double firings_per_sec;
  double effective_meetings_per_sec;
};

/// One fleet measurement: `trials` independent count+null-skip trials run
/// to a fixed per-trial interaction budget (the window is set beyond the
/// budget so no trial stabilises early). Throughput is summed firings
/// (resp. meetings, skipped included) over fleet wall time.
ReportRow measure_fleet(const compile::ProtocolConversion& conv,
                        std::uint32_t m, std::uint64_t trials,
                        std::uint64_t per_trial) {
  engine::EnsembleOptions options;
  options.trials = trials;
  options.threads = 1;
  options.master_seed = 13;
  options.engine = engine::EngineKind::kCountNullSkip;
  options.sim.stable_window = ~std::uint64_t{0} / 4;
  options.sim.max_interactions = per_trial;
  const engine::EnsembleStats stats =
      engine::run_ensemble(conv.protocol, conv.initial_config(m), options);
  const double wall = stats.wall_seconds > 0 ? stats.wall_seconds : 1e-9;
  return {m,
          "count+null-skip",
          "fleet",
          static_cast<double>(stats.totals.firings) / wall,
          static_cast<double>(stats.totals.meetings) / wall};
}

/// One count+null-skip step loop at m = |F| + 2, the population `ppde
/// certify` runs at: almost every agent sits alone in its state, so nearly
/// every firing populates or depopulates one. The run freezes once it
/// decides; a frozen run restarts from the initial configuration with the
/// next seed, as the next trial would.
ReportRow measure_small_population(const compile::ProtocolConversion& conv,
                                   double budget_seconds) {
  const std::uint32_t m = conv.num_pointers + 2;
  const pp::Config initial = conv.initial_config(m);
  std::uint64_t seed = 13;
  engine::CountSimulator sim(conv.protocol, initial, seed);
  std::uint64_t firings = 0;
  std::uint64_t meetings = 0;
  const auto start = std::chrono::steady_clock::now();
  run_for(budget_seconds, [&] {
    if (sim.frozen()) {
      firings += sim.metrics().firings;
      meetings += sim.interactions();
      sim.reset(initial, ++seed);
    }
    sim.step();
  });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  firings += sim.metrics().firings;
  meetings += sim.interactions();
  return {m,
          "count+null-skip",
          "step",
          static_cast<double>(firings) / elapsed,
          static_cast<double>(meetings) / elapsed};
}

int write_json_report(const char* path, double budget_seconds) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);

  std::vector<ReportRow> rows;
  // The fleet row runs a fixed per-trial interaction budget (2-5 s on one
  // core of a 4-core Xeon), so every build fires the same trajectories and
  // two reports compare like for like.
  struct Size {
    std::uint32_t extra;
    std::uint64_t fleet_per_trial;
  };
  for (const Size size : {Size{10'000u, 6'000'000'000'000ULL},
                          Size{100'000u, 20'000'000'000'000ULL}}) {
    const EngineComparison comparison =
        measure_engines(size.extra, budget_seconds);
    for (const EngineRow& row : comparison.rows) {
      const double eff = static_cast<double>(row.interactions) / row.seconds;
      const double firings = static_cast<double>(row.firings) / row.seconds;
      rows.push_back({comparison.m, row.name, "step", firings, eff});
    }
    rows.push_back(measure_fleet(conv, comparison.m, /*trials=*/32,
                                 size.fleet_per_trial));
  }
  rows.push_back(measure_small_population(conv, budget_seconds));

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_simulator: cannot open %s for writing\n",
                 path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench_engine_v\": 6,\n  \"rows\": [");
  bool first = true;
  for (const ReportRow& row : rows) {
    std::fprintf(out,
                 "%s\n    {\"protocol\": \"czerner-n1-converted\", "
                 "\"m\": %u, \"mode\": \"%s\", \"harness\": \"%s\", "
                 "\"firings_per_sec\": %.6e, "
                 "\"effective_meetings_per_sec\": %.6e, \"threads\": 1}",
                 first ? "" : ",", row.m, row.mode, row.harness,
                 row.firings_per_sec,
                 row.effective_meetings_per_sec);
    first = false;
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("bench_simulator: wrote %s\n", path);
  return 0;
}

// ---------------------------------------------------------------------------
// Small-population churn: at m = |F| + 2, the population `ppde certify`
// runs at, how many states each firing populates and depopulates — the
// populated-list and populated-bitset updates the count engine pays per
// firing (S21). Untimed; frozen runs restart with the next seed.
// ---------------------------------------------------------------------------

void print_small_population_churn(std::uint64_t firings) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const pp::Config initial = conv.initial_config(conv.num_pointers + 2);
  std::uint64_t seed = 42;
  engine::CountSimulator sim(conv.protocol, initial, seed);
  std::uint64_t fired = 0;
  std::uint64_t populated = 0;
  std::uint64_t depopulated = 0;
  std::vector<std::uint32_t> before;
  while (fired < firings) {
    if (sim.frozen()) sim.reset(initial, ++seed);
    before = sim.config().counts();
    if (!sim.step()) continue;
    ++fired;
    const std::vector<std::uint32_t>& after = sim.config().counts();
    for (std::size_t q = 0; q < after.size(); ++q) {
      populated += before[q] == 0 && after[q] != 0 ? 1 : 0;
      depopulated += before[q] != 0 && after[q] == 0 ? 1 : 0;
    }
  }
  std::printf(
      "\n=== Small-population churn: converted Czerner n=1, m = %llu "
      "agents, %zu states, %llu firings from seed 42 ===\n",
      static_cast<unsigned long long>(initial.total()),
      conv.protocol.num_states(), static_cast<unsigned long long>(fired));
  std::printf("states populated per firing   %.3f\n",
              static_cast<double>(populated) / static_cast<double>(fired));
  std::printf("states depopulated per firing %.3f\n",
              static_cast<double>(depopulated) / static_cast<double>(fired));
}

// ---------------------------------------------------------------------------
// Ensemble scaling: K independent flock-of-birds trials to stable
// consensus, identical verdicts at every thread count (per-trial seeds
// derive from the master seed, not from thread assignment); only the wall
// clock moves. Flock converges one way and then freezes, so each trial is
// substantial but strictly bounded — unlike e.g. 4-state majority, whose
// a/b counter-dynamics can random-walk past any budget.
// ---------------------------------------------------------------------------

void print_ensemble_scaling(std::uint32_t population,
                            std::uint64_t trials) {
  const pp::Protocol protocol = baselines::make_flock_of_birds(64);
  const pp::Config initial = baselines::flock_initial(protocol, population);

  engine::EnsembleOptions options;
  options.trials = trials;
  options.master_seed = 17;
  options.engine = engine::EngineKind::kCountNullSkip;
  // The window must exceed the time to the *first* accepting agent, or the
  // initial all-reject consensus "stabilises" spuriously; once the flock
  // freezes all-accepting, the frozen shortcut satisfies any window for
  // free.
  options.sim.stable_window = 10'000'000'000ULL;
  options.sim.max_interactions = 1'000'000'000'000ULL;

  std::printf(
      "\n=== Ensemble scaling: flock k=64, m = %u, %llu trials, "
      "count+null-skip ===\n",
      population, static_cast<unsigned long long>(trials));
  std::printf("%-8s %14s %12s %12s %12s\n", "threads", "wall [s]",
              "speedup", "stabilised", "accept");
  double base_wall = 0.0;
  for (unsigned threads : {1u, 4u, 8u}) {
    options.threads = threads;
    const engine::EnsembleStats stats =
        engine::run_ensemble(protocol, initial, options);
    if (threads == 1) base_wall = stats.wall_seconds;
    std::printf("%-8u %14.3f %11.2fx %12.2f %12.2f\n", stats.threads_used,
                stats.wall_seconds, base_wall / stats.wall_seconds,
                stats.stabilised_fraction(), stats.accept_fraction());
  }
}

void BM_SimulatorMajority(benchmark::State& state) {
  const pp::Protocol protocol = baselines::make_majority();
  const auto half = static_cast<std::uint32_t>(state.range(0) / 2);
  pp::Simulator sim(protocol,
                    baselines::majority_initial(protocol, half, half), 7);
  for (auto _ : state) benchmark::DoNotOptimize(sim.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorMajority)->Arg(100)->Arg(10'000)->Arg(1'000'000);

void BM_SimulatorFlock(benchmark::State& state) {
  const pp::Protocol protocol =
      baselines::make_flock_of_birds(state.range(0));
  pp::Simulator sim(
      protocol,
      baselines::flock_initial(protocol,
                               static_cast<std::uint32_t>(state.range(0))),
      11);
  for (auto _ : state) benchmark::DoNotOptimize(sim.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorFlock)->Arg(64)->Arg(1024);

void BM_SimulatorCzernerProtocol(benchmark::State& state) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  pp::Simulator sim(conv.protocol,
                    conv.initial_config(conv.num_pointers + state.range(0)),
                    13);
  for (auto _ : state) benchmark::DoNotOptimize(sim.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorCzernerProtocol)->Arg(2)->Arg(16)->Arg(64);

void BM_CountSimulatorCzernerNullSkip(benchmark::State& state) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  engine::CountSimulator sim(
      conv.protocol, conv.initial_config(conv.num_pointers + state.range(0)),
      13);
  // One step() can advance many meetings; report *meetings* as items so the
  // items/s column is directly comparable with the per-agent benchmarks.
  std::uint64_t before = sim.interactions();
  for (auto _ : state) benchmark::DoNotOptimize(sim.step());
  state.SetItemsProcessed(sim.interactions() - before);
}
BENCHMARK(BM_CountSimulatorCzernerNullSkip)->Arg(2)->Arg(64)->Arg(10'000);

void BM_VerifierMajority(benchmark::State& state) {
  const pp::Protocol protocol = baselines::make_majority();
  const auto half = static_cast<std::uint32_t>(state.range(0) / 2);
  const pp::Config initial =
      baselines::majority_initial(protocol, half, half + 1);
  for (auto _ : state) {
    const auto result = pp::Verifier(protocol).verify(initial);
    benchmark::DoNotOptimize(result);
    state.counters["configs"] = static_cast<double>(result.explored_configs);
  }
}
BENCHMARK(BM_VerifierMajority)->Arg(10)->Arg(40)->Arg(100);

void BM_VerifierRemainder(benchmark::State& state) {
  const pp::Protocol protocol = baselines::make_remainder(5, 2);
  const pp::Config initial = baselines::remainder_initial(
      protocol, static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(pp::Verifier(protocol).verify(initial));
}
BENCHMARK(BM_VerifierRemainder)->Arg(8)->Arg(16);

void BM_VerifierCzernerPipeline(benchmark::State& state) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  compile::ConversionOptions nb;
  nb.with_broadcast = false;
  const auto conv = compile::machine_to_protocol(lowered.machine, nb);
  std::vector<std::uint64_t> regs(5, 0);
  regs[4] = state.range(0);
  pp::VerifierOptions options;
  options.witness_mode = true;
  const pp::Config initial =
      conv.pi(machine::initial_state(lowered.machine, regs), false);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        pp::Verifier(conv.protocol).verify(initial, options));
}
BENCHMARK(BM_VerifierCzernerPipeline)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before google-benchmark sees (and rejects) them.
  const char* json_path = nullptr;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_engine.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (json_path != nullptr)
    return write_json_report(json_path, /*budget_seconds=*/2.0);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  print_engine_comparison(/*extra_agents=*/10'000, /*budget_seconds=*/1.0);
  print_small_population_churn(/*firings=*/2'000'000);
  print_ensemble_scaling(/*population=*/1'000'000, /*trials=*/8);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
