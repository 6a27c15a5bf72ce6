// Tests for the adversarial scheduling & fault-injection subsystem
// (DESIGN.md S27): the scenario descriptor grammar (canonicalisation and
// malformed-input rejection), the scheduler strategies' adjacency laws,
// the fault plans' timing and population bounds, bit-identical
// trajectories against the pre-S27 uniform path (clique is the
// differential anchor: same meeting law, different digest scope), scenario-scoped certificate digests that are stable
// across thread counts, the pre-S27 bit-compatibility of
// analysis::random_noise, and the serve wire (scenario field omission,
// admission-time rejection, worker-count-independent digests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/robustness.hpp"
#include "baselines/majority.hpp"
#include "bignum/nat.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/ensemble.hpp"
#include "pp/simulator.hpp"
#include "sched/fault.hpp"
#include "sched/scenario.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"
#include "support/rng.hpp"

namespace ppde {
namespace {

using sched::FaultKind;
using sched::FaultSpec;
using sched::Scenario;
using sched::SchedKind;
using sched::SchedulerSpec;

// ---------------------------------------------------------------------------
// Scenario grammar.

TEST(Scenario, CanonicalDescriptorsRoundTrip) {
  for (const char* text : {
           "uniform", "clique", "ring", "grid", "grid:5", "regular:4",
           "regular:6", "biased:4", "biased:0.25", "aging",
           "ring+corrupt:0.001", "uniform+corrupt:0.5,3",
           "aging+churn:0.01,8", "clique+churn:0.25",
           "grid:3+burst:100,2;500,1",
       }) {
    const Scenario scenario = Scenario::parse(text);
    EXPECT_EQ(scenario.to_string(), text) << text;
    EXPECT_EQ(Scenario::parse(scenario.to_string()), scenario) << text;
  }
}

TEST(Scenario, NonCanonicalInputIsCanonicalised) {
  // Numbers re-render in shortest round-trippable form; defaulted
  // parameters are omitted; burst schedules sort by meeting index.
  EXPECT_EQ(Scenario::parse("biased:4.0").to_string(), "biased:4");
  EXPECT_EQ(Scenario::parse("regular").to_string(), "regular:4");
  EXPECT_EQ(Scenario::parse("uniform+corrupt:0.50,1").to_string(),
            "uniform+corrupt:0.5");
  EXPECT_EQ(Scenario::parse("uniform+churn:0.125,0").to_string(),
            "uniform+churn:0.125");
  EXPECT_EQ(Scenario::parse("uniform+burst:500,1;100,2").to_string(),
            "uniform+burst:100,2;500,1");
}

TEST(Scenario, RejectsMalformedDescriptors) {
  for (const char* text : {
           "", "nope", "uniform:3", "clique:2", "ring:1", "grid:1",
           "grid:x", "regular:3", "regular:0", "biased:1", "biased:0",
           "biased:-2", "aging:1", "uniform+", "uniform+none:1",
           "uniform+corrupt", "uniform+corrupt:0", "uniform+corrupt:2",
           "uniform+corrupt:0.5,0", "uniform+corrupt:0.5,1,2",
           "uniform+churn:-0.5", "uniform+churn:abc", "uniform+burst:",
           "uniform+burst:5", "uniform+burst:5,0", "uniform+burst:5,2;7",
       }) {
    EXPECT_THROW(Scenario::parse(text), std::invalid_argument) << text;
  }
}

TEST(Scenario, DefaultDetection) {
  EXPECT_TRUE(Scenario{}.is_default());
  EXPECT_TRUE(Scenario::parse("uniform").is_default());
  EXPECT_FALSE(Scenario::parse("clique").is_default());
  EXPECT_FALSE(Scenario::parse("uniform+corrupt:0.1").is_default());
}

// ---------------------------------------------------------------------------
// Seed derivation (satellite: the hoisted support::derive_trial_seed is
// the one canonical implementation).

TEST(SeedDerivation, EngineMatchesSupport) {
  for (const std::uint64_t master : {0ull, 1ull, 42ull, ~0ull, 0xdeadbeefull})
    for (const std::uint64_t trial : {0ull, 1ull, 7ull, 1000ull, 1048576ull})
      EXPECT_EQ(engine::derive_trial_seed(master, trial),
                support::derive_trial_seed(master, trial))
          << master << "/" << trial;
}

TEST(SeedDerivation, StreamTagsSplitDistinctStreams) {
  const std::uint64_t seed = 0x1234'5678'9abc'def0ull;
  const std::uint64_t topo =
      support::derive_trial_seed(seed, sched::kTopologyStream);
  const std::uint64_t fault =
      support::derive_trial_seed(seed, sched::kFaultStream);
  EXPECT_NE(topo, seed);
  EXPECT_NE(fault, seed);
  EXPECT_NE(topo, fault);
}

// ---------------------------------------------------------------------------
// Scheduler strategies: adjacency laws, straight off the interface.

std::unique_ptr<sched::Scheduler> loaded_scheduler(const char* text,
                                                   std::uint64_t m,
                                                   support::Rng& topo) {
  auto scheduler = sched::make_scheduler(sched::parse_scheduler(text));
  if (scheduler) scheduler->on_population(m, topo);
  return scheduler;
}

TEST(Scheduler, UniformHasNoStrategyObject) {
  EXPECT_EQ(sched::make_scheduler(SchedulerSpec{}), nullptr);
}

TEST(Scheduler, RingMeetsOnlyNeighbours) {
  support::Rng rng(1), topo(2);
  const std::uint64_t m = 8;
  auto ring = loaded_scheduler("ring", m, topo);
  ASSERT_NE(ring, nullptr);
  sched::PickContext ctx{rng, m};
  for (int k = 0; k < 2000; ++k) {
    std::uint64_t i = 0, j = 0;
    ASSERT_TRUE(ring->pick(ctx, &i, &j));
    ASSERT_NE(i, j);
    const std::uint64_t diff = (j + m - i) % m;
    EXPECT_TRUE(diff == 1 || diff == m - 1) << i << "->" << j;
  }
}

TEST(Scheduler, GridMeetsAlongCirculantOffsets) {
  support::Rng rng(1), topo(2);
  const std::uint64_t m = 16;
  auto grid = loaded_scheduler("grid:4", m, topo);
  ASSERT_NE(grid, nullptr);
  sched::PickContext ctx{rng, m};
  for (int k = 0; k < 2000; ++k) {
    std::uint64_t i = 0, j = 0;
    ASSERT_TRUE(grid->pick(ctx, &i, &j));
    const std::uint64_t diff = (j + m - i) % m;
    EXPECT_TRUE(diff == 1 || diff == m - 1 || diff == 4 || diff == m - 4)
        << i << "->" << j;
  }
}

TEST(Scheduler, RegularGraphRespectsDegreeBound) {
  support::Rng rng(1), topo(2);
  const std::uint64_t m = 10;
  auto regular = loaded_scheduler("regular:4", m, topo);
  ASSERT_NE(regular, nullptr);
  sched::PickContext ctx{rng, m};
  std::vector<std::set<std::uint64_t>> neighbours(m);
  for (int k = 0; k < 5000; ++k) {
    std::uint64_t i = 0, j = 0;
    if (!regular->pick(ctx, &i, &j)) continue;  // self-loop edge: null meeting
    ASSERT_NE(i, j);
    neighbours[i].insert(j);
  }
  for (std::uint64_t i = 0; i < m; ++i)
    EXPECT_LE(neighbours[i].size(), 4u) << "slot " << i;
}

TEST(Scheduler, AgingInitiatorIsLeastRecentlyMet) {
  support::Rng rng(1), topo(2);
  const std::uint64_t m = 6;
  auto aging = loaded_scheduler("aging", m, topo);
  ASSERT_NE(aging, nullptr);
  sched::PickContext ctx{rng, m};
  // Fresh load: recency order is slot order, so slot 0 initiates first.
  std::uint64_t i = 0, j = 0;
  ASSERT_TRUE(aging->pick(ctx, &i, &j));
  EXPECT_EQ(i, 0u);
  aging->on_meeting(i, j);
  // The quota invariant: no agent waits longer than m meetings to appear,
  // because each meeting retires the currently longest-waiting agent.
  std::vector<int> last_met(m, 0);
  for (int meeting = 1; meeting <= 200; ++meeting) {
    ASSERT_TRUE(aging->pick(ctx, &i, &j));
    ASSERT_NE(i, j);
    aging->on_meeting(i, j);
    last_met[i] = last_met[j] = meeting;
    for (std::uint64_t a = 0; a < m; ++a)
      EXPECT_GE(last_met[a], meeting - static_cast<int>(m)) << "slot " << a;
  }
}

// ---------------------------------------------------------------------------
// Simulator integration on the 4-state majority baseline (cheap, and its
// two input states exercise churn arrivals).

struct MajorityFixture : ::testing::Test {
  pp::Protocol protocol = baselines::make_majority();
  pp::Config initial = baselines::majority_initial(protocol, 12, 8);

  pp::SimulationOptions quick(std::uint64_t budget = 200'000,
                              std::uint64_t window = 2'000) const {
    pp::SimulationOptions options;
    options.max_interactions = budget;
    options.stable_window = window;
    return options;
  }
};

void expect_same_run(const pp::SimulationResult& a,
                     const pp::SimulationResult& b) {
  EXPECT_EQ(a.stabilised, b.stabilised);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.consensus_since, b.consensus_since);
}

TEST_F(MajorityFixture, DefaultScenarioMatchesPlainConstructorBitForBit) {
  pp::Simulator plain(protocol, initial, /*seed=*/9);
  pp::Simulator scenario(protocol, initial, Scenario{}, /*seed=*/9);
  const auto a = plain.run_until_stable(quick());
  const auto b = scenario.run_until_stable(quick());
  expect_same_run(a, b);
  EXPECT_EQ(plain.config(), scenario.config());
  EXPECT_EQ(scenario.fault_stats(), nullptr);
}

TEST_F(MajorityFixture, CliqueIsTheUniformMeetingLawDifferentialAnchor) {
  // The clique strategy routes through the full strategy machinery but
  // draws the exact uniform ordered-pair law, draw for draw — any drift
  // in the strategy plumbing shows up here as a trajectory divergence.
  pp::Simulator plain(protocol, initial, /*seed=*/9);
  pp::Simulator clique(protocol, initial, Scenario::parse("clique"),
                       /*seed=*/9);
  const auto a = plain.run_until_stable(quick());
  const auto b = clique.run_until_stable(quick());
  expect_same_run(a, b);
  EXPECT_EQ(plain.config(), clique.config());
}

TEST_F(MajorityFixture, ScenarioRunsAreSeedDeterministic) {
  for (const char* text : {"ring", "biased:0.5", "uniform+churn:0.01"}) {
    const Scenario scenario = Scenario::parse(text);
    pp::Simulator first(protocol, initial, scenario, /*seed=*/11);
    pp::Simulator second(protocol, initial, scenario, /*seed=*/11);
    const auto a = first.run_until_stable(quick());
    const auto b = second.run_until_stable(quick());
    expect_same_run(a, b);
    EXPECT_EQ(first.config(), second.config()) << text;
  }
}

TEST_F(MajorityFixture, FaultsDrawFromTheirOwnStreamNotTheMeetingStream) {
  // A burst scheduled far beyond the horizon must leave the meeting
  // sequence untouched: the fault stream is split off the trial seed, so
  // an armed-but-idle plan consumes nothing the scheduler sees.
  pp::Simulator plain(protocol, initial, /*seed=*/13);
  pp::Simulator armed(protocol, initial,
                      Scenario::parse("uniform+burst:900000000,5"),
                      /*seed=*/13);
  const auto a = plain.run_until_stable(quick());
  const auto b = armed.run_until_stable(quick());
  expect_same_run(a, b);
  EXPECT_EQ(plain.config(), armed.config());
}

TEST_F(MajorityFixture, BurstFiresAtScheduledMeetingIndices) {
  pp::Simulator sim(protocol, initial,
                    Scenario::parse("uniform+burst:100,3;200,1"),
                    /*seed=*/3);
  const auto result = sim.run_until_stable(quick(/*budget=*/300,
                                                 /*window=*/1u << 30));
  EXPECT_FALSE(result.stabilised);
  const sched::FaultStats* stats = sim.fault_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events, 2u);
  EXPECT_EQ(stats->corruptions, 4u);
  EXPECT_EQ(stats->arrivals, 0u);
  EXPECT_EQ(stats->departures, 0u);
}

TEST_F(MajorityFixture, ChurnKeepsPopulationWithinBounds) {
  const std::uint64_t start = initial.total();
  pp::Simulator sim(protocol, initial, Scenario::parse("uniform+churn:0.05,4"),
                    /*seed=*/17);
  for (int step = 0; step < 20'000; ++step) {
    sim.step();
    ASSERT_GE(sim.population(), 2u);
    ASSERT_LE(sim.population(), start + 4);
  }
  const sched::FaultStats* stats = sim.fault_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->arrivals, 0u);
  EXPECT_GT(stats->departures, 0u);
  EXPECT_EQ(stats->events, stats->arrivals + stats->departures);
}

// ---------------------------------------------------------------------------
// Ensemble: non-default scenarios fall back to the per-agent simulator
// but stay thread-count-deterministic.

TEST_F(MajorityFixture, EnsembleFallsBackToPerAgentAndStaysDeterministic) {
  engine::EnsembleOptions options;
  options.trials = 8;
  options.master_seed = 21;
  options.engine = engine::EngineKind::kCountNullSkip;
  options.scenario = Scenario::parse("ring+corrupt:0.0001");
  options.sim = quick();

  options.threads = 1;
  const engine::EnsembleStats one = engine::run_ensemble(protocol, initial,
                                                         options);
  options.threads = 4;
  const engine::EnsembleStats four = engine::run_ensemble(protocol, initial,
                                                          options);
  // The count engine's signature counters stay zero: the executor routed
  // every trial through the per-agent simulator.
  EXPECT_EQ(one.totals.null_skip_batches, 0u);
  EXPECT_EQ(one.totals.tree_descents, 0u);
  EXPECT_GT(one.totals.meetings, 0u);
  EXPECT_EQ(one.trials, four.trials);
  EXPECT_EQ(one.stabilised, four.stabilised);
  EXPECT_EQ(one.accepted, four.accepted);
  EXPECT_EQ(one.totals.meetings, four.totals.meetings);
  EXPECT_EQ(one.totals.firings, four.totals.firings);
  EXPECT_DOUBLE_EQ(one.interactions.p50, four.interactions.p50);
}

// ---------------------------------------------------------------------------
// Certification: the scenario descriptor is part of the certified
// statement (digest-scoped), and certificates stay reproducible at every
// thread count.

struct CertifyN1 : ::testing::Test {
  CertifyN1()
      : lowered_(compile::lower_program(
            czerner::build_construction(1).program)),
        conv_(compile::machine_to_protocol(lowered_.machine)) {}

  smc::CertifyOptions cheap_options() const {
    smc::CertifyOptions options;
    options.seed = 7;
    options.max_trials = 24;
    options.delta = 0.1;
    options.indifference = 0.8;
    // Deliberately tiny: digest scoping and thread stability do
    // not require stabilising trials, and a stressed trial that exhausts
    // its budget costs the full budget on the per-agent simulator.
    options.sim.stable_window = 200'000;
    options.sim.max_interactions = 2'000'000;
    return options;
  }

  smc::Certificate certify(const smc::CertifyOptions& options) const {
    const std::uint64_t m = conv_.num_pointers + 2;
    const bool expected =
        bignum::Nat(2) >= czerner::Construction::threshold(1);
    return smc::certify(conv_.protocol, conv_.initial_config(m), expected,
                        options);
  }

  compile::LoweredMachine lowered_;
  compile::ProtocolConversion conv_;
};

TEST_F(CertifyN1, DefaultScenarioOmitsTheFieldEntirely) {
  const smc::Certificate cert = certify(cheap_options());
  EXPECT_TRUE(cert.scenario.empty());
  EXPECT_EQ(smc::to_jsonl(cert).find("scenario"), std::string::npos);
}

TEST_F(CertifyN1, ScenarioScopesTheDigest) {
  smc::CertifyOptions options = cheap_options();
  const smc::Certificate plain = certify(options);
  options.scenario = Scenario::parse("ring");
  const smc::Certificate ring = certify(options);
  EXPECT_EQ(ring.scenario, "ring");
  EXPECT_NE(smc::to_jsonl(ring).find("\"scenario\":\"ring\""),
            std::string::npos);
  EXPECT_NE(smc::certificate_digest(plain), smc::certificate_digest(ring));
  EXPECT_NE(smc::describe(ring).find("ring"), std::string::npos);
}

TEST_F(CertifyN1, ScenarioDigestIsThreadIndependent) {
  smc::CertifyOptions options = cheap_options();
  options.scenario = Scenario::parse("biased:4+corrupt:0.0001");
  options.threads = 1;
  const std::uint64_t reference = smc::certificate_digest(certify(options));
  options.threads = 4;
  EXPECT_EQ(smc::certificate_digest(certify(options)), reference);
}

// ---------------------------------------------------------------------------
// Robustness (satellite): random_noise now draws through the S27 noise
// primitive; its output must be bit-identical to the pre-S27 inline loop.

TEST(Robustness, RandomNoiseIsBitIdenticalToPreS27Loop) {
  const pp::Protocol protocol = baselines::make_majority();
  const std::vector<pp::State> pool = {1, 3};
  for (const bool use_pool : {false, true}) {
    support::Rng actual_rng(99), oracle_rng(99);
    for (std::uint32_t agents : {0u, 1u, 7u, 64u}) {
      const pp::Config actual = analysis::random_noise(
          protocol, agents, actual_rng, use_pool ? &pool : nullptr);
      // Verbatim pre-S27 loop body.
      pp::Config oracle(protocol.num_states());
      for (std::uint32_t i = 0; i < agents; ++i)
        oracle.add(use_pool
                       ? pool[oracle_rng.below(pool.size())]
                       : static_cast<pp::State>(
                             oracle_rng.below(protocol.num_states())));
      EXPECT_EQ(actual, oracle) << agents << "/" << use_pool;
    }
    // Identical RNG consumption, not just identical outputs.
    EXPECT_EQ(actual_rng(), oracle_rng());
  }
}

// ---------------------------------------------------------------------------
// Serve wire: the scenario field is omitted when default, round-trips
// when present, is rejected at admission when malformed, and the daemon's
// scenario certificates are worker-count-independent.

TEST(ServeProto, QueryScenarioOmittedWhenDefaultAndRoundTripsOtherwise) {
  serve::QueryParams query;
  query.req = "certify";
  EXPECT_EQ(serve::encode_query(query).find("scenario"), std::string::npos);
  query.scenario = "ring+corrupt:0.001";
  const serve::QueryParams decoded =
      serve::parse_query(serve::Json::parse(serve::encode_query(query)));
  EXPECT_EQ(decoded.scenario, "ring+corrupt:0.001");
  EXPECT_EQ(serve::certify_options_of(decoded).scenario,
            Scenario::parse("ring+corrupt:0.001"));
}

TEST(ServeProto, BatchRequestScenarioRoundTrips) {
  serve::BatchRequest request;
  request.n = 1;
  EXPECT_EQ(serve::encode_batch_request(request).find("scenario"),
            std::string::npos);
  request.scenario = "aging+churn:0.01";
  const serve::BatchRequest decoded = serve::parse_batch_request(
      serve::Json::parse(serve::encode_batch_request(request)));
  EXPECT_EQ(decoded.scenario, "aging+churn:0.01");
}

struct RunningServer {
  serve::Server server;
  std::thread thread;

  explicit RunningServer(const serve::ServerOptions& options)
      : server(options) {
    thread = std::thread([this] { server.run(); });
  }
  ~RunningServer() {
    server.request_stop();
    thread.join();
  }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server.port());
  }
};

serve::QueryParams scenario_query() {
  serve::QueryParams query;
  query.req = "certify";
  query.n = 1;
  query.extra = 2;
  query.trials = 24;
  query.seed = 7;
  query.delta = 0.1;
  query.indifference = 0.8;
  query.window = 200'000;
  query.budget = 2'000'000;
  query.scenario = "ring+corrupt:0.0001";
  return query;
}

TEST(ServeWire, MalformedScenarioIsRejectedAtAdmission) {
  serve::ServerOptions options;
  options.port = 0;
  options.workers = 1;
  RunningServer running(options);
  serve::QueryParams query = scenario_query();
  query.scenario = "grid:1";
  std::string response, error;
  ASSERT_TRUE(serve::rpc(running.endpoint(), serve::encode_query(query),
                         &response, &error))
      << error;
  const serve::Json json = serve::Json::parse(response);
  EXPECT_FALSE(json.boolean("ok", true)) << response;
  EXPECT_NE(json.str("error", "").find("grid width"), std::string::npos)
      << response;
}

TEST(ServeWire, ScenarioCertifyDigestIndependentOfWorkerCount) {
  const serve::QueryParams query = scenario_query();
  // In-process reference with identical options.
  const auto lowered =
      compile::lower_program(czerner::build_construction(query.n).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint64_t m = conv.num_pointers + query.extra;
  const bool expected = bignum::Nat(query.extra) >=
                        czerner::Construction::threshold(query.n);
  smc::CertifyOptions options = serve::certify_options_of(query);
  options.threads = 1;
  const smc::Certificate reference =
      smc::certify(conv.protocol, conv.initial_config(m), expected, options);
  ASSERT_EQ(reference.scenario, "ring+corrupt:0.0001");

  for (const unsigned workers : {1u, 2u}) {
    serve::ServerOptions server_options;
    server_options.port = 0;
    server_options.workers = workers;
    server_options.shard = 4;
    RunningServer running(server_options);
    std::string response, error;
    ASSERT_TRUE(serve::rpc(running.endpoint(), serve::encode_query(query),
                           &response, &error))
        << error;
    const serve::Json json = serve::Json::parse(response);
    EXPECT_TRUE(json.boolean("ok", false)) << response;
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      smc::certificate_digest(reference)));
    EXPECT_NE(response.find(std::string("\"digest\":\"") + digest + "\""),
              std::string::npos)
        << "workers " << workers << ": " << response;
  }
}

}  // namespace
}  // namespace ppde
