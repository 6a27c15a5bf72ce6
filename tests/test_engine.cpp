// Tests for the ensemble simulation engine (DESIGN.md S21):
// distributional equivalence of CountSimulator against the per-agent
// pp::Simulator, exact count conservation, thread-count-independent
// determinism of ensemble statistics, and the consensus_since sentinel.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/flock.hpp"
#include "baselines/majority.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/count_sim.hpp"
#include "engine/ensemble.hpp"
#include "engine/executor.hpp"
#include "engine/pool.hpp"
#include "pp/simulator.hpp"
#include "support/rng.hpp"

namespace ppde::engine {
namespace {

// Two-opinion "initiator wins" protocol: (T,F -> T,T), (F,T -> F,F).
// From a mixed start the absorbing opinion is genuinely random, which makes
// it the right workload for comparing acceptance *distributions*.
pp::Protocol make_opinion_protocol() {
  pp::Protocol protocol;
  const pp::State t = protocol.add_state("T");
  const pp::State f = protocol.add_state("F");
  protocol.mark_input(t);
  protocol.mark_input(f);
  protocol.mark_accepting(t);
  protocol.add_transition(t, f, t, t);
  protocol.add_transition(f, t, f, f);
  protocol.finalize();
  return protocol;
}

pp::Config opinion_initial(const pp::Protocol& protocol, std::uint32_t t,
                           std::uint32_t f) {
  pp::Config config(protocol.num_states());
  config.add(protocol.state("T"), t);
  config.add(protocol.state("F"), f);
  return config;
}

struct SampleStats {
  std::uint64_t accepted = 0;
  std::uint64_t stabilised = 0;
  std::vector<double> interactions;
};

template <typename MakeSim>
SampleStats sample_runs(std::uint64_t trials, std::uint64_t seed_stream,
                        const pp::SimulationOptions& options,
                        MakeSim make_sim) {
  SampleStats stats;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    auto sim = make_sim(derive_trial_seed(seed_stream, trial));
    const pp::SimulationResult result = sim.run_until_stable(options);
    if (result.stabilised) {
      ++stats.stabilised;
      if (result.output) ++stats.accepted;
    }
    stats.interactions.push_back(static_cast<double>(result.interactions));
  }
  return stats;
}

// Two-sample chi-squared statistic over quantile bins of the combined
// sample (equal sample sizes). Heavily tied samples collapse bins; the
// statistic stays valid because both samples share the tie structure.
double chi_squared(const std::vector<double>& a,
                   const std::vector<double>& b) {
  std::vector<double> combined = a;
  combined.insert(combined.end(), b.begin(), b.end());
  std::sort(combined.begin(), combined.end());
  std::vector<double> edges;
  for (int i = 1; i <= 5; ++i) {
    const double edge = combined[combined.size() * i / 6];
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  const auto histogram = [&](const std::vector<double>& values) {
    std::vector<double> bins(edges.size() + 1, 0.0);
    for (double v : values)
      bins[std::upper_bound(edges.begin(), edges.end(), v) - edges.begin()] +=
          1.0;
    return bins;
  };
  const std::vector<double> bins_a = histogram(a);
  const std::vector<double> bins_b = histogram(b);
  double statistic = 0.0;
  for (std::size_t i = 0; i < bins_a.size(); ++i) {
    const double total = bins_a[i] + bins_b[i];
    if (total == 0.0) continue;
    const double diff = bins_a[i] - bins_b[i];
    statistic += diff * diff / total;
  }
  return statistic;
}

// Verbatim reimplementation of the seed engine's stepping loop — full
// active-weight rescan per step, linear prefix scans for both meeting
// partners, responder walk over the initiator's complete partner list,
// transitions picked off Protocol::transitions_for (the map interpreter) —
// kept here as the oracle for the bit-identicality contract (DESIGN.md
// S21): for the same seed, CountSimulator must visit the same
// configuration sequence, fire the same transitions, and settle the same
// consensus times as this loop, RNG draw for RNG draw.
class LinearScanOracle {
 public:
  LinearScanOracle(const pp::Protocol& protocol, const pp::Config& initial,
                   std::uint64_t seed, bool null_skip)
      : protocol_(&protocol),
        index_(protocol),
        null_skip_(null_skip),
        counts_(protocol.num_states()),
        rout_(protocol.num_states(), 0),
        position_(protocol.num_states(), kNone),
        rng_(seed) {
    for (pp::State q = 0; q < initial.num_states(); ++q)
      if (initial[q] != 0) counts_.add(q, initial[q]);
    for (pp::State q = 0; q < counts_.num_states(); ++q) {
      if (counts_[q] == 0) continue;
      if (protocol.is_accepting(q)) accepting_ += counts_[q];
      for (pp::State p : index_.initiators_meeting(q)) rout_[p] += counts_[q];
      position_[q] = static_cast<std::uint32_t>(populated_.size());
      populated_.push_back(q);
    }
  }

  const pp::Config& config() const { return counts_; }
  std::uint64_t interactions() const { return interactions_; }
  std::uint64_t meetings() const { return meetings_; }
  std::uint64_t firings() const { return firings_; }

  bool step() {
    if (!null_skip_) return step_meeting();
    const std::uint64_t active = active_weight();
    if (active == 0) {
      ++interactions_;
      ++meetings_;
      return false;
    }
    advance_nulls(sample_null_run(active));
    ++interactions_;
    ++meetings_;
    apply_active_meeting(active);
    return true;
  }

  pp::SimulationResult run_until_stable(const pp::SimulationOptions& options) {
    pp::SimulationResult result;
    std::uint64_t consensus_start = interactions_;
    std::optional<bool> held = consensus();
    while (interactions_ < options.max_interactions) {
      if (null_skip_) {
        const std::uint64_t active = active_weight();
        const std::uint64_t stable_at =
            consensus_start + options.stable_window;
        if (active == 0) {
          if (held.has_value() && stable_at <= options.max_interactions) {
            advance_nulls(stable_at - interactions_);
            result.stabilised = true;
            result.output = *held;
            result.consensus_since = consensus_start;
          } else {
            advance_nulls(options.max_interactions - interactions_);
          }
          break;
        }
        const std::uint64_t skip = sample_null_run(active);
        if (held.has_value() && stable_at <= interactions_ + skip) {
          advance_nulls(stable_at - interactions_);
          result.stabilised = true;
          result.output = *held;
          result.consensus_since = consensus_start;
          break;
        }
        if (interactions_ + skip >= options.max_interactions) {
          advance_nulls(options.max_interactions - interactions_);
          break;
        }
        advance_nulls(skip);
        ++interactions_;
        ++meetings_;
        apply_active_meeting(active);
      } else {
        step_meeting();
      }
      const std::optional<bool> now = consensus();
      if (now != held) {
        held = now;
        consensus_start = interactions_;
      }
      if (held.has_value() &&
          interactions_ - consensus_start >= options.stable_window) {
        result.stabilised = true;
        result.output = *held;
        result.consensus_since = consensus_start;
        break;
      }
    }
    result.interactions = interactions_;
    return result;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::optional<bool> consensus() const {
    if (accepting_ == counts_.total()) return true;
    if (accepting_ == 0) return false;
    return std::nullopt;
  }

  std::uint64_t active_weight() {
    std::uint64_t total = 0;
    weights_.resize(populated_.size());
    for (std::size_t i = 0; i < populated_.size(); ++i) {
      const pp::State q = populated_[i];
      const std::uint64_t weight =
          counts_[q] * (rout_[q] - (index_.self_active(q) ? 1 : 0));
      weights_[i] = weight;
      total += weight;
    }
    return total;
  }

  std::uint64_t sample_null_run(std::uint64_t active) {
    const double m = static_cast<double>(counts_.total());
    const double p = static_cast<double>(active) / (m * (m - 1.0));
    if (p >= 1.0) return 0;
    const double u = (static_cast<double>(rng_() >> 11) + 1.0) * 0x1.0p-53;
    const double k = std::floor(std::log(u) / std::log1p(-p));
    if (!(k >= 0.0)) return 0;
    if (k >= 1.8e19) return std::numeric_limits<std::uint64_t>::max() / 2;
    return static_cast<std::uint64_t>(k);
  }

  void advance_nulls(std::uint64_t count) {
    interactions_ += count;
    meetings_ += count;
  }

  void apply_active_meeting(std::uint64_t active) {
    std::uint64_t target = rng_.below(active);
    std::size_t slot = 0;
    for (;; ++slot) {
      if (target < weights_[slot]) break;
      target -= weights_[slot];
    }
    const pp::State q = populated_[slot];
    const std::uint64_t cq = counts_[q];
    pp::State r = q;
    for (pp::State partner : index_.partners_of(q)) {
      const std::uint64_t weight =
          cq * (counts_[partner] - (partner == q ? 1 : 0));
      if (target < weight) {
        r = partner;
        break;
      }
      target -= weight;
    }
    fire(q, r);
  }

  bool step_meeting() {
    ++interactions_;
    ++meetings_;
    const std::uint64_t m = counts_.total();
    if (m < 2) return false;
    std::uint64_t i = rng_.below(m);
    std::size_t slot = 0;
    while (i >= counts_[populated_[slot]]) i -= counts_[populated_[slot++]];
    const pp::State q = populated_[slot];
    std::uint64_t j = rng_.below(m - 1);
    pp::State r = 0;
    for (slot = 0;; ++slot) {
      const pp::State candidate = populated_[slot];
      const std::uint64_t c = counts_[candidate] - (candidate == q ? 1 : 0);
      if (j < c) {
        r = candidate;
        break;
      }
      j -= c;
    }
    if (protocol_->transitions_for(q, r).empty()) return false;
    fire(q, r);
    return true;
  }

  void fire(pp::State q, pp::State r) {
    const auto candidates = protocol_->transitions_for(q, r);
    ++firings_;
    const std::uint32_t pick =
        candidates.size() == 1 ? candidates[0]
                               : candidates[rng_.below(candidates.size())];
    const pp::Transition& t = protocol_->transitions()[pick];
    if (t.is_silent()) return;
    if (t.q != t.q2) {
      change_count(t.q, -1);
      change_count(t.q2, +1);
    }
    if (t.r != t.r2) {
      change_count(t.r, -1);
      change_count(t.r2, +1);
    }
  }

  void change_count(pp::State state, std::int64_t delta) {
    if (delta > 0)
      counts_.add(state, static_cast<std::uint32_t>(delta));
    else
      counts_.remove(state, static_cast<std::uint32_t>(-delta));
    const auto shift = static_cast<std::uint64_t>(delta);
    if (protocol_->is_accepting(state)) accepting_ += shift;
    for (pp::State p : index_.initiators_meeting(state)) rout_[p] += shift;
    if (counts_[state] == 0) {
      const std::uint32_t hole = position_[state];
      const pp::State moved = populated_.back();
      populated_[hole] = moved;
      position_[moved] = hole;
      populated_.pop_back();
      position_[state] = kNone;
    } else if (position_[state] == kNone) {
      position_[state] = static_cast<std::uint32_t>(populated_.size());
      populated_.push_back(state);
    }
  }

  const pp::Protocol* protocol_;
  PairIndex index_;
  bool null_skip_;
  pp::Config counts_;
  std::vector<std::uint64_t> rout_;
  std::vector<std::uint32_t> position_;
  std::vector<pp::State> populated_;
  std::vector<std::uint64_t> weights_;
  std::uint64_t accepting_ = 0;
  std::uint64_t interactions_ = 0;
  std::uint64_t meetings_ = 0;
  std::uint64_t firings_ = 0;
  support::Rng rng_;
};

// A 40-state "carousel" (every meeting advances the responder one state):
// all 1600 ordered pairs are active and the populated list fluctuates
// around 40 slots — past kLinearSlots — so the engine's wide-population
// counting and swap-remove surgery all run, not just the small-population
// paths.
pp::Protocol make_carousel_protocol(std::uint32_t n) {
  pp::Protocol protocol;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    protocol.add_state(name);
  }
  protocol.mark_accepting(0);
  for (pp::State q = 0; q < n; ++q)
    for (pp::State r = 0; r < n; ++r)
      protocol.add_transition(q, r, q, (r + 1) % n);
  protocol.finalize();
  return protocol;
}

/// Number of states holding at least one agent — the engine's populated
/// list length.
std::size_t populated_states(const pp::Config& config) {
  return static_cast<std::size_t>(
      std::count_if(config.counts().begin(), config.counts().end(),
                    [](std::uint32_t c) { return c != 0; }));
}

/// Ring protocol over `n` states: (i, i) -> (i, i+1 mod n). From a uniform
/// start every state is populated. At 600 states the compiler picks the
/// perfect-hash pair lookup over the dense table; past
/// CompiledProtocol::kBitsetStates it builds no pair bitsets, so the count
/// engine runs its adjacency-list fallback. With `hub`, state 0 also
/// pushes every state from 2 on one step round the ring, (0, r) -> (0,
/// r+1 mod n): state 0 never empties, so agents keep moving, states empty
/// and fill for as long as the run lasts, and state 0's partner row is
/// longer than any sparse populated list yet misses state 1, which the
/// hub's own (0, 0) meetings keep populating.
pp::Protocol make_ring(std::uint32_t n, bool hub = false) {
  pp::Protocol protocol;
  for (std::uint32_t i = 0; i < n; ++i)
    protocol.add_state("s" + std::to_string(i));
  for (std::uint32_t i = 0; i < n; ++i) {
    protocol.mark_input(i);
    if (i % 2 == 0) protocol.mark_accepting(i);
    protocol.add_transition(i, i, i, (i + 1) % n);
    if (hub && i >= 2) protocol.add_transition(0, i, 0, (i + 1) % n);
  }
  protocol.finalize();
  return protocol;
}

/// Three agents on the hub and one on every `gap`-th state: with a gap
/// wider than a 64-state bitset word, whole words empty and fill as the
/// hub pushes agents round the ring.
pp::Config sparse_hub_initial(const pp::Protocol& ring, std::uint32_t gap) {
  pp::Config initial(ring.num_states());
  initial.add(0, 3);
  for (pp::State q = gap; q < ring.num_states(); q += gap) initial.add(q, 1);
  return initial;
}

pp::Config uniform_initial(const pp::Protocol& protocol, std::uint32_t per) {
  pp::Config config(protocol.num_states());
  for (pp::State q = 0; q < protocol.num_states(); ++q) config.add(q, per);
  return config;
}

/// (a, b) has only the identity transition, (b, a) a real one: the
/// silent-only meeting must be null — no firing, no candidate draw.
pp::Protocol make_silent_pair_protocol() {
  pp::Protocol protocol;
  const pp::State a = protocol.add_state("a");
  const pp::State b = protocol.add_state("b");
  protocol.mark_input(a);
  protocol.mark_input(b);
  protocol.mark_accepting(a);
  protocol.add_transition(a, b, a, b);  // silent
  protocol.add_transition(b, a, a, a);
  protocol.finalize();
  return protocol;
}

/// A 120-state carousel with three agents on each of states 0..59: the
/// populated list starts at 60 slots and spreads past 64, so a run
/// populates states in both of the protocol's bitset words.
pp::Config spreading_carousel_initial(const pp::Protocol& carousel) {
  pp::Config initial(carousel.num_states());
  for (pp::State q = 0; q < 60; ++q) initial.add(q, 3);
  return initial;
}

TEST(PairIndex, MarksExactlyTheNonSilentPairs) {
  const pp::Protocol majority = baselines::make_majority();
  const PairIndex index(majority);
  const pp::State big_a = majority.state("A");
  const pp::State big_b = majority.state("B");
  const pp::State small_a = majority.state("a");
  const pp::State small_b = majority.state("b");
  EXPECT_EQ(index.num_active_pairs(), 4u);
  EXPECT_EQ(index.partners_of(big_a).size(), 2u);  // B and b
  EXPECT_EQ(index.partners_of(big_b).size(), 1u);  // a
  EXPECT_EQ(index.partners_of(small_a).size(), 1u);  // b
  EXPECT_EQ(index.partners_of(small_b).size(), 0u);
  EXPECT_EQ(index.initiators_meeting(small_b).size(), 2u);  // A and a
  for (pp::State q : {big_a, big_b, small_a, small_b})
    EXPECT_FALSE(index.self_active(q));
}

TEST(PairIndex, AllSilentPairsAreNull) {
  pp::Protocol protocol;
  const pp::State x = protocol.add_state("x");
  const pp::State y = protocol.add_state("y");
  protocol.mark_accepting(x);
  protocol.add_transition(x, y, x, y);  // silent: cannot change anything
  protocol.finalize();
  const PairIndex index(protocol);
  EXPECT_EQ(index.num_active_pairs(), 0u);
}

TEST(CountSimulator, ConservesCountsExactly) {
  const pp::Protocol majority = baselines::make_majority();
  for (const bool null_skip : {false, true}) {
    CountSimOptions options;
    options.null_skip = null_skip;
    CountSimulator sim(majority, baselines::majority_initial(majority, 50, 50),
                       17, options);
    for (int step = 0; step < 20'000 && !sim.frozen(); ++step) {
      sim.step();
      if (step % 1'000 != 0) continue;
      EXPECT_EQ(sim.population(), 100u);
      std::uint64_t total = 0;
      for (std::uint32_t c : sim.config().counts()) total += c;
      EXPECT_EQ(total, 100u);
      EXPECT_EQ(sim.accepting_agents(),
                sim.config().accepting_count(majority));
    }
    EXPECT_EQ(sim.metrics().meetings, sim.interactions());
    EXPECT_LE(sim.metrics().firings, sim.metrics().meetings);
  }
}

TEST(CountSimulator, MatchesPerAgentDistribution) {
  const pp::Protocol opinion = make_opinion_protocol();
  const pp::Config initial = opinion_initial(opinion, 3, 3);
  pp::SimulationOptions options;
  options.stable_window = 200;
  options.max_interactions = 1'000'000;
  const std::uint64_t trials = 600;

  const SampleStats per_agent =
      sample_runs(trials, 1, options, [&](std::uint64_t seed) {
        return pp::Simulator(opinion, initial, seed);
      });
  const SampleStats count_skip =
      sample_runs(trials, 2, options, [&](std::uint64_t seed) {
        return CountSimulator(opinion, initial, seed);
      });

  // Every run of this protocol absorbs.
  EXPECT_EQ(per_agent.stabilised, trials);
  EXPECT_EQ(count_skip.stabilised, trials);

  // Acceptance fractions agree within 4 binomial standard errors of the
  // symmetric p = 1/2 (se = sqrt(2 * 0.25 / 600) ≈ 0.029).
  const double accept_a =
      static_cast<double>(per_agent.accepted) / static_cast<double>(trials);
  const double accept_b =
      static_cast<double>(count_skip.accepted) / static_cast<double>(trials);
  EXPECT_NEAR(accept_a, accept_b, 0.115);

  // Interactions-to-stabilisation distributions agree: chi-squared over
  // quantile bins, df <= 5, generous critical value (p < 0.001 is ~20.5).
  EXPECT_LT(chi_squared(per_agent.interactions, count_skip.interactions),
            25.0);
}

TEST(CountSimulator, NullSkipMatchesPlainCountStepping) {
  const pp::Protocol opinion = make_opinion_protocol();
  const pp::Config initial = opinion_initial(opinion, 4, 4);
  pp::SimulationOptions options;
  options.stable_window = 300;
  options.max_interactions = 1'000'000;
  const std::uint64_t trials = 400;

  CountSimOptions no_skip;
  no_skip.null_skip = false;
  const SampleStats plain =
      sample_runs(trials, 5, options, [&](std::uint64_t seed) {
        return CountSimulator(opinion, initial, seed, no_skip);
      });
  const SampleStats skip =
      sample_runs(trials, 6, options, [&](std::uint64_t seed) {
        return CountSimulator(opinion, initial, seed);
      });
  EXPECT_EQ(plain.stabilised, trials);
  EXPECT_EQ(skip.stabilised, trials);
  EXPECT_LT(chi_squared(plain.interactions, skip.interactions), 25.0);
}

TEST(CountSimulator, MatchesPerAgentOnOneSidedConvergence) {
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const pp::Config initial = baselines::flock_initial(flock, 8);
  pp::SimulationOptions options;
  options.stable_window = 500;
  options.max_interactions = 1'000'000;
  const std::uint64_t trials = 400;

  const SampleStats per_agent =
      sample_runs(trials, 3, options, [&](std::uint64_t seed) {
        return pp::Simulator(flock, initial, seed);
      });
  const SampleStats count_skip =
      sample_runs(trials, 4, options, [&](std::uint64_t seed) {
        return CountSimulator(flock, initial, seed);
      });
  EXPECT_EQ(per_agent.stabilised, trials);
  EXPECT_EQ(per_agent.accepted, trials);  // 8 >= 3
  EXPECT_EQ(count_skip.accepted, trials);
  EXPECT_LT(chi_squared(per_agent.interactions, count_skip.interactions),
            25.0);
}

TEST(CountSimulator, FrozenConsensusStabilises) {
  // No transitions at all: the initial consensus is permanent and must be
  // reported after exactly stable_window meetings, from both engines.
  pp::Protocol protocol;
  const pp::State g = protocol.add_state("g");
  protocol.mark_input(g);
  protocol.mark_accepting(g);
  protocol.finalize();
  const pp::Config initial = pp::Config::single(1, g, 5);
  pp::SimulationOptions options;
  options.stable_window = 1'000;
  options.max_interactions = 50'000;

  CountSimulator count(protocol, initial, 9);
  EXPECT_TRUE(count.frozen());
  const pp::SimulationResult from_count = count.run_until_stable(options);
  pp::Simulator per_agent(protocol, initial, 9);
  const pp::SimulationResult from_agents =
      per_agent.run_until_stable(options);

  for (const pp::SimulationResult& result : {from_count, from_agents}) {
    EXPECT_TRUE(result.stabilised);
    EXPECT_TRUE(result.output);
    EXPECT_EQ(result.consensus_since, 0u);  // held from the very start
    EXPECT_EQ(result.interactions, 1'000u);
  }
}

TEST(CountSimulator, FrozenWithoutConsensusExhaustsBudget) {
  pp::Protocol protocol;
  const pp::State g = protocol.add_state("g");
  const pp::State h = protocol.add_state("h");
  protocol.mark_accepting(g);
  protocol.finalize();
  pp::Config initial(2);
  initial.add(g, 1);
  initial.add(h, 1);
  pp::SimulationOptions options;
  options.stable_window = 100;
  options.max_interactions = 5'000;

  CountSimulator sim(protocol, initial, 11);
  const pp::SimulationResult result = sim.run_until_stable(options);
  EXPECT_FALSE(result.stabilised);
  EXPECT_EQ(result.interactions, 5'000u);
  EXPECT_EQ(result.consensus_since, pp::SimulationResult::kNeverStabilised);
}

TEST(Simulator, ConsensusSinceSentinelIsUnambiguous) {
  const pp::Protocol majority = baselines::make_majority();
  pp::SimulationOptions options;
  options.stable_window = 100;
  options.max_interactions = 0;  // no budget: cannot stabilise
  pp::Simulator sim(majority, baselines::majority_initial(majority, 3, 3), 1);
  const pp::SimulationResult result = sim.run_until_stable(options);
  EXPECT_FALSE(result.stabilised);
  EXPECT_EQ(result.consensus_since, pp::SimulationResult::kNeverStabilised);
  EXPECT_EQ(pp::SimulationResult{}.consensus_since,
            pp::SimulationResult::kNeverStabilised);
}

TEST(CountSimulator, RemoveRandomAgentRespectsEligibility) {
  const pp::Protocol majority = baselines::make_majority();
  CountSimulator sim(majority, baselines::majority_initial(majority, 5, 5),
                     23);
  const pp::State big_a = majority.state("A");
  const auto removed = sim.remove_random_agent(
      [&](pp::State q) { return q == big_a; });
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, big_a);
  EXPECT_EQ(sim.population(), 9u);
  EXPECT_EQ(sim.config()[big_a], 4u);
  // Nobody is in state "b"; requesting one must fail without side effects.
  const pp::State small_b = majority.state("b");
  EXPECT_FALSE(sim.remove_random_agent(
                      [&](pp::State q) { return q == small_b; })
                   .has_value());
  EXPECT_EQ(sim.population(), 9u);
}

TEST(Ensemble, SeedDerivationIsStableAndCollisionFree) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t trial = 0; trial < 1'000; ++trial)
    seeds.insert(derive_trial_seed(42, trial));
  EXPECT_EQ(seeds.size(), 1'000u);
  // Pinned: the scheme (SplitMix64 stream) is part of the repository's
  // reproducibility contract — changing it silently would invalidate every
  // recorded ensemble experiment.
  EXPECT_EQ(derive_trial_seed(42, 0), derive_trial_seed(42, 0));
  EXPECT_NE(derive_trial_seed(42, 0), derive_trial_seed(43, 0));
}

TEST(Ensemble, StatsAreIndependentOfThreadCount) {
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const pp::Config initial = baselines::flock_initial(flock, 10);
  EnsembleOptions options;
  options.trials = 24;
  options.master_seed = 7;
  options.sim.stable_window = 1'000;
  options.sim.max_interactions = 1'000'000;

  std::vector<EnsembleStats> runs;
  for (const unsigned threads : {1u, 4u, 3u, 8u}) {
    options.threads = threads;
    runs.push_back(run_ensemble(flock, initial, options));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].trials, runs[0].trials);
    EXPECT_EQ(runs[i].stabilised, runs[0].stabilised);
    EXPECT_EQ(runs[i].accepted, runs[0].accepted);
    EXPECT_EQ(runs[i].interactions.p50, runs[0].interactions.p50);
    EXPECT_EQ(runs[i].interactions.p90, runs[0].interactions.p90);
    EXPECT_EQ(runs[i].interactions.max, runs[0].interactions.max);
    EXPECT_EQ(runs[i].parallel_time.p50, runs[0].parallel_time.p50);
    EXPECT_EQ(runs[i].parallel_time.max, runs[0].parallel_time.max);
    EXPECT_EQ(runs[i].totals.meetings, runs[0].totals.meetings);
    EXPECT_EQ(runs[i].totals.firings, runs[0].totals.firings);
    EXPECT_EQ(runs[i].totals.null_skip_batches,
              runs[0].totals.null_skip_batches);
    EXPECT_EQ(runs[i].totals.skipped_meetings,
              runs[0].totals.skipped_meetings);
    EXPECT_EQ(runs[i].totals.consensus_flips,
              runs[0].totals.consensus_flips);
    // The incremental-maintenance counters ride the same trajectories, so
    // they must be just as thread-count-deterministic as the physics.
    EXPECT_EQ(runs[i].totals.weight_updates, runs[0].totals.weight_updates);
    EXPECT_EQ(runs[i].totals.tree_descents, runs[0].totals.tree_descents);
  }
  EXPECT_GT(runs[0].totals.tree_descents, 0u);
}

TEST(Ensemble, EnginesAgreeOnVerdicts) {
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const pp::Config initial = baselines::flock_initial(flock, 10);
  EnsembleOptions options;
  options.trials = 8;
  options.threads = 2;
  options.master_seed = 3;
  options.sim.stable_window = 1'000;
  options.sim.max_interactions = 1'000'000;
  for (const EngineKind engine :
       {EngineKind::kPerAgent, EngineKind::kCount,
        EngineKind::kCountNullSkip}) {
    options.engine = engine;
    const EnsembleStats stats = run_ensemble(flock, initial, options);
    EXPECT_EQ(stats.stabilised, options.trials) << to_string(engine);
    EXPECT_EQ(stats.accepted, options.trials) << to_string(engine);
    EXPECT_GT(stats.totals.meetings, 0u) << to_string(engine);
  }
}

TEST(Ensemble, FleetRethrowsBodyExceptions) {
  EXPECT_THROW(
      run_trial_fleet(8, 4, 1,
                      [](std::uint64_t trial, std::uint64_t) -> TrialResult {
                        if (trial == 5) throw std::runtime_error("boom");
                        return {};
                      }),
      std::runtime_error);
}

TEST(CountSimulator, BitIdenticalToLinearScanOracle) {
  // The tentpole contract: same seed, same trajectory, bit for bit — the
  // flat-weight/bitset machinery may only change how fast the next firing
  // is found, never which firing it is. The protocols cover the regimes:
  // tiny two-state, the 4-state majority (a small and a 980-agent
  // population), flock k = 3, the converted Czerner n = 1 (≈880 states,
  // ~24 populated, heavy populate/depopulate churn) at +400, +6 and |F| + 2
  // agents (the certify statement, where almost every firing populates or
  // depopulates a state), a 40-state carousel that pushes past
  // kLinearSlots, a 120-state carousel whose populated list spreads from
  // 60 to past 64 states, rings of 100 and 600 states with every state
  // populated (the 600-state ring on the perfect-hash pair lookup), a
  // 5,000-state hub ring whose 79-word bitsets need both summary words,
  // rings past kBitsetStates that run the bitset-less fallback (the plain
  // ring walks partner rows; the hub ring's hub walks the sorted populated
  // list), and a protocol with a silent-only pair.
  const pp::Protocol opinion = make_opinion_protocol();
  const pp::Protocol majority = baselines::make_majority();
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const pp::Protocol carousel = make_carousel_protocol(40);
  pp::Config carousel_initial(carousel.num_states());
  for (pp::State q = 0; q < 40; ++q) carousel_initial.add(q, 3);
  const pp::Protocol wide_carousel = make_carousel_protocol(120);
  const pp::Protocol small_ring = make_ring(100);
  const pp::Protocol big_ring = make_ring(600);
  ASSERT_TRUE(big_ring.compiled().raw().dense.empty());
  const pp::Protocol hub_ring = make_ring(5'000, true);
  ASSERT_GT(hub_ring.compiled().bitset_words(), 64u);
  constexpr auto kPastBitsets =
      static_cast<std::uint32_t>(PairIndex::kBitsetStates) + 8;
  const pp::Protocol huge_ring = make_ring(kPastBitsets);
  const pp::Protocol huge_hub_ring = make_ring(kPastBitsets, true);
  ASSERT_EQ(huge_ring.compiled().bitset_words(), 0u);
  ASSERT_EQ(huge_hub_ring.compiled().bitset_words(), 0u);
  const pp::Protocol silent_pair = make_silent_pair_protocol();
  pp::Config silent_initial(silent_pair.num_states());
  silent_initial.add(silent_pair.state("a"), 5);
  silent_initial.add(silent_pair.state("b"), 5);

  struct Case {
    const pp::Protocol* protocol;
    pp::Config initial;
    int steps;
    bool spreads_past_64;
  };
  const Case cases[] = {
      {&opinion, opinion_initial(opinion, 5, 4), 4'000, false},
      {&majority, baselines::majority_initial(majority, 23, 20), 4'000, false},
      {&majority, baselines::majority_initial(majority, 500, 480), 50'000,
       false},
      {&flock, baselines::flock_initial(flock, 60), 50'000, false},
      {&conv.protocol, conv.initial_config(conv.num_pointers + 400), 12'000,
       false},
      {&conv.protocol, conv.initial_config(conv.num_pointers + 6), 50'000,
       false},
      {&conv.protocol, conv.initial_config(conv.num_pointers + 2), 12'000,
       false},
      {&carousel, carousel_initial, 12'000, false},
      {&wide_carousel, spreading_carousel_initial(wide_carousel), 3'000, true},
      {&small_ring, uniform_initial(small_ring, 3), 30'000, false},
      {&big_ring, uniform_initial(big_ring, 2), 10'000, false},
      {&hub_ring, sparse_hub_initial(hub_ring, 97), 20'000, false},
      {&huge_ring, uniform_initial(huge_ring, 2), 4'000, false},
      {&huge_hub_ring, sparse_hub_initial(huge_hub_ring, 97), 20'000, false},
      {&silent_pair, silent_initial, 2'000, false},
  };
  for (const Case& test_case : cases) {
    for (const bool null_skip : {true, false}) {
      for (const std::uint64_t seed : {1ull, 29ull}) {
        CountSimOptions options;
        options.null_skip = null_skip;
        CountSimulator sim(*test_case.protocol, test_case.initial, seed,
                           options);
        LinearScanOracle oracle(*test_case.protocol, test_case.initial, seed,
                                null_skip);
        if (test_case.spreads_past_64) {
          ASSERT_LE(populated_states(sim.config()), 64u);
        }
        std::size_t widest = 0;
        const auto where = [&](int step) {
          return "states=" + std::to_string(test_case.protocol->num_states()) +
                 " step " + std::to_string(step) +
                 " skip=" + std::to_string(null_skip) +
                 " seed=" + std::to_string(seed);
        };
        for (int step = 0; step < test_case.steps; ++step) {
          sim.step();
          oracle.step();
          ASSERT_EQ(sim.interactions(), oracle.interactions()) << where(step);
          ASSERT_EQ(sim.metrics().firings, oracle.firings()) << where(step);
          if (test_case.spreads_past_64)
            widest = std::max(widest, populated_states(sim.config()));
          if (step % 64 == 0 || step + 1 == test_case.steps) {
            ASSERT_EQ(sim.config(), oracle.config()) << where(step);
          }
        }
        ASSERT_EQ(sim.metrics().meetings, oracle.meetings());
        if (test_case.spreads_past_64) {
          EXPECT_GT(widest, 64u) << "the run never spread past 64 states";
        }
      }
    }
  }
}

TEST(CountSimulator, RunUntilStableMatchesOracle) {
  // consensus_since, stabilised, output and the final interaction count
  // all come out of the same trajectory, so they must match the oracle's
  // run loop exactly — including the closed-form window completions.
  const pp::Protocol opinion = make_opinion_protocol();
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  struct Case {
    const pp::Protocol* protocol;
    pp::Config initial;
  };
  const Case cases[] = {
      {&opinion, opinion_initial(opinion, 4, 4)},
      {&flock, baselines::flock_initial(flock, 9)},
  };
  pp::SimulationOptions options;
  options.stable_window = 400;
  options.max_interactions = 1'000'000;
  for (const Case& test_case : cases) {
    for (const bool null_skip : {true, false}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        CountSimOptions sim_options;
        sim_options.null_skip = null_skip;
        CountSimulator sim(*test_case.protocol, test_case.initial, seed,
                           sim_options);
        LinearScanOracle oracle(*test_case.protocol, test_case.initial, seed,
                                null_skip);
        const pp::SimulationResult ours = sim.run_until_stable(options);
        const pp::SimulationResult reference =
            oracle.run_until_stable(options);
        ASSERT_EQ(ours.stabilised, reference.stabilised) << seed;
        ASSERT_EQ(ours.output, reference.output) << seed;
        ASSERT_EQ(ours.interactions, reference.interactions) << seed;
        ASSERT_EQ(ours.consensus_since, reference.consensus_since) << seed;
        ASSERT_EQ(sim.config(), oracle.config()) << seed;
      }
    }
  }
}

TEST(CountSimulator, TinyPopulationsFreezeInsteadOfDividing) {
  // Regression for the m <= 1 hazard: sample_null_run's geometric law
  // divides by m·(m−1) and the meeting sampler draws below(m−1); empty and
  // single-agent configurations must freeze immediately instead.
  const pp::Protocol opinion = make_opinion_protocol();
  for (const bool null_skip : {true, false}) {
    CountSimOptions options;
    options.null_skip = null_skip;
    pp::SimulationOptions run;
    run.stable_window = 50;
    run.max_interactions = 1'000;

    pp::Config lone(opinion.num_states());
    lone.add(opinion.state("T"), 1);
    CountSimulator single(opinion, lone, 3, options);
    EXPECT_TRUE(single.frozen());
    EXPECT_FALSE(single.step());
    EXPECT_EQ(single.interactions(), 1u);
    const pp::SimulationResult result = single.run_until_stable(run);
    EXPECT_TRUE(result.stabilised);
    EXPECT_TRUE(result.output);  // the lone agent accepts
    // The manual step above burnt one interaction; the window starts there.
    EXPECT_EQ(result.consensus_since, 1u);
    EXPECT_EQ(single.config()[opinion.state("T")], 1u);

    pp::Config empty(opinion.num_states());
    CountSimulator none(opinion, empty, 3, options);
    EXPECT_TRUE(none.frozen());
    EXPECT_FALSE(none.step());
    const pp::SimulationResult vacuous = none.run_until_stable(run);
    EXPECT_TRUE(vacuous.stabilised);  // vacuous consensus, documented
  }
}

TEST(CountSimulator, BudgetBoundaryOnFrozenConsensus) {
  // Zero active weight with a held consensus: the closed-form fast-forward
  // must stabilise exactly when the window fits the budget and exhaust the
  // budget (without stabilising) when it misses by one.
  pp::Protocol protocol;
  const pp::State g = protocol.add_state("g");
  protocol.mark_input(g);
  protocol.mark_accepting(g);
  protocol.finalize();
  const pp::Config initial = pp::Config::single(1, g, 4);
  pp::SimulationOptions exact;
  exact.stable_window = 1'000;
  exact.max_interactions = 1'000;  // stable_at == budget: just fits
  pp::SimulationOptions short_by_one;
  short_by_one.stable_window = 1'000;
  short_by_one.max_interactions = 999;

  CountSimulator fits(protocol, initial, 5);
  const pp::SimulationResult on_time = fits.run_until_stable(exact);
  EXPECT_TRUE(on_time.stabilised);
  EXPECT_EQ(on_time.interactions, 1'000u);
  EXPECT_EQ(on_time.consensus_since, 0u);

  CountSimulator misses(protocol, initial, 5);
  const pp::SimulationResult late = misses.run_until_stable(short_by_one);
  EXPECT_FALSE(late.stabilised);
  EXPECT_EQ(late.interactions, 999u);
  EXPECT_EQ(late.consensus_since, pp::SimulationResult::kNeverStabilised);
}

TEST(CountSimulator, ResetMatchesFreshConstruction) {
  // run_trial_fleet reuses one simulator per worker; reset(Config, seed)
  // must therefore be indistinguishable from constructing fresh — same
  // trajectory, same metrics — even after a prior run left the simulator
  // in an arbitrary state.
  const pp::Protocol majority = baselines::make_majority();
  const pp::Config initial = baselines::majority_initial(majority, 13, 11);
  for (const bool null_skip : {true, false}) {
    CountSimOptions options;
    options.null_skip = null_skip;
    CountSimulator fresh(majority, initial, 77, options);
    CountSimulator reused(
        majority, baselines::majority_initial(majority, 40, 2), 5, options);
    for (int step = 0; step < 500; ++step) reused.step();  // arbitrary state
    reused.reset(initial, 77);
    EXPECT_EQ(reused.interactions(), 0u);
    EXPECT_EQ(reused.metrics().firings, 0u);
    for (int step = 0; step < 2'000; ++step) {
      fresh.step();
      reused.step();
    }
    EXPECT_EQ(fresh.config(), reused.config());
    EXPECT_EQ(fresh.interactions(), reused.interactions());
    EXPECT_EQ(fresh.metrics().firings, reused.metrics().firings);
    EXPECT_EQ(fresh.metrics().meetings, reused.metrics().meetings);
    EXPECT_EQ(fresh.metrics().weight_updates, reused.metrics().weight_updates);
    EXPECT_EQ(fresh.metrics().tree_descents, reused.metrics().tree_descents);
  }
  // A run whose populated list spread past 64 states leaves bits in both
  // words of the populated bitset; reset must clear every one of them.
  const pp::Protocol carousel = make_carousel_protocol(120);
  pp::Config narrow(carousel.num_states());
  for (pp::State q = 0; q < 10; ++q) narrow.add(q, 3);
  CountSimulator fresh(carousel, narrow, 77);
  CountSimulator reused(carousel, spreading_carousel_initial(carousel), 5);
  int steps = 0;
  while (populated_states(reused.config()) <= 64 && steps < 10'000) {
    reused.step();
    ++steps;
  }
  ASSERT_GT(populated_states(reused.config()), 64u);
  reused.reset(narrow, 77);
  for (int step = 0; step < 2'000; ++step) {
    fresh.step();
    reused.step();
  }
  EXPECT_EQ(fresh.config(), reused.config());
  EXPECT_EQ(fresh.interactions(), reused.interactions());
  EXPECT_EQ(fresh.metrics().firings, reused.metrics().firings);
  EXPECT_EQ(fresh.metrics().weight_updates, reused.metrics().weight_updates);
  EXPECT_EQ(fresh.metrics().tree_descents, reused.metrics().tree_descents);

  // Past kBitsetStates the simulator keeps a sorted populated list
  // instead; reset must empty it too.
  const pp::Protocol hub_ring =
      make_ring(static_cast<std::uint32_t>(PairIndex::kBitsetStates) + 8, true);
  const pp::Config sparse = sparse_hub_initial(hub_ring, 97);
  CountSimulator fresh_hub(hub_ring, sparse, 77);
  CountSimulator reused_hub(hub_ring, sparse_hub_initial(hub_ring, 61), 5);
  for (int step = 0; step < 2'000; ++step) reused_hub.step();
  reused_hub.reset(sparse, 77);
  for (int step = 0; step < 2'000; ++step) {
    fresh_hub.step();
    reused_hub.step();
  }
  EXPECT_EQ(fresh_hub.config(), reused_hub.config());
  EXPECT_EQ(fresh_hub.interactions(), reused_hub.interactions());
  EXPECT_EQ(fresh_hub.metrics().firings, reused_hub.metrics().firings);
  EXPECT_EQ(fresh_hub.metrics().weight_updates,
            reused_hub.metrics().weight_updates);
}

TEST(CountSimulator, MetricsObserveTheIncrementalPath) {
  // The incremental machinery is observable: every firing in null-skip
  // mode selects through one weight descent, and each fired transition
  // updates at least the slots it touched.
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  CountSimulator sim(conv.protocol,
                     conv.initial_config(conv.num_pointers + 50), 13);
  for (int step = 0; step < 5'000; ++step) sim.step();
  EXPECT_EQ(sim.metrics().tree_descents, sim.metrics().firings);
  EXPECT_GT(sim.metrics().weight_updates, sim.metrics().firings);
}

TEST(CountSimulator, CzernerPipelineSmoke) {
  // The engine's target workload: the converted n=1 construction, where
  // almost every meeting is null. Checks invariants and that null-skip
  // actually skips.
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint64_t m = conv.num_pointers + 6;
  CountSimulator sim(conv.protocol, conv.initial_config(m), 31);
  for (int firing = 0; firing < 20'000 && !sim.frozen(); ++firing)
    sim.step();
  EXPECT_EQ(sim.population(), m);
  std::uint64_t total = 0;
  for (std::uint32_t c : sim.config().counts()) total += c;
  EXPECT_EQ(total, m);
  EXPECT_EQ(sim.accepting_agents(),
            sim.config().accepting_count(conv.protocol));
  EXPECT_EQ(sim.metrics().meetings, sim.interactions());
  EXPECT_GT(sim.metrics().skipped_meetings, 0u);
  EXPECT_GT(sim.metrics().null_skip_batches, 0u);
}

// Pinned oracle for RunMetrics accumulation semantics (S24): the obs
// registry mirrors these counters for live observation, so the record's
// own merge/render behaviour must stay exactly what aggregate() and
// certify_trials() fold on.

TEST(RunMetrics, MergeSumsEveryFieldIncludingWallTime) {
  RunMetrics a;
  a.meetings = 10;
  a.firings = 7;
  a.null_skip_batches = 3;
  a.skipped_meetings = 5;
  a.consensus_flips = 2;
  a.weight_updates = 11;
  a.tree_descents = 13;
  a.wall_seconds = 0.25;
  RunMetrics b;
  b.meetings = 100;
  b.firings = 70;
  b.null_skip_batches = 30;
  b.skipped_meetings = 50;
  b.consensus_flips = 20;
  b.weight_updates = 110;
  b.tree_descents = 130;
  b.wall_seconds = 0.5;

  a.merge(b);
  EXPECT_EQ(a.meetings, 110u);
  EXPECT_EQ(a.firings, 77u);
  EXPECT_EQ(a.null_skip_batches, 33u);
  EXPECT_EQ(a.skipped_meetings, 55u);
  EXPECT_EQ(a.consensus_flips, 22u);
  EXPECT_EQ(a.weight_updates, 121u);
  EXPECT_EQ(a.tree_descents, 143u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.75);

  // Merging a default-constructed record is the identity.
  RunMetrics before = a;
  a.merge(RunMetrics{});
  EXPECT_EQ(a.meetings, before.meetings);
  EXPECT_DOUBLE_EQ(a.wall_seconds, before.wall_seconds);
}

TEST(RunMetrics, MergeIsAssociativeOnCounters) {
  RunMetrics x, y, z;
  x.meetings = 1;
  y.meetings = 2;
  z.meetings = 4;
  x.firings = 8;
  y.firings = 16;
  z.firings = 32;

  RunMetrics left = x;
  left.merge(y);
  left.merge(z);
  RunMetrics yz = y;
  yz.merge(z);
  RunMetrics right = x;
  right.merge(yz);
  EXPECT_EQ(left.meetings, right.meetings);
  EXPECT_EQ(left.firings, right.firings);
  EXPECT_EQ(left.meetings, 7u);
  EXPECT_EQ(left.firings, 56u);
}

TEST(RunMetrics, ToStringRendersEveryField) {
  RunMetrics m;
  m.meetings = 1;
  m.firings = 2;
  m.null_skip_batches = 3;
  m.skipped_meetings = 4;
  m.consensus_flips = 5;
  m.weight_updates = 6;
  m.tree_descents = 7;
  m.wall_seconds = 1.5;
  EXPECT_EQ(m.to_string(),
            "meetings=1 firings=2 null_skip_batches=3 skipped=4 flips=5 "
            "weight_updates=6 tree_descents=7 wall=1.500s");
}

TEST(RunMetrics, EffectiveRateGuardsDegenerateWallTimes) {
  RunMetrics m;
  m.meetings = 1000;
  m.wall_seconds = 0.0;
  EXPECT_EQ(m.effective_meetings_per_second(), 0.0);
  m.wall_seconds = 2.0;
  EXPECT_DOUBLE_EQ(m.effective_meetings_per_second(), 500.0);
  m.wall_seconds = -1.0;
  EXPECT_EQ(m.effective_meetings_per_second(), 0.0);
}

// ---------------------------------------------------------------------------
// Worker-pool lifecycle edges (S25 satellite): construction/destruction
// without work, heavy reuse, exception propagation from several workers at
// once, and resubmission after a failed round. Run under TSan in CI.

TEST(WorkerPool, ConstructDestroyWithoutWork) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    WorkerPool pool(threads);
    EXPECT_GE(pool.workers(), 1u);
  }
}

TEST(WorkerPool, ManySequentialRoundsReuseTheSameThreads) {
  WorkerPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 100; ++round)
    pool.parallel_for(64, [&](std::uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 6400u);
}

TEST(WorkerPool, FirstExceptionWinsWhenManyWorkersThrow) {
  WorkerPool pool(4);
  // Every index throws; the pool must drain (no hang, no worker stuck on
  // a dead round) and rethrow exactly one of them.
  try {
    pool.parallel_for(256, [](std::uint64_t i) {
      throw std::runtime_error("item " + std::to_string(i));
    });
    FAIL() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()).rfind("item ", 0), 0u);
  }
}

TEST(WorkerPool, ResubmitAfterAFailedRoundWorks) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::uint64_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  // The failed round must not poison the pool: a clean round right after
  // runs every index exactly once.
  std::vector<std::atomic<int>> hits(32);
  pool.parallel_for_workers(32, [&](unsigned worker, std::uint64_t i) {
    EXPECT_LT(worker, pool.workers());
    hits[i].fetch_add(1);
  });
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(Ensemble, FleetErrorNamesTheLowestFailingTrial) {
  try {
    run_trial_fleet(16, 4, 1,
                    [](std::uint64_t trial, std::uint64_t) -> TrialResult {
                      if (trial >= 6) throw std::runtime_error("boom");
                      return {};
                    });
    FAIL() << "fleet swallowed the exception";
  } catch (const std::runtime_error& error) {
    // Lowest failing index with the original message — never a silent
    // partial EnsembleStats, never an unrelated trial's index.
    const std::string what = error.what();
    EXPECT_NE(what.find("trial 6"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
  }
}

TEST(Ensemble, TrialRangeReproducesFleetSlices) {
  const auto body = [](unsigned, std::uint64_t trial,
                       std::uint64_t seed) -> TrialResult {
    TrialResult result;
    result.seed = seed;
    result.sim.interactions = trial * 1000 + seed % 997;
    result.metrics.meetings = seed % 31;
    return result;
  };
  const std::vector<TrialResult> fleet = run_trial_fleet(20, 2, 42, body);
  // Any partition into ranges reproduces the fleet results exactly —
  // the property the serve daemon's shard dispatch stands on.
  for (const auto& [first, count] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 20},
        {3, 5},
        {19, 1},
        {0, 1}}) {
    const std::vector<TrialResult> range =
        run_trial_range(first, count, 3, 42, body);
    ASSERT_EQ(range.size(), count);
    for (std::uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(range[i].seed, fleet[first + i].seed);
      EXPECT_EQ(range[i].sim.interactions, fleet[first + i].sim.interactions);
      EXPECT_EQ(range[i].metrics.meetings, fleet[first + i].metrics.meetings);
    }
  }
}

}  // namespace
}  // namespace ppde::engine
