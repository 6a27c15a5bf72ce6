// Tests for the bytecode execution core (DESIGN.md S26): lowering
// round-trips through raw()/adopt(), malformed tables are rejected, and —
// the load-bearing property — pp::Simulator stepping through the compiled
// cells produces bit-identical trajectories and metrics to the map
// interpreter kept here as its oracle. The count engine's oracle is
// test_engine's LinearScanOracle; the verifier's is test_verify's
// VerifierOracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
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
#include "isa/compiled.hpp"
#include "pp/simulator.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"
#include "support/rng.hpp"

namespace ppde {
namespace {

using isa::CompiledProtocol;

// ---------------------------------------------------------------------------
// Zoo.

pp::Protocol czerner_protocol(int n) {
  const auto lowered = compile::lower_program(czerner::build_construction(n).program);
  return compile::machine_to_protocol(lowered.machine).protocol;
}

/// Ring protocol over `n` states: (i, i) -> (i, i+1 mod n). With n large
/// enough the compiler picks the perfect-hash lookup over the dense table.
pp::Protocol make_ring(std::uint32_t n) {
  pp::Protocol protocol;
  for (std::uint32_t i = 0; i < n; ++i)
    protocol.add_state("s" + std::to_string(i));
  for (std::uint32_t i = 0; i < n; ++i) {
    protocol.mark_input(i);
    if (i % 2 == 0) protocol.mark_accepting(i);
    protocol.add_transition(i, i, i, (i + 1) % n);
  }
  protocol.finalize();
  return protocol;
}

// ---------------------------------------------------------------------------
// Lowering.

/// The compiled pair table must agree with the protocol's own transition
/// list: for every ordered state pair, entry_of resolves to exactly the
/// non-silent transitions of that pair, in declaration order.
void expect_table_matches_transitions(const pp::Protocol& protocol) {
  const CompiledProtocol& compiled = protocol.compiled();
  std::map<std::pair<pp::State, pp::State>, std::vector<std::uint32_t>> want;
  std::map<std::pair<pp::State, pp::State>, bool> silent;
  for (std::uint32_t i = 0; i < protocol.transitions().size(); ++i) {
    const pp::Transition& t = protocol.transitions()[i];
    if (t.q2 == t.q && t.r2 == t.r)
      silent[{t.q, t.r}] = true;
    else
      want[{t.q, t.r}].push_back(i);
  }
  for (pp::State q = 0; q < protocol.num_states(); ++q) {
    for (pp::State r = 0; r < protocol.num_states(); ++r) {
      const std::uint32_t entry = compiled.entry_of(q, r);
      const auto it = want.find({q, r});
      if (it == want.end()) {
        if (silent.count({q, r}))
          EXPECT_EQ(entry, CompiledProtocol::kSilentOnly);
        else
          EXPECT_EQ(entry, CompiledProtocol::kAbsent);
        continue;
      }
      ASSERT_LT(entry, CompiledProtocol::kSilentOnly);
      const auto candidates = compiled.candidates(entry);
      ASSERT_EQ(candidates.size(), it->second.size());
      const auto cells = compiled.cells(entry);
      ASSERT_EQ(cells.size(), it->second.size());
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        EXPECT_EQ(candidates[k], it->second[k]);
        const pp::Transition& t = protocol.transitions()[candidates[k]];
        // The cell's post-states reconstruct the transition regardless of
        // which opcode the classifier picked.
        std::uint32_t q2 = q, r2 = r;
        switch (cells[k].op()) {
          case isa::Op::kNop: break;
          case isa::Op::kWriteQ: q2 = cells[k].q2; break;
          case isa::Op::kWriteR: r2 = cells[k].r2; break;
          case isa::Op::kWriteBoth: q2 = cells[k].q2; r2 = cells[k].r2; break;
          case isa::Op::kSwap: q2 = r; r2 = q; break;
          default: FAIL() << "bad opcode";
        }
        EXPECT_EQ(q2, t.q2);
        EXPECT_EQ(r2, t.r2);
        const std::int32_t want_delta =
            (protocol.is_accepting(t.q2) ? 1 : 0) -
            (protocol.is_accepting(t.q) ? 1 : 0) +
            (protocol.is_accepting(t.r2) ? 1 : 0) -
            (protocol.is_accepting(t.r) ? 1 : 0);
        EXPECT_EQ(cells[k].accepting_delta(), want_delta);
      }
    }
  }
}

TEST(CompiledProtocol, TableMatchesTransitionList) {
  expect_table_matches_transitions(baselines::make_majority());
  expect_table_matches_transitions(baselines::make_flock_of_birds(3));
  expect_table_matches_transitions(czerner_protocol(1));
  expect_table_matches_transitions(make_ring(5));
}

TEST(CompiledProtocol, MarksExactlyTheNonSilentPairs) {
  const pp::Protocol majority = baselines::make_majority();
  const CompiledProtocol& compiled = majority.compiled();
  const pp::State big_a = majority.state("A");
  const pp::State big_b = majority.state("B");
  const pp::State small_a = majority.state("a");
  const pp::State small_b = majority.state("b");
  EXPECT_EQ(compiled.num_active_pairs(), 4u);
  EXPECT_EQ(compiled.partners_of(big_a).size(), 2u);  // B and b
  EXPECT_EQ(compiled.partners_of(big_b).size(), 1u);  // a
  EXPECT_EQ(compiled.partners_of(small_a).size(), 1u);  // b
  EXPECT_EQ(compiled.partners_of(small_b).size(), 0u);
  EXPECT_EQ(compiled.initiators_meeting(small_b).size(), 2u);  // A and a
  for (pp::State q : {big_a, big_b, small_a, small_b})
    EXPECT_FALSE(compiled.self_active(q));
}

TEST(CompiledProtocol, AllSilentPairsAreNull) {
  pp::Protocol protocol;
  const pp::State x = protocol.add_state("x");
  const pp::State y = protocol.add_state("y");
  protocol.mark_accepting(x);
  protocol.add_transition(x, y, x, y);  // silent: cannot change anything
  protocol.finalize();
  EXPECT_EQ(protocol.compiled().num_active_pairs(), 0u);
}

TEST(CompiledProtocol, LargeProtocolsUsePerfectHash) {
  // 600 states: the dense table would cost 600^2 * 4 bytes = 1.44 MB,
  // far past both dense admission criteria, so compile() must fall back
  // to the perfect hash — and the table must still resolve every pair.
  const pp::Protocol ring = make_ring(600);
  EXPECT_TRUE(ring.compiled().raw().dense.empty());
  EXPECT_FALSE(ring.compiled().raw().ph_key.empty());
  expect_table_matches_transitions(ring);

  const pp::Protocol majority = baselines::make_majority();
  EXPECT_FALSE(majority.compiled().raw().dense.empty());
}

TEST(CompiledProtocol, RawTablesRoundTripThroughAdopt) {
  for (const pp::Protocol& protocol :
       {baselines::make_majority(), czerner_protocol(1), make_ring(600)}) {
    const CompiledProtocol& original = protocol.compiled();
    const auto readopted = CompiledProtocol::adopt(original.raw());
    ASSERT_NE(readopted, nullptr);
    for (pp::State q = 0; q < protocol.num_states(); ++q) {
      for (pp::State r = 0; r < protocol.num_states(); ++r) {
        const std::uint32_t entry = original.entry_of(q, r);
        ASSERT_EQ(readopted->entry_of(q, r), entry);
        if (entry >= CompiledProtocol::kSilentOnly) continue;
        const auto a = original.candidates(entry);
        const auto b = readopted->candidates(entry);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      }
    }
  }
}

/// adopt() must throw std::invalid_argument naming `what`.
void expect_rejected(CompiledProtocol::RawTables bad, const std::string& what) {
  try {
    (void)CompiledProtocol::adopt(std::move(bad));
    ADD_FAILURE() << "adopt() accepted tables with: " << what;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
        << error.what();
  }
}

TEST(CompiledProtocol, AdoptRejectsMalformedTables) {
  const pp::Protocol majority = baselines::make_majority();
  const CompiledProtocol::RawTables good = majority.compiled().raw();
  ASSERT_FALSE(good.active_bits.empty());
  ASSERT_EQ(good.active_bits.size(), good.num_states);  // one word per row

  {  // Bad opcode.
    CompiledProtocol::RawTables bad = good;
    ASSERT_FALSE(bad.cells.empty());
    bad.cells[0].meta = isa::Cell::pack_meta(isa::Op::kNumOps, 0);
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Post-state out of range.
    CompiledProtocol::RawTables bad = good;
    bad.cells[0].q2 = bad.num_states + 7;
    bad.cells[0].meta = isa::Cell::pack_meta(isa::Op::kWriteQ, 0);
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Accepting delta outside [-2, 2].
    CompiledProtocol::RawTables bad = good;
    bad.cells[0].meta =
        isa::Cell::pack_meta(bad.cells[0].op(), 3);
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Truncated candidate stream breaks the CSR.
    CompiledProtocol::RawTables bad = good;
    ASSERT_FALSE(bad.cand_flat.empty());
    bad.cand_flat.pop_back();
    bad.cells.pop_back();
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Dense table of the wrong size.
    CompiledProtocol::RawTables bad = good;
    ASSERT_FALSE(bad.dense.empty());
    bad.dense.pop_back();
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Both lookup strategies at once.
    CompiledProtocol::RawTables bad = good;
    bad.ph_disp.assign(1, 0);
    bad.ph_key.assign(2, ~std::uint64_t{0});
    bad.ph_entry.assign(2, CompiledProtocol::kAbsent);
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  // The pair bitsets steer the count engine's walks, so one wrong bit
  // would send its responder walk to a pair without a position.
  {  // A flipped row bit: (0, 0) marked active or inactive against the CSR.
    CompiledProtocol::RawTables bad = good;
    bad.active_bits[0] ^= 1;
    expect_rejected(std::move(bad), "active_bits row disagrees");
  }
  {  // A flipped column bit.
    CompiledProtocol::RawTables bad = good;
    bad.active_cols[1] ^= 1;
    expect_rejected(std::move(bad), "active_cols row disagrees");
  }
  {  // An in CSR that is not the out CSR's transpose: a one-initiator
     // column names a different initiator (still sorted and in range), and
     // active_cols is rewritten to agree with it.
    CompiledProtocol::RawTables bad = good;
    pp::State r = 0;
    while (r < bad.num_states && bad.in_begin[r + 1] - bad.in_begin[r] != 1)
      ++r;
    ASSERT_LT(r, bad.num_states);
    auto& initiator = bad.in_flat[bad.in_begin[r]];
    bad.active_cols[r] ^= std::uint64_t{1} << initiator;
    initiator = (initiator + 1) % bad.num_states;
    bad.active_cols[r] ^= std::uint64_t{1} << initiator;
    expect_rejected(bad, "not the transpose");
    // Tables without bitsets (past kBitsetStates) check the CSRs directly.
    bad.active_bits.clear();
    bad.active_cols.clear();
    expect_rejected(std::move(bad), "not the transpose");
  }
  {  // any_bits is no longer built; filled-in tables are refused.
    CompiledProtocol::RawTables bad = good;
    bad.any_bits.assign(1, 0);
    expect_rejected(std::move(bad), "any_bits");
  }
}


// ---------------------------------------------------------------------------
// Differential: per-agent simulator against the map interpreter.

/// The uniform per-agent stepper as it stood before the compiled cells:
/// same ordered-distinct-pair draw as pp::Simulator, then a uniform pick
/// among Protocol::transitions_for(q, r) and a per-slot accepting retag.
/// pp::Simulator must match it RNG draw for RNG draw.
class MapInterpreter {
 public:
  MapInterpreter(const pp::Protocol& protocol, const pp::Config& initial,
                 std::uint64_t seed)
      : protocol_(protocol), rng_(seed) {
    for (pp::State q = 0; q < initial.num_states(); ++q)
      for (std::uint32_t i = 0; i < initial[q]; ++i) agents_.push_back(q);
    for (pp::State q : agents_)
      if (protocol.is_accepting(q)) ++accepting_agents_;
  }

  bool step() {
    ++meetings_;
    const std::uint64_t m = agents_.size();
    const std::uint64_t i = rng_.below(m);
    std::uint64_t j = rng_.below(m - 1);
    if (j >= i) ++j;  // ordered pair of *distinct* agents, uniform
    const pp::State q = agents_[i];
    const pp::State r = agents_[j];
    const auto candidates = protocol_.transitions_for(q, r);
    if (candidates.empty()) return false;
    ++firings_;
    const std::uint32_t pick =
        candidates.size() == 1
            ? candidates[0]
            : candidates[rng_.below(candidates.size())];
    const pp::Transition& t = protocol_.transitions()[pick];

    auto retag = [&](std::uint64_t index, pp::State to) {
      const pp::State from = agents_[index];
      if (protocol_.is_accepting(from)) --accepting_agents_;
      if (protocol_.is_accepting(to)) ++accepting_agents_;
      agents_[index] = to;
    };
    retag(i, t.q2);
    retag(j, t.r2);
    return true;
  }

  std::uint64_t accepting_agents() const { return accepting_agents_; }
  std::uint64_t meetings() const { return meetings_; }
  std::uint64_t firings() const { return firings_; }
  pp::Config config() const {
    pp::Config config(protocol_.num_states());
    for (pp::State q : agents_) config.add(q);
    return config;
  }

 private:
  const pp::Protocol& protocol_;
  std::vector<pp::State> agents_;
  std::uint64_t accepting_agents_ = 0;
  std::uint64_t meetings_ = 0;
  std::uint64_t firings_ = 0;
  support::Rng rng_;
};

void expect_per_agent_bit_identical(const pp::Protocol& protocol,
                                    const pp::Config& initial,
                                    std::uint64_t steps) {
  MapInterpreter oracle(protocol, initial, 99);
  pp::Simulator sim(protocol, initial, 99);
  for (std::uint64_t i = 0; i < steps; ++i) {
    ASSERT_EQ(oracle.step(), sim.step()) << "step " << i;
    ASSERT_EQ(oracle.accepting_agents(), sim.accepting_agents())
        << "step " << i;
    if (i % 512 == 0) {
      ASSERT_EQ(oracle.config(), sim.config());
    }
  }
  EXPECT_EQ(oracle.config(), sim.config());
  EXPECT_EQ(oracle.meetings(), sim.metrics().meetings);
  EXPECT_EQ(oracle.firings(), sim.metrics().firings);
}

TEST(Differential, PerAgentTrajectoriesBitIdentical) {
  const pp::Protocol majority = baselines::make_majority();
  expect_per_agent_bit_identical(
      majority, baselines::majority_initial(majority, 30, 28), 20'000);

  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  expect_per_agent_bit_identical(flock, baselines::flock_initial(flock, 8),
                                 20'000);

  const pp::Protocol czerner = czerner_protocol(1);
  const auto conv = compile::machine_to_protocol(
      compile::lower_program(czerner::build_construction(1).program).machine);
  expect_per_agent_bit_identical(
      conv.protocol, conv.initial_config(conv.num_pointers + 4), 20'000);
}

TEST(Differential, SilentOnlyPairsAreNullOnBothEngines) {
  // (a, b) has only the identity transition: the meeting must not fire on
  // the per-agent simulator or on the count engine, and the per-agent
  // trajectory must stay aligned with the map interpreter.
  pp::Protocol protocol;
  const pp::State a = protocol.add_state("a");
  const pp::State b = protocol.add_state("b");
  protocol.mark_input(a);
  protocol.mark_input(b);
  protocol.mark_accepting(a);
  protocol.add_transition(a, b, a, b);  // silent
  protocol.add_transition(b, a, a, a);
  protocol.finalize();
  EXPECT_EQ(protocol.compiled().entry_of(a, b), CompiledProtocol::kSilentOnly);
  EXPECT_TRUE(protocol.transitions_for(a, b).empty());

  pp::Config initial(protocol.num_states());
  initial.add(a, 5);
  initial.add(b, 5);
  expect_per_agent_bit_identical(protocol, initial, 2'000);

  // The one transition left, (b, a -> a, a), always changes the
  // configuration, so the count engine fires exactly when it changes.
  engine::CountSimulator sim(protocol, initial, 7);
  std::uint64_t changes = 0;
  for (int i = 0; i < 2'000; ++i) {
    const pp::Config before = sim.config();
    const bool fired = sim.step();
    const bool changed = before != sim.config();
    EXPECT_EQ(fired, changed) << "step " << i;
    if (changed) ++changes;
  }
  EXPECT_EQ(sim.metrics().firings, changes);
}

// ---------------------------------------------------------------------------
// Certification.

TEST(Differential, CertificateDigestIdenticalAcrossThreads) {
  const auto conv = compile::machine_to_protocol(
      compile::lower_program(czerner::build_construction(1).program).machine);
  const pp::Config initial = conv.initial_config(conv.num_pointers + 2);
  std::vector<smc::Certificate> certs;
  for (const unsigned threads : {1u, 4u}) {
    smc::CertifyOptions options;
    options.max_trials = 12;
    options.batch = 4;
    options.threads = threads;
    options.seed = 3;
    options.sim.stable_window = 2'000'000;
    options.sim.max_interactions = 40'000'000;
    certs.push_back(smc::certify(conv.protocol, initial,
                                 /*expected_output=*/false, options));
  }
  for (std::size_t i = 1; i < certs.size(); ++i) {
    EXPECT_EQ(smc::certificate_digest(certs[i]),
              smc::certificate_digest(certs[0]));
    EXPECT_EQ(certs[i].verdict, certs[0].verdict);
    EXPECT_EQ(certs[i].trials, certs[0].trials);
  }
}

}  // namespace
}  // namespace ppde
