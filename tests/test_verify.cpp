// Tests for the parallel state-space verification kernel (DESIGN.md S22)
// and the layers rewired onto it.
//
// The heart is a differential suite against a *pre-refactor oracle*: a
// straight reimplementation of the classic sequential explorer (hash-map
// interner, expand-in-discovery-order, Tarjan + bottom-SCC sweep) that the
// three per-layer explorers used before the kernel existed. The kernel's
// wave discipline must reproduce it byte-for-byte — same node ids, same
// SCC counts, same counterexample configuration — at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/reachability.hpp"
#include "baselines/majority.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/pool.hpp"
#include "machine/interp.hpp"
#include "pp/verifier.hpp"
#include "progmodel/explore.hpp"
#include "progmodel/flat.hpp"
#include "progmodel/sample_programs.hpp"
#include "support/scc.hpp"
#include "verify/interner.hpp"
#include "verify/kernel.hpp"

namespace ppde {
namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

// ---------------------------------------------------------------------------
// WorkerPool

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    engine::WorkerPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(),
                      [&](u64 i) { hits[i].fetch_add(1); });
    for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
}

TEST(WorkerPool, ReusableAcrossCalls) {
  engine::WorkerPool pool(4);
  std::atomic<u64> sum{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for(10, [&](u64 i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 50u * 45u);
}

TEST(WorkerPool, EmptyRangeIsANoOp) {
  engine::WorkerPool pool(4);
  pool.parallel_for(0, [&](u64) { FAIL() << "body must not run"; });
}

TEST(WorkerPool, RethrowsTheFirstException) {
  engine::WorkerPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](u64 i) {
                                   if (i % 10 == 3)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must survive a throwing batch.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](u64) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

// ---------------------------------------------------------------------------
// Interner

TEST(Interner, InternFindRoundTrip) {
  verify::Interner interner;
  const std::vector<u64> a = {1, 2, 3};
  const std::vector<u64> b = {1, 2, 4};
  const u64 ha = verify::hash_words(a);
  const u64 hb = verify::hash_words(b);
  EXPECT_EQ(interner.find(a, ha), verify::Interner::kNotFound);
  EXPECT_EQ(interner.intern(a, ha), (std::pair<u32, bool>{0, true}));
  EXPECT_EQ(interner.intern(b, hb), (std::pair<u32, bool>{1, true}));
  EXPECT_EQ(interner.intern(a, ha), (std::pair<u32, bool>{0, false}));
  EXPECT_EQ(interner.find(a, ha), 0u);
  EXPECT_EQ(interner.find(b, hb), 1u);
  EXPECT_EQ(interner.size(), 2u);
  const std::span<const u64> stored = interner.state(1);
  EXPECT_EQ(std::vector<u64>(stored.begin(), stored.end()), b);
}

TEST(Interner, SurvivesGrowthWithManyKeys) {
  verify::Interner interner;
  constexpr u32 kKeys = 50'000;
  for (u32 i = 0; i < kKeys; ++i) {
    const std::vector<u64> key = {i, i * 31 + 7, i % 5};
    EXPECT_EQ(interner.intern(key, verify::hash_words(key)).first, i);
  }
  EXPECT_EQ(interner.size(), kKeys);
  for (u32 i = 0; i < kKeys; i += 997) {
    const std::vector<u64> key = {i, i * 31 + 7, i % 5};
    EXPECT_EQ(interner.find(key, verify::hash_words(key)), i);
  }
  EXPECT_GT(interner.bytes(), kKeys * 3 * sizeof(u64));
}

TEST(Interner, DistinguishesLengths) {
  verify::Interner interner;
  const std::vector<u64> shorter = {5};
  const std::vector<u64> longer = {5, 0};
  interner.intern(shorter, verify::hash_words(shorter));
  EXPECT_EQ(interner.find(longer, verify::hash_words(longer)),
            verify::Interner::kNotFound);
}

// ---------------------------------------------------------------------------
// Kernel on a toy domain

/// Deterministic toy graph on {0..modulus-1}: x -> x+1 and x -> 2x. Nodes
/// divisible by `terminal_every` are terminal events.
struct ToyDomain {
  u64 modulus;
  u64 terminal_every = 0;

  void expand(std::span<const u64> state, verify::Emitter& emit) const {
    const u64 x = state[0];
    if (terminal_every != 0 && x % terminal_every == 0 && x != 0) {
      emit.set_terminal(0);
      return;
    }
    const std::vector<u64> inc = {(x + 1) % modulus};
    const std::vector<u64> dbl = {(2 * x) % modulus};
    emit.emit(inc);
    emit.emit(dbl);
  }
};

TEST(Kernel, ExploresTheFullToyGraphIdenticallyAtEveryThreadCount) {
  std::vector<support::CsrGraph> all_successors;
  for (const unsigned threads : {1u, 3u, 8u}) {
    const ToyDomain domain{1000, 7};
    verify::KernelOptions options;
    options.threads = threads;
    options.wave_chunk = 16;  // force many waves
    verify::Kernel<ToyDomain> kernel(domain, options);
    const std::vector<std::vector<u64>> roots = {{1}};
    const verify::KernelStats& stats = kernel.run(roots);
    EXPECT_TRUE(stats.complete);
    EXPECT_EQ(stats.limit, verify::LimitKind::kNone);
    EXPECT_EQ(stats.nodes, kernel.num_nodes());
    all_successors.push_back(kernel.graph());
  }
  EXPECT_EQ(all_successors[0], all_successors[1]);
  EXPECT_EQ(all_successors[0], all_successors[2]);
}

TEST(Kernel, NodeBudgetReportsPartialStats) {
  const ToyDomain domain{100'000};
  verify::KernelOptions options;
  options.max_nodes = 500;
  verify::Kernel<ToyDomain> kernel(domain, options);
  const std::vector<std::vector<u64>> roots = {{1}};
  const verify::KernelStats& stats = kernel.run(roots);
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(stats.limit, verify::LimitKind::kNodes);
  EXPECT_GT(stats.nodes, 500u);
  EXPECT_GT(stats.edges, 0u);
}

TEST(Kernel, EdgeBudgetReportsPartialStats) {
  const ToyDomain domain{100'000};
  verify::KernelOptions options;
  options.max_edges = 100;
  verify::Kernel<ToyDomain> kernel(domain, options);
  const std::vector<std::vector<u64>> roots = {{1}};
  const verify::KernelStats& stats = kernel.run(roots);
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(stats.limit, verify::LimitKind::kEdges);
  EXPECT_GT(stats.edges, 100u);
}

TEST(Kernel, ByteBudgetReportsPartialStats) {
  const ToyDomain domain{100'000};
  verify::KernelOptions options;
  options.max_bytes = 4096;
  verify::Kernel<ToyDomain> kernel(domain, options);
  const std::vector<std::vector<u64>> roots = {{1}};
  const verify::KernelStats& stats = kernel.run(roots);
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(stats.limit, verify::LimitKind::kBytes);
}

/// Toy domain with heavy duplication: every node emits the same successor
/// several times, self-loops both as emit_self() and as its own words, and
/// successors shared with many other nodes. States have 1-3 words.
struct DuplicatingDomain {
  u64 modulus;

  static std::vector<u64> encode(u64 x) {
    std::vector<u64> words = {x};
    if (x % 3 >= 1) words.push_back(x * 7);
    if (x % 3 == 2) words.push_back(x * 13);
    return words;
  }

  /// The successor walk both the kernel and the reference merge consume:
  /// on_state(words) per emitted state, on_self() per explicit self-loop;
  /// returns true iff the node is terminal.
  template <typename OnState, typename OnSelf>
  bool visit(std::span<const u64> state, const OnState& on_state,
             const OnSelf& on_self) const {
    const u64 x = state[0];
    if (x % 11 == 5) return true;
    const u64 inc = (x + 1) % modulus;
    on_state(encode(inc));
    on_state(encode((x / 2) % modulus));
    on_self();
    on_state(encode(inc));
    on_state(encode(x));
    on_state(encode((x * 3) % modulus));
    on_self();
    on_state(encode((x / 2) % modulus));
    return false;
  }

  void expand(std::span<const u64> state, verify::Emitter& emit) const {
    if (visit(
            state, [&](const std::vector<u64>& words) { emit.emit(words); },
            [&] { emit.emit_self(); }))
      emit.set_terminal(3);
  }
};

/// The sequential merge the wave kernel replaced, kept as the reference:
/// expand node 0, intern its successors in emission order, expand node 1,
/// ..., with the node budget checked before a node and the edge budget
/// after it.
struct ReferenceExploration {
  std::vector<std::vector<u64>> states;
  std::vector<std::vector<u32>> rows;
  std::vector<u32> terminal_tags;
  u64 edges = 0;
  verify::LimitKind limit = verify::LimitKind::kNone;
};

ReferenceExploration reference_explore(const DuplicatingDomain& domain,
                                       const std::vector<u64>& root,
                                       u64 max_nodes, u64 max_edges) {
  ReferenceExploration ref;
  std::map<std::vector<u64>, u32> ids;
  const auto intern = [&](const std::vector<u64>& words) {
    const auto [it, inserted] =
        ids.try_emplace(words, static_cast<u32>(ref.states.size()));
    if (inserted) ref.states.push_back(words);
    return it->second;
  };
  intern(root);
  for (u32 id = 0; id < ref.states.size(); ++id) {
    if (ref.states.size() > max_nodes) {
      ref.limit = verify::LimitKind::kNodes;
      break;
    }
    std::vector<u32> row;
    const std::vector<u64> state = ref.states[id];
    const bool terminal = domain.visit(
        state,
        [&](const std::vector<u64>& words) { row.push_back(intern(words)); },
        [&] { row.push_back(id); });
    ref.terminal_tags.resize(id + 1, verify::kNoTerminal);
    if (terminal) ref.terminal_tags[id] = 3;
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    ref.edges += row.size();
    ref.rows.resize(id + 1);
    ref.rows[id] = std::move(row);
    if (ref.edges > max_edges) {
      ref.limit = verify::LimitKind::kEdges;
      break;
    }
  }
  ref.rows.resize(ref.states.size());
  ref.terminal_tags.resize(ref.states.size(), verify::kNoTerminal);
  return ref;
}

void expect_matches_reference(const verify::Kernel<DuplicatingDomain>& kernel,
                              const ReferenceExploration& ref) {
  ASSERT_EQ(kernel.num_nodes(), ref.states.size());
  for (u32 id = 0; id < kernel.num_nodes(); ++id) {
    const std::span<const u64> state = kernel.state(id);
    ASSERT_EQ(std::vector<u64>(state.begin(), state.end()), ref.states[id])
        << "id " << id;
  }
  EXPECT_EQ(kernel.graph(), support::CsrGraph::from_lists(ref.rows));
  EXPECT_EQ(kernel.terminal_tags(), ref.terminal_tags);
  EXPECT_EQ(kernel.stats().edges, ref.edges);
  EXPECT_EQ(kernel.stats().limit, ref.limit);
}

/// After any run, find() must resolve exactly the committed states.
void expect_find_resolves_committed_only(
    const verify::Kernel<DuplicatingDomain>& kernel, u64 modulus) {
  u32 found = 0;
  for (u64 x = 0; x < modulus; ++x) {
    const std::vector<u64> words = DuplicatingDomain::encode(x);
    const u32 id = kernel.find(words);
    if (id == verify::Interner::kNotFound) continue;
    ++found;
    ASSERT_LT(id, kernel.num_nodes());
    const std::span<const u64> state = kernel.state(id);
    EXPECT_EQ(std::vector<u64>(state.begin(), state.end()), words);
  }
  EXPECT_EQ(found, kernel.num_nodes());
}

TEST(Kernel, DuplicateSuccessorsMatchTheSequentialReferenceMerge) {
  const DuplicatingDomain domain{3000};
  const std::vector<std::vector<u64>> roots = {DuplicatingDomain::encode(1)};
  const ReferenceExploration ref =
      reference_explore(domain, roots[0], UINT64_MAX, UINT64_MAX);
  ASSERT_GT(ref.states.size(), 1000u);
  for (const std::uint32_t chunk : {1u, 7u, 64u}) {
    for (const unsigned threads : {1u, 3u, 8u}) {
      SCOPED_TRACE("wave_chunk " + std::to_string(chunk) + ", threads " +
                   std::to_string(threads));
      verify::KernelOptions options;
      options.threads = threads;
      options.wave_chunk = chunk;
      verify::Kernel<DuplicatingDomain> kernel(domain, options);
      EXPECT_TRUE(kernel.run(roots).complete);
      expect_matches_reference(kernel, ref);
      expect_find_resolves_committed_only(kernel, domain.modulus);
    }
  }
}

TEST(Kernel, BudgetTripPointIsThreadCountIndependent) {
  const DuplicatingDomain domain{100'000};
  const std::vector<std::vector<u64>> roots = {DuplicatingDomain::encode(1)};
  struct Budget {
    verify::LimitKind kind;
    u64 nodes, edges, bytes;
  };
  const Budget budgets[] = {
      {verify::LimitKind::kNodes, 700, UINT64_MAX, UINT64_MAX},
      {verify::LimitKind::kEdges, UINT64_MAX, 900, UINT64_MAX},
      {verify::LimitKind::kBytes, UINT64_MAX, UINT64_MAX, 64 * 1024},
  };
  for (const Budget& budget : budgets) {
    std::vector<support::CsrGraph> graphs;
    std::vector<u64> bytes;
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("limit " + std::to_string(static_cast<int>(budget.kind)) +
                   ", threads " + std::to_string(threads));
      verify::KernelOptions options;
      options.max_nodes = budget.nodes;
      options.max_edges = budget.edges;
      options.max_bytes = budget.bytes;
      options.threads = threads;
      options.wave_chunk = 32;
      verify::Kernel<DuplicatingDomain> kernel(domain, options);
      const verify::KernelStats& stats = kernel.run(roots);
      EXPECT_FALSE(stats.complete);
      EXPECT_EQ(stats.limit, budget.kind);
      EXPECT_EQ(stats.nodes, kernel.num_nodes());
      if (budget.kind != verify::LimitKind::kBytes)
        expect_matches_reference(
            kernel, reference_explore(domain, roots[0], budget.nodes,
                                      budget.edges));
      expect_find_resolves_committed_only(kernel, domain.modulus);
      graphs.push_back(kernel.graph());
      bytes.push_back(stats.bytes);
    }
    EXPECT_EQ(graphs[0], graphs[1]);
    EXPECT_EQ(bytes[0], bytes[1]);
  }
}

TEST(Kernel, TerminalNodesAreExcludedFromBottomSccs) {
  // 0 -> 0 self-loop... actually build: terminal node's SCC never bottom.
  const ToyDomain domain{12, 5};
  verify::Kernel<ToyDomain> kernel(domain, {});
  const std::vector<std::vector<u64>> roots = {{1}};
  kernel.run(roots);
  const verify::SccAnalysis analysis = kernel.analyse();
  for (u32 id = 0; id < kernel.num_nodes(); ++id)
    if (kernel.terminal_tag(id) != verify::kNoTerminal)
      EXPECT_FALSE(analysis.is_bottom[analysis.scc.scc_of[id]]);
}

// ---------------------------------------------------------------------------
// pp::Verifier vs the pre-refactor sequential oracle

/// The classic sequential explorer the kernel replaced: map-based
/// interning in discovery order, immediate successor interning, Tarjan +
/// aggregate bottom-SCC sweep. Kept here as the reference semantics.
struct OracleResult {
  pp::VerificationResult::Verdict verdict;
  u64 nodes = 0;
  u64 edges = 0;
  u64 num_sccs = 0;
  u64 num_bottom_sccs = 0;
  std::optional<pp::Config> counterexample;
};

OracleResult oracle_verify(const pp::Protocol& protocol,
                           const pp::Config& initial, bool witness_mode,
                           u64 max_configs) {
  std::map<std::vector<u32>, u32> ids;
  std::vector<std::vector<u32>> nodes;
  std::vector<std::vector<u32>> successors;
  std::vector<u32> id_order_key;  // discovery order of map keys

  const auto dense = [&](const pp::Config& config) {
    std::vector<u32> counts(config.num_states());
    for (pp::State q = 0; q < config.num_states(); ++q)
      counts[q] = config[q];
    return counts;
  };
  const auto intern = [&](const std::vector<u32>& counts) {
    const auto [it, inserted] =
        ids.try_emplace(counts, static_cast<u32>(nodes.size()));
    if (inserted) {
      nodes.push_back(counts);
      successors.emplace_back();
    }
    return it->second;
  };

  OracleResult result;
  result.verdict = pp::VerificationResult::Verdict::kResourceLimit;
  intern(dense(initial));
  for (u32 id = 0; id < nodes.size(); ++id) {
    if (nodes.size() > max_configs) {
      result.nodes = nodes.size();
      return result;  // partial: limit
    }
    const std::vector<u32> node = nodes[id];
    std::vector<u32> succs;
    for (pp::State q = 0; q < node.size(); ++q) {
      if (node[q] == 0) continue;
      for (pp::State r = 0; r < node.size(); ++r) {
        if (node[r] == 0) continue;
        if (q == r && node[q] < 2) continue;
        for (const u32 index : protocol.transitions_for(q, r)) {
          const pp::Transition& t = protocol.transitions()[index];
          std::vector<u32> next = node;
          --next[t.q];
          --next[t.r];
          ++next[t.q2];
          ++next[t.r2];
          succs.push_back(intern(next));
        }
      }
    }
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
    result.edges += succs.size();
    successors[id] = std::move(succs);
  }
  result.nodes = nodes.size();

  const support::CsrGraph graph = support::CsrGraph::from_lists(successors);
  const support::SccResult scc = support::tarjan_scc(graph);
  const std::vector<std::uint8_t> is_bottom = scc.bottom(graph);
  result.num_sccs = scc.scc_count;
  bool aggregate_true = false, aggregate_false = false;
  std::optional<u32> offending;
  std::vector<std::uint8_t> seen(scc.scc_count, 0);
  for (u32 id = 0; id < nodes.size(); ++id) {
    if (!is_bottom[scc.scc_of[id]]) continue;
    if (!seen[scc.scc_of[id]]) {
      seen[scc.scc_of[id]] = 1;
      ++result.num_bottom_sccs;
    }
    bool any_accepting = false, any_rejecting = false;
    for (pp::State q = 0; q < nodes[id].size(); ++q)
      if (nodes[id][q] != 0)
        (protocol.is_accepting(q) ? any_accepting : any_rejecting) = true;
    const bool mixed = !witness_mode && any_accepting && any_rejecting;
    if (mixed || any_accepting) aggregate_true = true;
    if (mixed || !any_accepting) aggregate_false = true;
    if (aggregate_true && aggregate_false && !offending) offending = id;
  }
  using Verdict = pp::VerificationResult::Verdict;
  if (aggregate_true && aggregate_false) {
    result.verdict = Verdict::kDoesNotStabilise;
    pp::Config counterexample(protocol.num_states());
    for (pp::State q = 0; q < protocol.num_states(); ++q)
      counterexample.add(q, nodes[*offending][q]);
    result.counterexample = std::move(counterexample);
  } else if (aggregate_true) {
    result.verdict = Verdict::kStabilisesTrue;
  } else {
    result.verdict = Verdict::kStabilisesFalse;
  }
  return result;
}

/// (T,F -> T,T), (F,T -> F,F): from a mixed start both consensuses are
/// reachable, so the exact verdict is kDoesNotStabilise with a
/// counterexample.
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

void expect_matches_oracle(const pp::Protocol& protocol,
                           const pp::Config& initial, bool witness_mode,
                           unsigned threads) {
  const OracleResult expected =
      oracle_verify(protocol, initial, witness_mode, 1'000'000);
  pp::VerifierOptions options;
  options.witness_mode = witness_mode;
  options.threads = threads;
  const pp::VerificationResult actual =
      pp::Verifier(protocol).verify(initial, options);
  EXPECT_EQ(actual.verdict, expected.verdict);
  EXPECT_EQ(actual.explored_configs, expected.nodes);
  EXPECT_EQ(actual.explored_edges, expected.edges);
  EXPECT_EQ(actual.num_sccs, expected.num_sccs);
  EXPECT_EQ(actual.num_bottom_sccs, expected.num_bottom_sccs);
  ASSERT_EQ(actual.counterexample.has_value(),
            expected.counterexample.has_value());
  if (actual.counterexample)
    EXPECT_EQ(*actual.counterexample, *expected.counterexample);
}

TEST(VerifierOracle, MajorityMatchesByteForByte) {
  const pp::Protocol majority = baselines::make_majority();
  for (const unsigned threads : {1u, 4u}) {
    for (u32 a = 0; a <= 4; ++a) {
      for (u32 b = 0; b <= 4; ++b) {
        if (a + b == 0) continue;
        pp::Config initial(majority.num_states());
        initial.add(majority.state("A"), a);
        initial.add(majority.state("B"), b);
        expect_matches_oracle(majority, initial, false, threads);
      }
    }
  }
}

TEST(VerifierOracle, OpinionProtocolCounterexampleMatches) {
  const pp::Protocol opinion = make_opinion_protocol();
  for (const unsigned threads : {1u, 4u}) {
    for (u32 t = 1; t <= 5; ++t) {
      pp::Config initial(opinion.num_states());
      initial.add(opinion.state("T"), t);
      initial.add(opinion.state("F"), 6 - t);
      expect_matches_oracle(opinion, initial, false, threads);
      expect_matches_oracle(opinion, initial, true, threads);
    }
  }
}

TEST(VerifierOracle, ConvertedProtocolMatchesUnderWitnessSemantics) {
  const auto program = progmodel::make_window_program(1, 3);
  const compile::LoweredMachine lowered = compile::lower_program(program);
  compile::ConversionOptions nb;
  nb.with_broadcast = false;
  const compile::ProtocolConversion conv =
      compile::machine_to_protocol(lowered.machine, nb);
  for (u64 m = 0; m <= 2; ++m) {
    const pp::Config initial =
        conv.pi(machine::initial_state(lowered.machine, {0, 0, m}), false);
    expect_matches_oracle(conv.protocol, initial, true, 4);
  }
}

TEST(Verifier, ResourceLimitCarriesPartialCounts) {
  const pp::Protocol majority = baselines::make_majority();
  pp::Config initial(majority.num_states());
  initial.add(majority.state("A"), 12);
  initial.add(majority.state("B"), 11);
  pp::VerifierOptions options;
  options.max_configs = 10;
  const pp::VerificationResult result =
      pp::Verifier(majority).verify(initial, options);
  EXPECT_EQ(result.verdict, pp::VerificationResult::Verdict::kResourceLimit);
  EXPECT_GT(result.explored_configs, 10u);
  EXPECT_GT(result.explored_edges, 0u);
}

TEST(Verifier, ResultsAreIdenticalAcrossThreadCounts) {
  const pp::Protocol majority = baselines::make_majority();
  pp::Config initial(majority.num_states());
  initial.add(majority.state("A"), 6);
  initial.add(majority.state("B"), 5);
  std::vector<pp::VerificationResult> results;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    pp::VerifierOptions options;
    options.threads = threads;
    results.push_back(pp::Verifier(majority).verify(initial, options));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].verdict, results[0].verdict);
    EXPECT_EQ(results[i].explored_configs, results[0].explored_configs);
    EXPECT_EQ(results[i].explored_edges, results[0].explored_edges);
    EXPECT_EQ(results[i].num_sccs, results[0].num_sccs);
    EXPECT_EQ(results[i].num_bottom_sccs, results[0].num_bottom_sccs);
  }
}

TEST(Verifier, PinsTheTinyFrontierAtEveryThreadCountAndDispatch) {
  // The n = 1 no-broadcast conversion from pi(C) with m_regs = 4, witness
  // mode: the same counts as the verify-frontier benchmark's tiny size.
  const czerner::Construction c = czerner::build_construction(1);
  const compile::LoweredMachine lowered = compile::lower_program(c.program);
  compile::ConversionOptions nb;
  nb.with_broadcast = false;
  const compile::ProtocolConversion conv =
      compile::machine_to_protocol(lowered.machine, nb);
  std::vector<u64> regs(c.num_registers(), 0);
  regs[c.R()] = 4;
  const pp::Config initial =
      conv.pi(machine::initial_state(lowered.machine, regs), false);
  std::vector<pp::VerificationResult> results;
  for (const isa::Dispatch dispatch :
       {isa::Dispatch::kBytecode, isa::Dispatch::kInterp}) {
    for (const unsigned threads : {1u, 4u}) {
      pp::VerifierOptions options;
      options.witness_mode = true;
      options.threads = threads;
      options.dispatch = dispatch;
      results.push_back(pp::Verifier(conv.protocol).verify(initial, options));
    }
  }
  EXPECT_EQ(results[0].verdict,
            pp::VerificationResult::Verdict::kStabilisesTrue);
  EXPECT_EQ(results[0].explored_configs, 401'684u);
  EXPECT_EQ(results[0].explored_edges, 421'008u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].verdict, results[0].verdict) << i;
    EXPECT_EQ(results[i].explored_configs, results[0].explored_configs) << i;
    EXPECT_EQ(results[i].explored_edges, results[0].explored_edges) << i;
    EXPECT_EQ(results[i].num_sccs, results[0].num_sccs) << i;
    EXPECT_EQ(results[i].num_bottom_sccs, results[0].num_bottom_sccs) << i;
  }
}

// ---------------------------------------------------------------------------
// Pruned exploration

TEST(Verifier, PruneLeavesVerdictAndGraphStatisticsUnchanged) {
  // The conversion protocols are where pruning bites: they carry states no
  // run can occupy. The reachable configuration graphs are isomorphic, so
  // every statistic must match exactly.
  const auto program = progmodel::make_window_program(1, 3);
  const compile::LoweredMachine lowered = compile::lower_program(program);
  compile::ConversionOptions nb;
  nb.with_broadcast = false;
  const compile::ProtocolConversion conv =
      compile::machine_to_protocol(lowered.machine, nb);
  for (u64 m = 0; m <= 2; ++m) {
    const pp::Config initial =
        conv.pi(machine::initial_state(lowered.machine, {0, 0, m}), false);
    pp::VerifierOptions options;
    options.witness_mode = true;
    const pp::VerificationResult plain =
        pp::Verifier(conv.protocol).verify(initial, options);
    options.prune = true;
    options.threads = 4;
    const pp::VerificationResult pruned =
        pp::Verifier(conv.protocol).verify(initial, options);
    EXPECT_EQ(pruned.verdict, plain.verdict) << "m=" << m;
    EXPECT_EQ(pruned.explored_configs, plain.explored_configs) << "m=" << m;
    EXPECT_EQ(pruned.explored_edges, plain.explored_edges) << "m=" << m;
    EXPECT_EQ(pruned.num_sccs, plain.num_sccs) << "m=" << m;
    EXPECT_EQ(pruned.num_bottom_sccs, plain.num_bottom_sccs) << "m=" << m;
  }
}

TEST(Verifier, PruneMapsCounterexampleBackToOriginalStates) {
  // Opinion protocol plus a junk state nothing can reach: pruning drops
  // the state, and the counterexample must still be expressed over the
  // *original* state numbering.
  pp::Protocol protocol;
  const pp::State t = protocol.add_state("T");
  const pp::State junk = protocol.add_state("junk");
  const pp::State f = protocol.add_state("F");
  protocol.mark_input(t);
  protocol.mark_input(f);
  protocol.mark_accepting(t);
  protocol.add_transition(t, f, t, t);
  protocol.add_transition(f, t, f, f);
  protocol.add_transition(junk, junk, t, f);
  protocol.finalize();
  pp::Config initial(protocol.num_states());
  initial.add(t, 2);
  initial.add(f, 2);

  pp::VerifierOptions options;
  const pp::VerificationResult plain =
      pp::Verifier(protocol).verify(initial, options);
  options.prune = true;
  const pp::VerificationResult pruned =
      pp::Verifier(protocol).verify(initial, options);
  ASSERT_EQ(plain.verdict, pp::VerificationResult::Verdict::kDoesNotStabilise);
  ASSERT_TRUE(plain.counterexample.has_value());
  ASSERT_TRUE(pruned.counterexample.has_value());
  EXPECT_EQ(*pruned.counterexample, *plain.counterexample);
  EXPECT_EQ(pruned.counterexample->num_states(), protocol.num_states());
}

// ---------------------------------------------------------------------------
// Program- and machine-level explorers on the kernel

TEST(ProgramExplorer, DecideIsIdenticalAcrossThreadCounts) {
  const auto program = progmodel::make_window_program(2, 5);
  const progmodel::FlatProgram flat = progmodel::FlatProgram::compile(program);
  for (u64 m = 0; m <= 6; ++m) {
    progmodel::ExploreLimits limits;
    const progmodel::DecisionResult sequential =
        progmodel::decide(flat, {0, 0, m}, limits);
    limits.threads = 4;
    const progmodel::DecisionResult parallel =
        progmodel::decide(flat, {0, 0, m}, limits);
    EXPECT_EQ(parallel.verdict, sequential.verdict) << "m=" << m;
    EXPECT_EQ(parallel.explored_nodes, sequential.explored_nodes)
        << "m=" << m;
    // Window semantics: accept iff 2 <= m < 5.
    ASSERT_TRUE(sequential.stabilises()) << "m=" << m;
    EXPECT_EQ(sequential.output(), m >= 2 && m < 5) << "m=" << m;
  }
}

TEST(ProgramExplorer, LimitReportsPartialNodeCount) {
  const auto program = progmodel::make_window_program(2, 5);
  const progmodel::FlatProgram flat = progmodel::FlatProgram::compile(program);
  progmodel::ExploreLimits limits;
  limits.max_nodes = 5;
  const progmodel::DecisionResult result =
      progmodel::decide(flat, {0, 0, 4}, limits);
  EXPECT_EQ(result.verdict, progmodel::DecisionResult::Verdict::kLimit);
  EXPECT_GT(result.explored_nodes, 5u);

  const progmodel::MainAnalysis main = progmodel::analyse_main(
      flat, {0, 0, 4}, limits);
  EXPECT_TRUE(main.limit_hit);
  EXPECT_GT(main.explored_nodes, 5u);
}

TEST(MachineExplorer, DecideIsIdenticalAcrossThreadCounts) {
  const auto program = progmodel::make_window_program(1, 3);
  const compile::LoweredMachine lowered = compile::lower_program(program);
  for (u64 m = 0; m <= 4; ++m) {
    machine::MachineExploreLimits limits;
    const machine::MachineDecision sequential =
        machine::decide_machine(lowered.machine, {0, 0, m}, limits);
    limits.threads = 4;
    const machine::MachineDecision parallel =
        machine::decide_machine(lowered.machine, {0, 0, m}, limits);
    EXPECT_EQ(parallel.verdict, sequential.verdict) << "m=" << m;
    EXPECT_EQ(parallel.explored_nodes, sequential.explored_nodes)
        << "m=" << m;
    ASSERT_TRUE(sequential.stabilises()) << "m=" << m;
    EXPECT_EQ(sequential.output(), m >= 1 && m < 3) << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Worklist reachability fixpoint

/// The pre-worklist chaotic iteration, kept as the reference semantics.
std::vector<bool> chaotic_reachable_states(const pp::Protocol& protocol,
                                           const pp::Config& initial) {
  std::vector<bool> occupiable(protocol.num_states(), false);
  for (pp::State q = 0; q < initial.num_states(); ++q)
    if (initial[q] != 0) occupiable[q] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const pp::Transition& t : protocol.transitions()) {
      if (!occupiable[t.q] || !occupiable[t.r]) continue;
      for (const pp::State produced : {t.q2, t.r2}) {
        if (!occupiable[produced]) {
          occupiable[produced] = true;
          changed = true;
        }
      }
    }
  }
  return occupiable;
}

TEST(Reachability, WorklistFixpointMatchesChaoticIteration) {
  const auto program = progmodel::make_window_program(1, 3);
  const compile::LoweredMachine lowered = compile::lower_program(program);
  const compile::ProtocolConversion conv =
      compile::machine_to_protocol(lowered.machine);
  for (u64 m = 0; m <= 3; ++m) {
    const pp::Config initial =
        conv.pi(machine::initial_state(lowered.machine, {0, 0, m}), false);
    EXPECT_EQ(analysis::reachable_states(conv.protocol, initial),
              chaotic_reachable_states(conv.protocol, initial))
        << "m=" << m;
  }
  const pp::Protocol majority = baselines::make_majority();
  for (const char* state : {"A", "B", "a", "b"}) {
    pp::Config initial(majority.num_states());
    initial.add(majority.state(state), 3);
    EXPECT_EQ(analysis::reachable_states(majority, initial),
              chaotic_reachable_states(majority, initial))
        << state;
  }
}

}  // namespace
}  // namespace ppde
