#include "pp/verifier.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "analysis/reachability.hpp"
#include "isa/exec.hpp"
#include "verify/kernel.hpp"

namespace ppde::pp {

namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

// Sparse configuration encoding for the kernel: one word per occupied
// state, (state << 32) | count, sorted by state. Much smaller than the
// dense count vector for compiler-produced protocols, where only ~|F| + a
// few register states are occupied out of hundreds.
constexpr u64 encode(State q, u32 count) {
  return (static_cast<u64>(q) << 32) | count;
}
constexpr State state_of(u64 word) { return static_cast<State>(word >> 32); }
constexpr u32 count_of(u64 word) { return static_cast<u32>(word); }

std::vector<u64> to_sparse(const Config& config) {
  std::vector<u64> sparse;
  for (State q = 0; q < config.num_states(); ++q)
    if (config[q] != 0) sparse.push_back(encode(q, config[q]));
  return sparse;
}

Config to_dense(std::span<const u64> sparse, std::size_t num_states) {
  Config config(num_states);
  for (const u64 word : sparse) config.add(state_of(word), count_of(word));
  return config;
}

/// The net effect of one fired cell on the counts: at most four
/// (state, change) terms, sorted by state, zero changes dropped. Cells
/// with equal deltas lead to the same successor; the empty delta is a
/// self-loop.
class Delta {
 public:
  void move(State from, State to) {
    add(from, -1);
    add(to, +1);
  }
  /// Drop zero terms and sort; call once, after the last move().
  void canonicalise() {
    u32 kept = 0;
    for (u32 k = 0; k < size_; ++k)
      if (terms_[k].change != 0) terms_[kept++] = terms_[k];
    size_ = kept;
    for (u32 k = 1; k < size_; ++k)  // insertion sort of <= 4 terms
      for (u32 j = k; j > 0 && terms_[j].state < terms_[j - 1].state; --j)
        std::swap(terms_[j], terms_[j - 1]);
  }
  bool empty() const { return size_ == 0; }
  bool operator==(const Delta& other) const {
    return size_ == other.size_ &&
           std::equal(terms_.begin(), terms_.begin() + size_,
                      other.terms_.begin());
  }
  /// The successor of sparse configuration `sparse` (sorted by state),
  /// written to `out` in one merge pass.
  void apply(std::span<const u64> sparse, std::vector<u64>& out) const {
    out.resize(sparse.size() + size_);
    u64* next = out.data();
    u32 k = 0;
    for (const u64 word : sparse) {
      const State q = state_of(word);
      for (; k < size_ && terms_[k].state < q; ++k)  // newly occupied
        *next++ = encode(terms_[k].state, static_cast<u32>(terms_[k].change));
      if (k < size_ && terms_[k].state == q) {
        const u32 count = count_of(word) + terms_[k++].change;
        if (count != 0) *next++ = encode(q, count);
      } else {
        *next++ = word;
      }
    }
    for (; k < size_; ++k)
      *next++ = encode(terms_[k].state, static_cast<u32>(terms_[k].change));
    out.resize(static_cast<std::size_t>(next - out.data()));
  }

 private:
  struct Term {
    State state;
    std::int32_t change;
    bool operator==(const Term&) const = default;
  };

  void add(State q, std::int32_t change) {
    for (u32 k = 0; k < size_; ++k)
      if (terms_[k].state == q) {
        terms_[k].change += change;
        return;
      }
    terms_[size_++] = {q, change};
  }

  std::array<Term, 4> terms_{};
  u32 size_ = 0;
};

/// Successor generator over sparse configurations: iterate over ordered
/// pairs of *present* states and apply each enabled transition. The pair
/// (q, q) needs at least two agents in q. Each distinct net delta is
/// emitted once, at its first occurrence, so repeats are never
/// materialised or hashed and the emission order of first occurrences
/// (hence every node ID) is that of the full cell walk.
class ConfigDomain {
 public:
  explicit ConfigDomain(const Protocol& protocol)
      : compiled_(protocol.compiled()) {
    reduce_cells();
  }

  void expand(std::span<const u64> sparse, verify::Emitter& emit) const {
    std::vector<u64> scratch;
    std::vector<Delta> seen;
    // Out of line on purpose: inlined into the pair walk below, this body
    // slowed the single-threaded n = 1 frontier expansion by ~13% (g++
    // 12.2 -O3, 4-core Xeon).
    const auto fire = [&](const Delta& delta) __attribute__((noinline)) {
      if (std::find(seen.begin(), seen.end(), delta) != seen.end()) return;
      seen.push_back(delta);
      if (delta.empty()) {
        emit.emit_self();
        return;
      }
      delta.apply(sparse, scratch);
      emit.emit(scratch);
    };
    // For each present q, its active partners r (in ascending order) that
    // are present too, then the pair's reduced cells.
    std::vector<u64> present((compiled_.num_states() + 63) / 64, 0);
    for (const u64 word : sparse)
      present[state_of(word) >> 6] |= u64{1} << (state_of(word) & 63);
    for (const u64 word_q : sparse) {
      const State q = state_of(word_q);
      const std::span<const State> partners = compiled_.partners_of(q);
      const u32 row = compiled_.pair_offset(q);
      for (u32 k = 0; k < partners.size(); ++k) {
        const State r = partners[k];
        if (((present[r >> 6] >> (r & 63)) & 1) == 0) continue;
        if (q == r && count_of(word_q) < 2) continue;
        for (u32 d = pair_begin_[row + k]; d < pair_begin_[row + k + 1]; ++d)
          fire(pair_deltas_[d]);
      }
    }
  }

 private:
  /// Reduce the opcode cells of every active pair, once per protocol, to
  /// their distinct canonical deltas in first-occurrence order: a cell's
  /// effect on the counts depends only on its pair, never on the rest of
  /// the configuration.
  void reduce_cells() {
    pair_begin_.assign(compiled_.num_active_pairs() + 1, 0);
    for (State q = 0; q < compiled_.num_states(); ++q) {
      const std::span<const State> partners = compiled_.partners_of(q);
      for (u32 k = 0; k < partners.size(); ++k) {
        const State r = partners[k];
        const u32 pos = compiled_.pair_offset(q) + k;
        const auto first = static_cast<std::ptrdiff_t>(pair_deltas_.size());
        for (const isa::Cell& cell : compiled_.cells(pos)) {
          Delta delta;
          isa::execute_cell(
              cell, isa::make_policy(
                        [&](u32 q2) { delta.move(q, q2); },
                        [&](u32 r2) { delta.move(r, r2); },
                        [&](u32 q2, u32 r2) {
                          delta.move(q, q2);
                          delta.move(r, r2);
                        },
                        [] { /* swap leaves the counts unchanged */ },
                        [](std::int32_t) {}));
          delta.canonicalise();
          if (std::find(pair_deltas_.begin() + first, pair_deltas_.end(),
                        delta) == pair_deltas_.end())
            pair_deltas_.push_back(delta);
        }
        pair_begin_[pos + 1] = static_cast<u32>(pair_deltas_.size());
      }
    }
  }

  const isa::CompiledProtocol& compiled_;
  /// Pair position p's deltas are
  /// pair_deltas_[pair_begin_[p] .. pair_begin_[p + 1]).
  std::vector<u32> pair_begin_;
  std::vector<Delta> pair_deltas_;
};

/// Outputs of a sparse configuration, mirroring Config::output; in witness
/// mode the output is simply "some accepting agent present".
verify::NodeOutput sparse_output(const Protocol& protocol,
                                 std::span<const u64> sparse,
                                 bool witness_mode) {
  bool any_accepting = false;
  bool any_rejecting = false;
  for (const u64 word : sparse) {
    (protocol.is_accepting(state_of(word)) ? any_accepting : any_rejecting) =
        true;
    if (!witness_mode && any_accepting && any_rejecting)
      return verify::NodeOutput::kMixed;
  }
  return any_accepting ? verify::NodeOutput::kTrue
                       : verify::NodeOutput::kFalse;
}

VerificationResult verify_on(const Protocol& protocol, const Config& initial,
                             const VerifierOptions& options) {
  verify::KernelOptions kernel_options;
  kernel_options.max_nodes = options.max_configs;
  kernel_options.max_edges = options.max_edges;
  kernel_options.max_bytes = options.max_bytes;
  kernel_options.threads = options.threads;

  const ConfigDomain domain(protocol);
  verify::Kernel<ConfigDomain> kernel(domain, kernel_options);
  const std::vector<std::vector<u64>> roots = {to_sparse(initial)};
  const verify::KernelStats& stats = kernel.run(roots);

  VerificationResult result;
  result.explored_configs = stats.nodes;
  result.explored_edges = stats.edges;
  if (!stats.complete) {
    result.verdict = VerificationResult::Verdict::kResourceLimit;
    return result;
  }

  const verify::SccAnalysis analysis = kernel.analyse();
  const verify::ConsensusReport report = verify::classify_bottom(
      analysis, kernel.num_nodes(), [&](u32 id) {
        return sparse_output(protocol, kernel.state(id),
                             options.witness_mode);
      });
  result.num_sccs = report.num_sccs;
  result.num_bottom_sccs = report.num_bottom_sccs;

  using Verdict = VerificationResult::Verdict;
  if (report.aggregate_true && report.aggregate_false) {
    result.verdict = Verdict::kDoesNotStabilise;
    result.counterexample =
        to_dense(kernel.state(*report.offending_node), protocol.num_states());
  } else if (report.aggregate_true) {
    result.verdict = Verdict::kStabilisesTrue;
  } else {
    result.verdict = Verdict::kStabilisesFalse;
  }
  return result;
}

}  // namespace

Verifier::Verifier(const Protocol& protocol) : protocol_(protocol) {
  if (!protocol.finalized())
    throw std::logic_error("Verifier: protocol not finalized");
}

VerificationResult Verifier::verify(const Config& initial,
                                    const VerifierOptions& options) const {
  if (!options.prune) return verify_on(protocol_, initial, options);

  // Explore the pruned state space directly: states no run can occupy are
  // dropped up front (with every transition touching one), so expansions
  // scan a smaller transition relation. The reachable configuration graph
  // is isomorphic to the unpruned one — every state occupied by a
  // reachable configuration is occupiable by definition — so the verdict
  // and all statistics are unchanged; only a counterexample needs mapping
  // back into the original state space.
  const analysis::PrunedProtocol pruned =
      analysis::prune_protocol(protocol_, initial);
  VerificationResult result = verify_on(pruned.protocol, pruned.initial,
                                        options);
  if (result.counterexample) {
    Config original(protocol_.num_states());
    const Config& reduced = *result.counterexample;
    for (State q = 0; q < reduced.num_states(); ++q)
      if (reduced[q] != 0)
        original.add(protocol_.state(pruned.protocol.name(q)), reduced[q]);
    result.counterexample = std::move(original);
  }
  return result;
}

std::string to_string(VerificationResult::Verdict verdict) {
  using Verdict = VerificationResult::Verdict;
  switch (verdict) {
    case Verdict::kStabilisesTrue:
      return "stabilises to true";
    case Verdict::kStabilisesFalse:
      return "stabilises to false";
    case Verdict::kDoesNotStabilise:
      return "does not stabilise";
    case Verdict::kResourceLimit:
      return "resource limit reached";
  }
  return "?";
}

}  // namespace ppde::pp
