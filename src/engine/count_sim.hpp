// Count-based simulation of population protocols (DESIGN.md S21).
//
// pp::Simulator stores one array slot per agent and spends one RNG draw per
// meeting — almost all of which are no-ops on the converted Czerner
// protocols, where a handful of pointer agents do all the work while the
// counted register agents idle. CountSimulator steps directly on the
// configuration's count vector in O(|Q|) memory and skips whole runs of
// null meetings in closed form:
//
//   * A meeting of an ordered state pair (q, r) is drawn with the exact
//     hypergeometric weight C(q)·(C(r) − [q=r]) / (m·(m−1)) — the
//     probability that a uniform ordered pair of distinct agents has the
//     initiator in q and the responder in r.
//   * Call (q, r) *active* if some transition for (q, r) changes a state.
//     With W = Σ_active C(q)·(C(r) − [q=r]) and T = m·(m−1), each meeting
//     is active with probability p = W/T independently, so the number of
//     null meetings before the next active one is Geometric(p):
//     k = ⌊ln U / ln(1−p)⌋ for U uniform on (0, 1]. The engine advances k
//     meetings with a single RNG draw, then samples one active pair with
//     weight proportional to C(q)·(C(r) − [q=r]) restricted to active
//     pairs, and fires a uniformly chosen candidate transition — exactly
//     the per-agent scheduler's law marginalised over the null meetings.
//
// The weights are maintained *incrementally*: each populated state q
// carries its partner sum A(q) = Σ_{r : (q,r) active} C(r) − [(q,q)
// active], and the per-slot weight C(q)·A(q) lives in a flat array beside
// its running total W, so a firing — which changes at most four counts,
// each touching only the populated states adjacent to it — costs
// O(#populated) instead of a full rescan plus an O(in-degree) adjacency
// walk per count change. Adjacency comes from the compiled tables'
// word-aligned pair bitsets ANDed with a populated-state bitset (plus a
// summary of its non-zero words): a count change walks its column's
// populated watchers, the responder walk its row's populated partners in
// ascending state order, and (de)populating a state flips one bit. Up to
// 64 populated states, the fused shift of one agent between two of them
// XORs the two columns' watchers as slot masks memoised until the
// populated set changes. Slots are selected by the seed engine's linear
// prefix scans, so the sequence of *configurations*, firings and
// consensus times for a given seed is bit-identical to the seed engine
// (test_engine keeps it as the LinearScanOracle) — and distributed
// identically to pp::Simulator's; only the interaction indices between
// firings are resampled, from the same geometric law (evaluated in double
// precision — the one approximation in the engine, and it never touches
// the state evolution). Past kBitsetStates states the tables carry no
// bitsets and the engine walks adjacency lists and a sorted populated
// list instead. Firings execute the compiled opcode cells of isa/exec.hpp.
//
// Populations of size < 2 have no ordered pairs: every meeting is vacuously
// null, the simulator reports frozen() immediately, and run_until_stable
// settles the (vacuous or single-agent) consensus in closed form.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "engine/metrics.hpp"
#include "isa/compiled.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "support/rng.hpp"

namespace ppde::engine {

/// Drop-in counterpart of pp::Simulator that never materialises agents.
/// The protocol must outlive the simulator; its compiled tables are
/// shared, not copied.
class CountSimulator {
 public:
  CountSimulator(const pp::Protocol& protocol, const pp::Config& initial,
                 std::uint64_t seed = 1);

  /// Rewind to `initial` with a fresh `seed`, keeping the protocol and
  /// every allocation. A reset simulator is indistinguishable from a
  /// freshly constructed one — trial fleets reuse one simulator per worker
  /// instead of reallocating O(|Q|) state every trial.
  void reset(const pp::Config& initial, std::uint64_t seed);

  /// Jump past the (geometrically many) null meetings to the next active
  /// one and execute it, so one call can advance interactions() by far
  /// more than 1. Returns true if a transition fired. If the simulation is
  /// frozen() the call advances a single (null) meeting and returns false
  /// — check frozen() in unbounded loops.
  bool step();

  /// Same stopping rule as pp::Simulator::run_until_stable: consensus must
  /// persist for options.stable_window meetings within
  /// options.max_interactions (options.seed is ignored; seeding happens at
  /// construction). Null runs are truncated exactly at the window/budget
  /// boundary, so the reported interaction indices agree with the
  /// per-agent semantics.
  pp::SimulationResult run_until_stable(const pp::SimulationOptions& options);

  std::uint64_t accepting_agents() const { return accepting_; }
  std::uint64_t population() const { return counts_.total(); }
  std::uint64_t interactions() const { return interactions_; }

  /// True iff all agents agree on an output right now (vacuously true for
  /// an empty population).
  std::optional<bool> consensus() const {
    if (accepting_ == counts_.total()) return true;
    if (accepting_ == 0) return false;
    return std::nullopt;
  }

  /// True iff no meeting can ever change the configuration again (the
  /// total active-pair weight is zero — O(1), the weight is maintained
  /// incrementally). A frozen run's consensus — or lack of one — is
  /// permanent. Populations of size < 2 are always frozen.
  bool frozen() const { return weight_total_ == 0; }

  /// Current configuration — O(1), unlike pp::Simulator::config().
  const pp::Config& config() const { return counts_; }

  /// Remove one uniformly random agent among those whose state satisfies
  /// `eligible` (default: any agent); mirrors
  /// pp::Simulator::remove_random_agent.
  std::optional<pp::State> remove_random_agent(
      const std::function<bool(pp::State)>& eligible = nullptr);

  const RunMetrics& metrics() const { return metrics_; }

 private:
  /// Load `initial` into an empty simulator: counts, populated list,
  /// partner sums and weights.
  void load(const pp::Config& initial);
  /// A(q) = Σ_{r populated, (q,r) active} C(r) − [(q,q) active], computed
  /// from scratch over q's populated partners (bitsets) or the cheaper of
  /// partners_of(q) / the populated list (past kBitsetStates).
  std::uint64_t fresh_partner_sum(pp::State q) const;
  /// Store slot's weight C(q)·A(q) and move W with it.
  void refresh_weight(std::uint32_t slot);
  /// Add `delta` (two's complement) to slot's partner sum, then refresh.
  void move_partner_sum(std::uint32_t slot, std::uint64_t delta) {
    partner_sum_[slot] += delta;
    refresh_weight(slot);
  }
  /// Memoise p = W/(m·(m−1)) and log1p(−p) for the current (W, m);
  /// returns true iff p < 1, i.e. a geometric draw is actually needed.
  bool geom_prepare(std::uint64_t active);
  /// Geometric number of null meetings before the next active one.
  std::uint64_t sample_null_run(std::uint64_t active);
  /// Account `count` meetings skipped without individual RNG draws.
  void advance_nulls(std::uint64_t count);
  /// Sample an active (q, r) by weight and fire a candidate. `active` must
  /// be the current W (> 0).
  void apply_active_meeting(std::uint64_t active);
  void change_count(pp::State state, std::int64_t delta);
  /// Move one agent from `from` to `to` (`from` != `to`). Equivalent to
  /// change_count(from, -1); change_count(to, +1) — with a fused fast path
  /// for the dominant firing shape, where both states stay populated.
  void shift_pair(pp::State from, pp::State to);
  /// The first populated state s, in ascending order, whose bit is set in
  /// word(w) (w the bitset word index) and for which stop(s) holds;
  /// kNoPosition if there is none. Visits only the words the summary marks
  /// populated. Needs the bitsets.
  template <class Word, class Stop>
  pp::State find_populated(Word word, Stop stop) const;
  /// stop-less find_populated: call visit(s) for every such state.
  template <class Word, class Visit>
  void for_each_populated(Word word, Visit visit) const {
    find_populated(word, [&](pp::State s) {
      visit(s);
      return false;
    });
  }
  /// The populated watchers of state populated_[slot] — its column ANDed
  /// with the populated bitset — as a mask of their slots, memoised until
  /// the populated set changes. Needs the bitsets and at most kMemoSlots
  /// populated states.
  std::uint64_t watcher_slots(std::uint32_t slot);
  /// watcher_slots' walk, out of line: once per slot and populated set.
  void fill_watcher_slots(std::uint32_t slot);
  /// Set or clear state q in the populated bitset and its summary (which
  /// invalidates every watcher_slots memo).
  void mark_populated(pp::State q);
  void unmark_populated(pp::State q);
  /// Pick a candidate of active pair `pos` (a uniform draw when it has
  /// several) and execute its compiled cell.
  void fire_cells(pp::State q, pp::State r, std::uint32_t pos);
  void set_weight(std::size_t slot, std::uint64_t w) {
    weight_total_ += w - weight_[slot];
    weight_[slot] = w;
  }
  void push_weight(std::uint64_t w) {
    weight_.push_back(w);
    weight_total_ += w;
  }
  void pop_weight() {
    weight_total_ -= weight_.back();
    weight_.pop_back();
  }

  static constexpr std::uint32_t kNoPosition = 0xffffffffu;

  const pp::Protocol* protocol_;
  std::shared_ptr<const isa::CompiledProtocol> compiled_;
  pp::Config counts_;
  /// States with non-zero count, unordered; keeps all incremental
  /// bookkeeping O(#populated states) instead of O(|Q|) or O(degree) — on
  /// the converted Czerner protocols only a handful of the ~1.8k states
  /// are ever occupied while adjacency degrees reach |Q|.
  std::vector<pp::State> populated_;
  std::vector<std::uint32_t> position_;  ///< state -> index in populated_
  /// Per initiator state, the responder it last fired with and that pair's
  /// position. Pair positions are static, so the memo never goes stale and
  /// survives reset; a repeat pair skips the entry_of probe (a
  /// perfect-hash lookup on the large converted protocols).
  std::vector<std::pair<pp::State, std::uint32_t>> last_fired_;
  /// partner_sum_[slot] = A(populated_[slot]); parallel to populated_.
  std::vector<std::uint64_t> partner_sum_;
  /// Per-slot active weights C(q)·A(q), parallel to populated_, and their
  /// running total W. Selection is a linear prefix scan over them.
  std::vector<std::uint64_t> weight_;
  std::uint64_t weight_total_ = 0;
  /// The compiled pair bitsets (isa::CompiledProtocol::active_row /
  /// active_col), or null with words_ == 0 past kBitsetStates.
  /// words_ is W = ⌈|Q|/64⌉, the length of every row, column and of
  /// populated_bits_.
  const std::uint64_t* rows_ = nullptr;
  const std::uint64_t* cols_ = nullptr;
  std::size_t words_ = 0;
  /// Bit q set iff C(q) > 0 — populated_ as a bitset indexed by state, so
  /// a row or column ANDed with it yields the populated partners or
  /// watchers in ascending state order. summary_ bit w is set iff word w
  /// is non-zero; two words cover kBitsetStates / 64 = 128 words.
  std::vector<std::uint64_t> populated_bits_;
  std::array<std::uint64_t, 2> summary_{};
  /// watcher_slots' memo, one mask per slot; bit s of watcher_valid_ is
  /// set iff watcher_memo_[s] is current. Slots move only when the
  /// populated set changes, which clears every bit.
  static constexpr std::size_t kMemoSlots = 64;
  std::array<std::uint64_t, kMemoSlots> watcher_memo_{};
  std::uint64_t watcher_valid_ = 0;
  /// The populated states in ascending order, kept only past
  /// kBitsetStates (empty otherwise) for the fallback's responder walk.
  std::vector<pp::State> sorted_populated_;
  /// Memoised geometric-law parameters for sample_null_run: log1p(−p) for
  /// the current (W, m). The dominant firing moves one agent between two
  /// register states watched by the same initiators, which leaves W — and
  /// hence p — unchanged, so the transcendental is evaluated once per
  /// distinct weight instead of once per firing. Pure memoisation: the
  /// cached value is bit-identical to recomputing it.
  std::uint64_t cached_active_ = 0;
  std::uint64_t cached_m_ = 0;
  double cached_p_ = 0.0;
  double cached_log1p_ = 0.0;
  std::uint64_t accepting_ = 0;
  std::uint64_t interactions_ = 0;
  RunMetrics metrics_;
  support::Rng rng_;
};

}  // namespace ppde::engine
