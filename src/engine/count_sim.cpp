#include "engine/count_sim.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "isa/exec.hpp"
#include "obs/trace.hpp"

namespace ppde::engine {

CountSimulator::CountSimulator(const pp::Protocol& protocol,
                               const pp::Config& initial, std::uint64_t seed,
                               CountSimOptions options)
    : CountSimulator(std::make_unique<PairIndex>(protocol), protocol, initial,
                     seed, options) {}

CountSimulator::CountSimulator(std::unique_ptr<const PairIndex> owned,
                               const pp::Protocol& protocol,
                               const pp::Config& initial, std::uint64_t seed,
                               CountSimOptions options)
    : CountSimulator(protocol, *owned, initial, seed, options) {
  owned_index_ = std::move(owned);
}

CountSimulator::CountSimulator(const pp::Protocol& protocol,
                               const PairIndex& index,
                               const pp::Config& initial, std::uint64_t seed,
                               CountSimOptions options)
    : protocol_(&protocol),
      index_(&index),
      options_(options),
      counts_(protocol.num_states()),
      position_(protocol.num_states(), kNoPosition),
      last_fired_(protocol.num_states(), {kNoPosition, 0}),
      rng_(seed) {
  if (!protocol.finalized())
    throw std::logic_error("CountSimulator: protocol not finalized");
  if (index.num_states() != protocol.num_states())
    throw std::invalid_argument("CountSimulator: index/protocol mismatch");
  const isa::CompiledProtocol& compiled = index.compiled();
  words_ = compiled.bitset_words();
  if (words_ != 0) {
    rows_ = compiled.active_row(0);
    cols_ = compiled.active_col(0);
    populated_bits_.assign(words_, 0);
  }
  load(initial);
}

void CountSimulator::load(const pp::Config& initial) {
  if (initial.num_states() > protocol_->num_states())
    throw std::invalid_argument("CountSimulator: config has unknown states");
  for (pp::State q = 0; q < initial.num_states(); ++q)
    if (initial[q] != 0) counts_.add(q, initial[q]);
  for (pp::State q = 0; q < counts_.num_states(); ++q) {
    if (counts_[q] == 0) continue;
    if (protocol_->is_accepting(q)) accepting_ += counts_[q];
    position_[q] = static_cast<std::uint32_t>(populated_.size());
    populated_.push_back(q);
    if (words_ != 0) mark_populated(q);
  }
  if (words_ == 0) sorted_populated_ = populated_;  // filled in state order
  partner_sum_.resize(populated_.size());
  for (std::uint32_t slot = 0; slot < populated_.size(); ++slot) {
    const pp::State q = populated_[slot];
    partner_sum_[slot] = fresh_partner_sum(q);
    push_weight(counts_[q] * partner_sum_[slot]);
  }
}

void CountSimulator::reset(const pp::Config& initial, std::uint64_t seed) {
  for (const pp::State q : populated_) {
    counts_.remove(q, counts_[q]);
    position_[q] = kNoPosition;
    if (words_ != 0) populated_bits_[q >> 6] = 0;
  }
  summary_ = {};
  populated_.clear();
  sorted_populated_.clear();
  partner_sum_.clear();
  weight_.clear();
  weight_total_ = 0;
  cached_active_ = 0;  // sample_null_run never sees W == 0; forces recompute
  accepting_ = 0;
  interactions_ = 0;
  metrics_ = RunMetrics{};
  rng_.reseed(seed);
  load(initial);
}

template <class Word, class Stop>
inline pp::State CountSimulator::find_populated(Word word, Stop stop) const {
  for (std::size_t half = 0; half < summary_.size(); ++half)
    for (std::uint64_t live = summary_[half]; live != 0; live &= live - 1) {
      const std::size_t w = half * 64 + std::countr_zero(live);
      for (std::uint64_t bits = word(w) & populated_bits_[w]; bits != 0;
           bits &= bits - 1) {
        const auto s = static_cast<pp::State>(w * 64 + std::countr_zero(bits));
        if (stop(s)) return s;
      }
    }
  return kNoPosition;
}

inline void CountSimulator::mark_populated(pp::State q) {
  watcher_valid_ = 0;
  const std::size_t w = q >> 6;
  populated_bits_[w] |= std::uint64_t{1} << (q & 63);
  summary_[w >> 6] |= std::uint64_t{1} << (w & 63);
}

inline void CountSimulator::unmark_populated(pp::State q) {
  watcher_valid_ = 0;
  const std::size_t w = q >> 6;
  populated_bits_[w] &= ~(std::uint64_t{1} << (q & 63));
  if (populated_bits_[w] == 0)
    summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
}

std::uint64_t CountSimulator::fresh_partner_sum(pp::State q) const {
  // Zero-count partners contribute nothing, so the sum may run over q's
  // populated partners or, without bitsets, over either the partner list or
  // the populated list — whichever is shorter.
  std::uint64_t sum = index_->self_active(q) ? ~std::uint64_t{0} : 0;  // −1
  if (words_ != 0) {
    const std::uint64_t* row = rows_ + q * words_;
    for_each_populated([row](std::size_t w) { return row[w]; },
                       [&](pp::State r) { sum += counts_[r]; });
    return sum;
  }
  const auto partners = index_->partners_of(q);
  if (partners.size() <= populated_.size()) {
    for (pp::State r : partners) sum += counts_[r];
  } else {
    for (pp::State r : populated_)
      if (index_->pair_active(q, r)) sum += counts_[r];
  }
  return sum;
}

void CountSimulator::refresh_weight(std::uint32_t slot) {
  // A(q) >= 0 whenever C(q) >= 1 (a populated self-active state counts
  // itself); the only transiently "negative" A belongs to a slot whose
  // count just hit zero, where the product is zero anyway.
  ++metrics_.weight_updates;
  set_weight(slot, counts_[populated_[slot]] * partner_sum_[slot]);
}

// The three null-skip helpers below are `inline` so the compiler folds
// them into run_until_stable's firing loop; only this file calls them.
inline bool CountSimulator::geom_prepare(std::uint64_t active) {
  // active > 0 implies m >= 2 (an active pair needs two distinct agents,
  // or C(q) >= 2 on a self-pair), so m·(m−1) never vanishes here.
  if (active != cached_active_ || counts_.total() != cached_m_) {
    cached_active_ = active;
    cached_m_ = counts_.total();
    const double m = static_cast<double>(cached_m_);
    cached_p_ = static_cast<double>(active) / (m * (m - 1.0));
    cached_log1p_ = cached_p_ < 1.0 ? std::log1p(-cached_p_) : 0.0;
  }
  return cached_p_ < 1.0;
}

inline std::uint64_t CountSimulator::sample_null_run(std::uint64_t active) {
  if (!geom_prepare(active)) return 0;
  // U uniform on (0, 1]; 53-bit mantissa draw, shifted off zero.
  const double k =
      std::floor(std::log(support::to_unit_open(rng_())) / cached_log1p_);
  if (!(k >= 0.0)) return 0;
  if (k >= 1.8e19) return std::numeric_limits<std::uint64_t>::max() / 2;
  return static_cast<std::uint64_t>(k);
}

inline void CountSimulator::advance_nulls(std::uint64_t count) {
  if (count == 0) return;
  interactions_ += count;
  metrics_.meetings += count;
  metrics_.skipped_meetings += count;
  ++metrics_.null_skip_batches;
}

void CountSimulator::change_count(pp::State state, std::int64_t delta) {
  if (delta > 0)
    counts_.add(state, static_cast<std::uint32_t>(delta));
  else
    counts_.remove(state, static_cast<std::uint32_t>(-delta));
  const auto shift = static_cast<std::uint64_t>(delta);  // two's complement
  if (protocol_->is_accepting(state)) accepting_ += shift;

  // Every populated initiator q with (q, state) active sees its partner
  // sum move by delta. A state entering the populated list is not marked
  // yet, so it is not its own watcher here; its partner sum comes fresh
  // below.
  const bool appearing = position_[state] == kNoPosition;  // delta > 0 then
  if (words_ != 0) {
    const std::uint64_t* col = cols_ + state * words_;
    for_each_populated(
        [col](std::size_t w) { return col[w]; },
        [&](pp::State q) { move_partner_sum(position_[q], shift); });
  } else if (const auto initiators = index_->initiators_meeting(state);
             initiators.size() <= populated_.size()) {
    // Bitset-less fallback: walk whichever side is shorter — the
    // in-partner list of `state` or the populated list — the updated
    // slots are the same.
    for (pp::State p : initiators) {
      const std::uint32_t slot = position_[p];
      if (slot != kNoPosition) move_partner_sum(slot, shift);
    }
  } else {
    for (std::uint32_t slot = 0; slot < populated_.size(); ++slot) {
      if (index_->pair_active(populated_[slot], state))
        move_partner_sum(slot, shift);
    }
  }

  if (counts_[state] == 0) {
    // Swap-remove from the populated list (same list surgery as the seed
    // engine, so slot order — and with it every sampled index — evolves
    // identically); the moved slot's weight travels with it.
    const std::uint32_t hole = position_[state];
    const auto last = static_cast<std::uint32_t>(populated_.size() - 1);
    const pp::State moved = populated_[last];
    populated_[hole] = moved;
    position_[moved] = hole;
    populated_.pop_back();
    position_[state] = kNoPosition;
    if (hole != last) {
      partner_sum_[hole] = partner_sum_[last];
      set_weight(hole, weight_[last]);
    }
    if (words_ != 0)
      unmark_populated(state);
    else
      sorted_populated_.erase(std::lower_bound(
          sorted_populated_.begin(), sorted_populated_.end(), state));
    partner_sum_.pop_back();
    pop_weight();
  } else if (appearing) {
    const auto slot = static_cast<std::uint32_t>(populated_.size());
    position_[state] = slot;
    populated_.push_back(state);
    if (words_ != 0)
      mark_populated(state);
    else
      sorted_populated_.insert(std::upper_bound(sorted_populated_.begin(),
                                                sorted_populated_.end(), state),
                               state);
    // Marked first, so a self-active state counts its own C − 1.
    partner_sum_.push_back(fresh_partner_sum(state));
    ++metrics_.weight_updates;
    push_weight(counts_[state] * partner_sum_[slot]);
  } else {
    refresh_weight(position_[state]);
  }
}

void CountSimulator::fill_watcher_slots(std::uint32_t slot) {
  std::uint64_t slots = 0;
  const std::uint64_t* col = cols_ + populated_[slot] * words_;
  for_each_populated([col](std::size_t w) { return col[w]; },
                     [&](pp::State q) {
                       slots |= std::uint64_t{1} << position_[q];
                     });
  watcher_memo_[slot] = slots;
  watcher_valid_ |= std::uint64_t{1} << slot;
}

inline std::uint64_t CountSimulator::watcher_slots(std::uint32_t slot) {
  if (((watcher_valid_ >> slot) & 1) == 0) [[unlikely]]
    fill_watcher_slots(slot);
  return watcher_memo_[slot];
}

void CountSimulator::shift_pair(pp::State from, pp::State to) {
  // Fused fast path for the dominant firing shape on the converted
  // protocols: one agent moves between two populated states and both stay
  // populated, so no list surgery occurs, and an initiator watching both
  // sees its two partner-sum shifts cancel — leaving only the watchers of
  // exactly one state and the two moved slots' own weights to refresh.
  if (words_ != 0 && counts_[from] > 1 && position_[to] != kNoPosition) {
    counts_.remove(from, 1);
    counts_.add(to, 1);
    if (protocol_->is_accepting(from)) --accepting_;
    if (protocol_->is_accepting(to)) ++accepting_;
    // Those watchers are the XOR of the two columns: of memoised slot
    // masks up to kMemoSlots populated states, else of the columns walked
    // directly. A watcher of `to` gains a partner: 2·gain − 1 = ±1.
    if (populated_.size() <= kMemoSlots) {
      const std::uint64_t gained = watcher_slots(position_[to]);
      for (std::uint64_t changed = watcher_slots(position_[from]) ^ gained;
           changed != 0; changed &= changed - 1) {
        const auto slot =
            static_cast<std::uint32_t>(std::countr_zero(changed));
        move_partner_sum(slot, ((gained >> slot) & 1) * 2 - 1);
      }
    } else {
      const std::uint64_t* lost = cols_ + from * words_;
      const std::uint64_t* gained = cols_ + to * words_;
      for_each_populated(
          [lost, gained](std::size_t w) { return lost[w] ^ gained[w]; },
          [&](pp::State q) {
            const std::uint64_t gain = (gained[q >> 6] >> (q & 63)) & 1;
            move_partner_sum(position_[q], gain * 2 - 1);
          });
    }
    refresh_weight(position_[from]);
    refresh_weight(position_[to]);
    return;
  }
  change_count(from, -1);
  change_count(to, +1);
}

void CountSimulator::fire_cells(pp::State q, pp::State r, std::uint32_t pos) {
  ++metrics_.firings;
  const auto cells = index_->pair_cells(pos);
  const isa::Cell& cell =
      cells.size() == 1 ? cells[0] : cells[rng_.below(cells.size())];
  // change_count/shift_pair maintain accepting_ themselves, so the cell's
  // fused accepting delta is ignored here (the per-agent simulator is the
  // consumer that needs it).
  isa::execute_cell(
      cell,
      isa::make_policy([&](std::uint32_t q2) { shift_pair(q, q2); },
                       [&](std::uint32_t r2) { shift_pair(r, r2); },
                       [&](std::uint32_t q2, std::uint32_t r2) {
                         shift_pair(q, q2);
                         shift_pair(r, r2);
                       },
                       [&] {
                         // A swap moves one agent each way, in the order
                         // the transition's (q, r) rewrite names them.
                         shift_pair(q, r);
                         shift_pair(r, q);
                       },
                       [](std::int32_t) {}));
}

void CountSimulator::apply_active_meeting(std::uint64_t active) {
  const std::uint64_t target = rng_.below(active);
  ++metrics_.tree_descents;
  // The seed engine's linear prefix scan over the flat weights.
  std::uint64_t remaining = target;
  std::size_t slot = 0;
  while (remaining >= weight_[slot]) remaining -= weight_[slot++];
  const pp::State q = populated_[slot];
  const std::uint64_t cq = counts_[q];
  // The seed engine's responder walk visits q's partners in ascending
  // state order, each absorbing its pair weight. Restricting it to the
  // populated states selects the identical responder: a zero-count partner
  // carries zero weight and can never absorb the remainder. With the
  // bitsets, q's row ANDed with the populated bitset yields exactly those
  // partners, in state order. Without them, walk the shorter of the
  // partner row and the sorted populated list, probing the latter for
  // activity. Either walk always selects, since remaining < the slot's
  // total pair weight.
  const auto absorbs = [&](pp::State partner) {
    const std::uint64_t weight =
        cq * (counts_[partner] - (partner == q ? 1 : 0));
    if (remaining < weight) return true;
    remaining -= weight;
    return false;
  };
  pp::State r = q;
  if (words_ != 0) {
    const std::uint64_t* row = rows_ + q * words_;
    r = find_populated([row](std::size_t w) { return row[w]; }, absorbs);
  } else if (const auto partners = index_->partners_of(q);
             partners.size() <= populated_.size()) {
    r = *std::find_if(partners.begin(), partners.end(), absorbs);
  } else {
    r = *std::find_if(sorted_populated_.begin(), sorted_populated_.end(),
                      [&](pp::State partner) {
                        return index_->pair_active(q, partner) &&
                               absorbs(partner);
                      });
  }
  auto& memo = last_fired_[q];
  if (memo.first != r) memo = {r, index_->compiled().entry_of(q, r)};
  fire_cells(q, r, memo.second);  // (q, r) is active
}

bool CountSimulator::step() {
  if (!options_.null_skip) return step_meeting();
  const std::uint64_t active = weight_total_;
  if (active == 0) {
    ++interactions_;
    ++metrics_.meetings;
    return false;
  }
  // One fused update for the null run plus the firing meeting itself.
  const std::uint64_t skip = sample_null_run(active);
  interactions_ += skip + 1;
  metrics_.meetings += skip + 1;
  if (skip != 0) {
    metrics_.skipped_meetings += skip;
    ++metrics_.null_skip_batches;
  }
  apply_active_meeting(active);
  return true;
}

bool CountSimulator::step_meeting() {
  ++interactions_;
  ++metrics_.meetings;
  const std::uint64_t m = counts_.total();
  // Fewer than two agents: there is no ordered pair to meet, so every
  // meeting is null by definition (and below(m−1) would be below(0)).
  if (m < 2) return false;
  // Initiator uniform over agents, responder uniform over the rest — the
  // same ordered-distinct-pair law as pp::Simulator, on counts, selected
  // with the seed engine's linear prefix scans.
  if (populated_.size() > kLinearSlots) metrics_.tree_descents += 2;
  std::uint64_t i = rng_.below(m);
  std::uint32_t slot = 0;
  while (i >= counts_[populated_[slot]]) i -= counts_[populated_[slot++]];
  const pp::State q = populated_[slot];
  std::uint64_t j = rng_.below(m - 1);
  std::uint32_t responder_slot = 0;
  for (;; ++responder_slot) {
    const std::uint64_t weight = counts_[populated_[responder_slot]] -
                                 (responder_slot == slot ? 1 : 0);
    if (j < weight) break;
    j -= weight;
  }
  const pp::State r = populated_[responder_slot];
  // A pair without active candidates — absent, or silent-only — is a null
  // meeting: no firing and no candidate draw, as in pp::Simulator.
  const std::uint32_t entry = index_->compiled().entry_of(q, r);
  if (entry >= isa::CompiledProtocol::kSilentOnly) return false;
  fire_cells(q, r, entry);
  return true;
}

pp::SimulationResult CountSimulator::run_until_stable(
    const pp::SimulationOptions& options) {
  // One span per run (S24); the meeting loop itself carries zero
  // instrumentation — the hot path stays untouched.
  obs::ObsSpan span("run_until_stable", "sim");
  const auto start_time = std::chrono::steady_clock::now();
  pp::SimulationResult result;
  const std::uint64_t budget = options.max_interactions;
  std::uint64_t consensus_start = interactions_;
  std::optional<bool> held = consensus();
  const auto settle = [&] {
    result.stabilised = true;
    result.output = *held;
    result.consensus_since = consensus_start;
  };
  while (interactions_ < budget) {
    if (options_.null_skip) {
      const std::uint64_t active = weight_total_;
      const std::uint64_t stable_at = consensus_start + options.stable_window;
      if (active == 0) {
        // Frozen (including any population of size < 2): every future
        // meeting is null, so the current consensus (or its absence) is
        // permanent. Realise just enough nulls to hit the window or the
        // budget.
        if (held.has_value() && stable_at <= budget) {
          advance_nulls(stable_at - interactions_);
          settle();
        } else {
          advance_nulls(budget - interactions_);
        }
        break;
      }
      const std::uint64_t skip = sample_null_run(active);
      if (held.has_value() && stable_at <= interactions_ + skip) {
        // The window completes during the null run, before the next firing.
        advance_nulls(stable_at - interactions_);
        settle();
        break;
      }
      if (interactions_ + skip >= budget) {
        advance_nulls(budget - interactions_);
        break;
      }
      advance_nulls(skip);
      ++interactions_;
      ++metrics_.meetings;
      apply_active_meeting(active);
    } else {
      step_meeting();
    }
    const std::optional<bool> now = consensus();
    if (now != held) {
      held = now;
      consensus_start = interactions_;
      ++metrics_.consensus_flips;
    }
    if (held.has_value() &&
        interactions_ - consensus_start >= options.stable_window) {
      settle();
      break;
    }
  }
  result.interactions = interactions_;
  result.parallel_time =
      population() != 0 ? static_cast<double>(interactions_) /
                              static_cast<double>(population())
                        : 0.0;
  metrics_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return result;
}

std::optional<pp::State> CountSimulator::remove_random_agent(
    const std::function<bool(pp::State)>& eligible) {
  if (counts_.total() <= 2) return std::nullopt;
  std::uint64_t eligible_total = 0;
  for (pp::State q = 0; q < counts_.num_states(); ++q)
    if (counts_[q] != 0 && (!eligible || eligible(q)))
      eligible_total += counts_[q];
  if (eligible_total == 0) return std::nullopt;
  std::uint64_t target = rng_.below(eligible_total);
  for (pp::State q = 0; q < counts_.num_states(); ++q) {
    if (counts_[q] == 0 || (eligible && !eligible(q))) continue;
    if (target < counts_[q]) {
      change_count(q, -1);
      return q;
    }
    target -= counts_[q];
  }
  return std::nullopt;  // unreachable
}

}  // namespace ppde::engine
