// Compiled protocol IR: flat bytecode for table-driven dispatch (S26).
//
// A finalized pp::Protocol is lowered once into a CompiledProtocol — a set
// of flat, immutable tables that every execution layer (per-agent
// simulation, count-based simulation, exhaustive verification) consumes as
// the single source of truth for transition semantics:
//
//   * Pair lookup: ordered state pair (q, r) -> entry. Protocols with few
//     states get a dense 2-D array (one u32 load); sparse protocols with
//     many states (the converted Czerner constructions: O(n) states, a
//     handful of live pairs per state) get a CHD-style perfect hash with
//     stored keys, so a miss is detected with one probe and no chains. The
//     strategy is chosen at compile time from |Q| and the live-pair count.
//   * Active pairs — pairs with at least one non-silent candidate — carry
//     dense *pair positions* 0..P-1 in (q asc, r asc) order, keying a
//     candidate CSR (verbatim transition indices, in transition order) and
//     a parallel opcode-cell stream.
//   * Each candidate is one fixed-size Cell: an opcode (identity-skip /
//     write-initiator / write-responder / write-both / swap), the two
//     post-states, and the fused accepting-counter delta, so firing a
//     candidate needs no Transition load and no per-state accepting probes.
//     isa/exec.hpp executes cells with computed-goto threaded dispatch.
//   * Adjacency CSRs (partners_of / initiators_meeting), self-pair flags
//     and, up to kBitsetStates states, word-aligned pair bitsets: one row
//     of active partners per initiator and its transpose (one column of
//     watching initiators per responder). The count engine walks them
//     against its populated-state bitset; engine::PairIndex is a thin
//     view.
//
// Lowering is pure table construction: candidate order equals
// Protocol::finalize()'s transition order, so a simulator picking
// candidates through the compiled tables consumes its RNG identically to
// one walking Protocol::transitions_for — the map interpreter the tests
// keep as the oracle of the bit-identicality contract (DESIGN.md S26).
//
// The tables can be exported (raw()) and re-adopted (adopt()); adopt()
// validates every invariant and throws std::invalid_argument on malformed
// tables, which is also how compile() output is checked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pp/protocol.hpp"

namespace ppde::isa {

/// Names the one execution core — these tables, run by isa/exec.hpp.
// ignored; kept only because perfbench/ passes it
enum class Dispatch : std::uint8_t { kBytecode };

/// Opcodes of a candidate cell. The opcode classifies which side(s) of the
/// pair a firing rewrites, so an executor touches only the slots that
/// change.
enum Op : std::uint8_t {
  kNop = 0,        ///< silent candidate: no state changes
  kWriteQ = 1,     ///< initiator rewritten, responder unchanged
  kWriteR = 2,     ///< responder rewritten, initiator unchanged
  kWriteBoth = 3,  ///< both rewritten
  kSwap = 4,       ///< both rewritten, q2 == r and r2 == q (counts invariant)
  kNumOps = 5,
};

/// One candidate transition, compiled. 12 bytes, trivially copyable.
struct Cell {
  /// Bits 0-7: Op. Bits 8-15: accepting-agents delta as a sign-extended
  /// int8 (in [-2, 2]) — the fused counter delta of firing this candidate.
  std::uint32_t meta = 0;
  std::uint32_t q2 = 0;  ///< post-state of the initiator (== q for kWriteR)
  std::uint32_t r2 = 0;  ///< post-state of the responder (== r for kWriteQ)

  Op op() const { return static_cast<Op>(meta & 0xff); }
  std::int32_t accepting_delta() const {
    return static_cast<std::int8_t>((meta >> 8) & 0xff);
  }
  static std::uint32_t pack_meta(Op op, std::int32_t accepting_delta) {
    return static_cast<std::uint32_t>(op) |
           ((static_cast<std::uint32_t>(accepting_delta) & 0xff) << 8);
  }

  friend bool operator==(const Cell&, const Cell&) = default;
};

class CompiledProtocol {
 public:
  /// entry_of result for a pair with no candidate transitions at all.
  static constexpr std::uint32_t kAbsent = 0xffffffffu;
  /// entry_of result for a pair whose candidates are all silent: it has
  /// "any" candidates (pp::Protocol records the meeting) but no active
  /// position — firing it cannot change the configuration.
  static constexpr std::uint32_t kSilentOnly = 0xfffffffeu;

  /// Largest |Q| for which the pair bitsets are built (8 MB each at the
  /// cap) — same threshold the legacy PairIndex used.
  static constexpr std::size_t kBitsetStates = 8192;

  /// The flat tables; see the member comments for invariants. Exported by
  /// raw() and re-imported by adopt() (which validates everything).
  struct RawTables {
    std::uint32_t num_states = 0;
    std::uint32_t num_transitions = 0;
    /// Pair-lookup strategy: dense 2-D array iff non-empty.
    std::vector<std::uint32_t> dense;  ///< |Q|² entries, row-major by q
    /// CHD perfect hash (used iff dense is empty): displacement per bucket,
    /// then open slots holding (key, entry) with key == ~0 for empty.
    std::vector<std::uint32_t> ph_disp;         ///< power-of-two size
    std::vector<std::uint64_t> ph_key;          ///< power-of-two size
    std::vector<std::uint32_t> ph_entry;        ///< parallel to ph_key
    /// Active-pair adjacency, (q asc, r asc): pair position p covers
    /// (q, out_flat[p]) for p in [out_begin[q], out_begin[q+1]).
    std::vector<std::uint32_t> out_begin;  ///< size |Q|+1
    std::vector<std::uint32_t> out_flat;   ///< ascending within each row
    std::vector<std::uint32_t> in_begin;   ///< size |Q|+1
    std::vector<std::uint32_t> in_flat;    ///< ascending within each row
    std::vector<std::uint8_t> self_active;  ///< size |Q|
    /// Candidate CSR by pair position: transition indices in transition
    /// order (identical to the legacy Protocol::transitions_for spans).
    std::vector<std::uint32_t> cand_begin;  ///< size P+1
    std::vector<std::uint32_t> cand_flat;
    std::vector<Cell> cells;  ///< parallel to cand_flat
    /// Pair bitsets, built iff |Q| <= kBitsetStates (both empty
    /// otherwise). The two bitsets are |Q| rows of W = ⌈|Q|/64⌉ words.
    /// active_bits row q: bit r set iff (q, r) is active — q's partners,
    /// the out CSR row.
    std::vector<std::uint64_t> active_bits;
    /// active_cols row r: bit q set iff (q, r) is active — the initiators
    /// meeting r, the in CSR row; the transpose of active_bits.
    std::vector<std::uint64_t> active_cols;
    // ignored; kept only because perfbench/ reads it
    std::vector<std::uint64_t> any_bits;  ///< always empty
  };

  /// Lower a finalized (or mid-finalize) protocol. Validates the result.
  static std::shared_ptr<const CompiledProtocol> compile(
      const pp::Protocol& protocol);

  /// Adopt externally produced tables. Throws std::invalid_argument when
  /// any structural invariant is violated (sizes, CSR monotonicity,
  /// out-of-range indices, unsorted adjacency, an in CSR that is not the
  /// out CSR's transpose, inconsistent cells or lookup tables, pair
  /// bitsets that disagree with the CSRs).
  static std::shared_ptr<const CompiledProtocol> adopt(RawTables tables);

  /// Copy of the flat tables (for round-trip/golden tests and tooling).
  const RawTables& raw() const { return t_; }

  std::size_t num_states() const { return t_.num_states; }
  std::size_t num_active_pairs() const { return t_.out_flat.size(); }
  bool dense_lookup() const { return !t_.dense.empty(); }

  /// Pair position of (q, r) in [0, num_active_pairs()), or kSilentOnly /
  /// kAbsent. One load for dense protocols, one displaced probe for
  /// perfect-hashed ones.
  std::uint32_t entry_of(pp::State q, pp::State r) const {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(q) << 32) | r;
    if (!t_.dense.empty())
      return t_.dense[static_cast<std::size_t>(q) * t_.num_states + r];
    const std::uint32_t d =
        t_.ph_disp[mix(key) & (t_.ph_disp.size() - 1)];
    const std::size_t slot =
        mix(key ^ (0x9e3779b97f4a7c15ULL * d)) & (t_.ph_key.size() - 1);
    return t_.ph_key[slot] == key ? t_.ph_entry[slot] : kAbsent;
  }

  /// Candidate transition indices of active pair position `pos` —
  /// identical indices in identical order to the legacy
  /// Protocol::transitions_for span.
  std::span<const std::uint32_t> candidates(std::uint32_t pos) const {
    return {t_.cand_flat.data() + t_.cand_begin[pos],
            t_.cand_flat.data() + t_.cand_begin[pos + 1]};
  }
  /// The pair's compiled cells, parallel to candidates(pos).
  std::span<const Cell> cells(std::uint32_t pos) const {
    return {t_.cells.data() + t_.cand_begin[pos],
            t_.cells.data() + t_.cand_begin[pos + 1]};
  }

  /// States r such that (q, r) is active, q as the initiator; ascending.
  std::span<const pp::State> partners_of(pp::State q) const {
    return {t_.out_flat.data() + t_.out_begin[q],
            t_.out_flat.data() + t_.out_begin[q + 1]};
  }
  /// First pair position of initiator q's row.
  std::uint32_t pair_offset(pp::State q) const { return t_.out_begin[q]; }
  /// States q such that (q, r) is active, r as the responder; ascending.
  std::span<const pp::State> initiators_meeting(pp::State r) const {
    return {t_.in_flat.data() + t_.in_begin[r],
            t_.in_flat.data() + t_.in_begin[r + 1]};
  }
  /// True iff (q, q) is active.
  bool self_active(pp::State q) const { return t_.self_active[q] != 0; }

  /// Words per pair-bitset row, ⌈|Q|/64⌉; 0 when the bitsets are not
  /// built (past kBitsetStates).
  std::size_t bitset_words() const { return words_; }
  /// Row q of active_bits: bit r set iff (q, r) is active. Needs bitsets.
  const std::uint64_t* active_row(pp::State q) const {
    return t_.active_bits.data() + static_cast<std::size_t>(q) * words_;
  }
  /// Row r of active_cols: bit q set iff (q, r) is active. Needs bitsets.
  const std::uint64_t* active_col(pp::State r) const {
    return t_.active_cols.data() + static_cast<std::size_t>(r) * words_;
  }

  /// True iff (q, r) has a non-silent candidate. O(1) via the bitset rows
  /// when built, O(log out-degree) binary search beyond kBitsetStates.
  bool pair_active(pp::State q, pp::State r) const {
    if (words_ != 0) return (active_row(q)[r >> 6] >> (r & 63)) & 1;
    const auto partners = partners_of(q);
    return std::binary_search(partners.begin(), partners.end(), r);
  }

  /// splitmix64 finalizer — the hash behind both perfect-hash levels.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

 private:
  explicit CompiledProtocol(RawTables tables)
      : t_(std::move(tables)),
        words_(t_.active_bits.empty() ? 0 : (t_.num_states + 63) / 64) {}

  RawTables t_;
  std::size_t words_;
};

}  // namespace ppde::isa
