#include "isa/compiled.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

namespace ppde::isa {

namespace {

constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

std::uint64_t pair_key(pp::State q, pp::State r) {
  return (static_cast<std::uint64_t>(q) << 32) | r;
}

std::size_t ph_slot(std::uint64_t key, std::uint32_t d, std::size_t slots) {
  return CompiledProtocol::mix(key ^ (0x9e3779b97f4a7c15ULL * d)) &
         (slots - 1);
}

/// Build the CHD perfect hash over (key, entry) pairs. Greedy
/// hash-and-displace: buckets by first-level hash, largest first, each
/// displaced until its keys land in free slots. Grows the slot table and
/// retries on (astronomically unlikely) failure.
void build_perfect_hash(
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& entries,
    CompiledProtocol::RawTables& t) {
  const std::size_t n = entries.size();
  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(1, n / 4));
  std::size_t slots = std::bit_ceil(std::max<std::size_t>(2, n + n / 4));
  std::vector<std::vector<std::uint32_t>> bucket_of(buckets);
  for (std::uint32_t i = 0; i < n; ++i)
    bucket_of[CompiledProtocol::mix(entries[i].first) & (buckets - 1)]
        .push_back(i);
  std::vector<std::uint32_t> order(buckets);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return bucket_of[a].size() > bucket_of[b].size();
  });
  for (;; slots *= 2) {
    t.ph_disp.assign(buckets, 0);
    t.ph_key.assign(slots, kEmptyKey);
    t.ph_entry.assign(slots, CompiledProtocol::kAbsent);
    bool ok = true;
    std::vector<std::size_t> claimed;
    for (std::uint32_t b : order) {
      const auto& members = bucket_of[b];
      if (members.empty()) break;  // sorted descending: the rest are empty
      std::uint32_t d = 0;
      for (;; ++d) {
        if (d > 1u << 20) {
          ok = false;
          break;
        }
        claimed.clear();
        bool fits = true;
        for (std::uint32_t i : members) {
          const std::size_t slot = ph_slot(entries[i].first, d, slots);
          if (t.ph_key[slot] != kEmptyKey ||
              std::find(claimed.begin(), claimed.end(), slot) !=
                  claimed.end()) {
            fits = false;
            break;
          }
          claimed.push_back(slot);
        }
        if (fits) break;
      }
      if (!ok) break;
      t.ph_disp[b] = d;
      for (std::uint32_t i : members) {
        const std::size_t slot = ph_slot(entries[i].first, d, slots);
        t.ph_key[slot] = entries[i].first;
        t.ph_entry[slot] = entries[i].second;
      }
    }
    if (ok) return;
  }
}

[[noreturn, gnu::cold, gnu::noinline]] void fail(const char* what) {
  throw std::invalid_argument(std::string("CompiledProtocol: ") + what);
}

/// Inlined: validate() runs millions of checks on a large table.
inline void check(bool condition, const char* what) {
  if (!condition) [[unlikely]] fail(what);
}

/// Monotone CSR offsets covering [0, flat_size] with `rows` rows.
void check_csr(const std::vector<std::uint32_t>& begin, std::size_t rows,
               std::size_t flat_size, const char* what) {
  check(begin.size() == rows + 1, what);
  check(begin.front() == 0 && begin.back() == flat_size, what);
  for (std::size_t i = 0; i + 1 < begin.size(); ++i)
    check(begin[i] <= begin[i + 1], what);
}

/// Transpose a 64×64 bit block in place: bit j of b[k] becomes bit k of
/// b[j] (the recursive block swap of Hacker's Delight 7-3).
void transpose_block(std::array<std::uint64_t, 64>& b) {
  std::uint64_t mask = 0x00000000ffffffffULL;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j)
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t x = ((b[k] >> j) ^ b[k + j]) & mask;
      b[k] ^= x << j;
      b[k + j] ^= x;
    }
}

/// The bit transpose of `n` rows of `words` words each (bits past `n` in
/// the rows are dropped), one 64×64 block at a time.
std::vector<std::uint64_t> transpose_bits(
    const std::vector<std::uint64_t>& rows, std::size_t n, std::size_t words) {
  std::vector<std::uint64_t> cols(n * words);
  std::array<std::uint64_t, 64> block;
  for (std::size_t bi = 0; bi < words; ++bi)
    for (std::size_t bj = 0; bj < words; ++bj) {
      for (std::size_t k = 0; k < 64; ++k) {
        const std::size_t q = bi * 64 + k;
        block[k] = q < n ? rows[q * words + bj] : 0;
      }
      transpose_block(block);
      for (std::size_t k = 0; k < 64 && bj * 64 + k < n; ++k)
        cols[(bj * 64 + k) * words + bi] = block[k];
    }
  return cols;
}

/// One bitset row of `words` words per CSR row: bit j of row i set iff j
/// is listed in row i (entries must be < `words` · 64).
std::vector<std::uint64_t> csr_bits(const std::vector<std::uint32_t>& begin,
                                    const std::vector<std::uint32_t>& flat,
                                    std::size_t words) {
  std::vector<std::uint64_t> bits((begin.size() - 1) * words, 0);
  for (std::size_t i = 0; i + 1 < begin.size(); ++i)
    for (std::uint32_t p = begin[i]; p < begin[i + 1]; ++p)
      bits[i * words + (flat[p] >> 6)] |= std::uint64_t{1} << (flat[p] & 63);
  return bits;
}

void validate(const CompiledProtocol::RawTables& t) {
  const std::size_t n = t.num_states;
  const std::size_t pairs = t.out_flat.size();
  check_csr(t.out_begin, n, pairs, "malformed out CSR");
  check_csr(t.in_begin, n, t.in_flat.size(), "malformed in CSR");
  check(t.in_flat.size() == pairs, "in/out pair-count mismatch");
  check(t.self_active.size() == n, "self_active size");
  check_csr(t.cand_begin, pairs, t.cand_flat.size(), "malformed cand CSR");
  check(t.cells.size() == t.cand_flat.size(), "cells/cand size mismatch");
  // Pair bitsets: both or neither, sized for |Q|; below, each is checked
  // against the CSRs — the engine walks them instead.
  check(t.any_bits.empty(), "any_bits must be empty");
  const bool bitsets = !t.active_bits.empty();
  const std::size_t words = (n + 63) / 64;
  if (bitsets) {
    check(n <= CompiledProtocol::kBitsetStates, "bitsets past kBitsetStates");
    check(t.active_bits.size() == n * words &&
              t.active_cols.size() == n * words,
          "bitset size");
  } else {
    check(t.active_cols.empty(), "pair bitsets: both or neither");
  }
  for (pp::State q = 0; q < n; ++q) {
    const auto* flat = t.out_flat.data();
    for (std::uint32_t p = t.out_begin[q]; p < t.out_begin[q + 1]; ++p) {
      check(flat[p] < n, "partner out of range");
      check(p == t.out_begin[q] || flat[p - 1] < flat[p],
            "partners not strictly ascending");
      // Every active pair needs at least one (non-silent) candidate.
      check(t.cand_begin[p] < t.cand_begin[p + 1], "active pair without "
                                                   "candidates");
      check((q == flat[p]) == false || t.self_active[q] != 0,
            "self_active inconsistent");
    }
    for (std::uint32_t p = t.in_begin[q]; p < t.in_begin[q + 1]; ++p) {
      check(t.in_flat[p] < n, "initiator out of range");
      check(p == t.in_begin[q] || t.in_flat[p - 1] < t.in_flat[p],
            "initiators not strictly ascending");
    }
  }
  // The in CSR is the out CSR's transpose. With the bitsets equal to the
  // CSRs (strictly ascending rows, so no entry is lost to a repeat) that
  // is one bit-matrix transpose; without them, walk the initiators in
  // ascending order: each active (q, r) must be next in r's list, and
  // both CSRs hold `pairs` entries, so every in entry is matched exactly
  // once.
  if (bitsets) {
    check(t.active_bits == csr_bits(t.out_begin, t.out_flat, words),
          "active_bits row disagrees with the out CSR");
    check(t.active_cols == csr_bits(t.in_begin, t.in_flat, words),
          "active_cols row disagrees with the in CSR");
    check(t.active_cols == transpose_bits(t.active_bits, n, words),
          "in CSR is not the transpose of the out CSR");
  } else {
    std::vector<std::uint32_t> next_in(t.in_begin.begin(),
                                       t.in_begin.end() - 1);
    for (pp::State q = 0; q < n; ++q)
      for (std::uint32_t p = t.out_begin[q]; p < t.out_begin[q + 1]; ++p) {
        const pp::State r = t.out_flat[p];
        check(next_in[r] < t.in_begin[r + 1] && t.in_flat[next_in[r]] == q,
              "in CSR is not the transpose of the out CSR");
        ++next_in[r];
      }
  }
  for (std::size_t i = 0; i < t.cand_flat.size(); ++i) {
    check(t.cand_flat[i] < t.num_transitions, "candidate index out of range");
    const Cell& cell = t.cells[i];
    check((cell.meta & 0xff) < kNumOps, "unknown opcode");
    check(cell.q2 < n && cell.r2 < n, "cell post-state out of range");
    const std::int32_t delta = cell.accepting_delta();
    check(delta >= -2 && delta <= 2, "accepting delta out of range");
  }
  // Lookup table: exactly one strategy, covering every pair position once.
  check(t.dense.empty() != t.ph_key.empty(), "need exactly one lookup table");
  std::vector<std::uint8_t> seen(pairs, 0);
  auto see = [&](std::uint32_t entry) {
    if (entry == CompiledProtocol::kSilentOnly) return;
    check(entry < pairs, "lookup entry out of range");
    check(!seen[entry], "duplicate lookup entry");
    seen[entry] = 1;
  };
  if (!t.dense.empty()) {
    check(t.dense.size() == n * n, "dense table size");
    for (std::uint32_t entry : t.dense)
      if (entry != CompiledProtocol::kAbsent) see(entry);
  } else {
    check(std::has_single_bit(t.ph_key.size()) &&
              std::has_single_bit(t.ph_disp.size()),
          "perfect-hash sizes not powers of two");
    check(t.ph_entry.size() == t.ph_key.size(), "perfect-hash table sizes");
    for (std::size_t slot = 0; slot < t.ph_key.size(); ++slot) {
      if (t.ph_key[slot] == kEmptyKey) continue;
      const std::uint64_t key = t.ph_key[slot];
      const pp::State q = static_cast<pp::State>(key >> 32);
      const pp::State r = static_cast<pp::State>(key);
      check(q < n && r < n, "perfect-hash key out of range");
      // The stored slot must be where lookup probes for this key.
      const std::uint32_t d =
          t.ph_disp[CompiledProtocol::mix(key) & (t.ph_disp.size() - 1)];
      check(ph_slot(key, d, t.ph_key.size()) == slot,
            "perfect-hash slot mismatch");
      see(t.ph_entry[slot]);
    }
  }
  for (std::size_t p = 0; p < pairs; ++p)
    check(seen[p], "pair position missing from lookup table");
}

}  // namespace

std::shared_ptr<const CompiledProtocol> CompiledProtocol::compile(
    const pp::Protocol& protocol) {
  RawTables t;
  const std::size_t n = protocol.num_states();
  t.num_states = static_cast<std::uint32_t>(n);
  t.num_transitions = static_cast<std::uint32_t>(protocol.num_transitions());
  const auto& transitions = protocol.transitions();

  // Active adjacency: the pairs with a non-silent candidate. Silent-only
  // pairs get no position; they reach the lookup table as kSilentOnly.
  std::vector<std::vector<pp::State>> out(n);
  std::vector<std::vector<pp::State>> in(n);
  for (const pp::Transition& tr : transitions)
    if (!tr.is_silent()) out[tr.q].push_back(tr.r);
  t.self_active.assign(n, 0);
  t.out_begin.assign(n + 1, 0);
  t.in_begin.assign(n + 1, 0);
  for (pp::State q = 0; q < n; ++q) {
    auto& partners = out[q];
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    for (pp::State r : partners) {
      if (r == q) t.self_active[q] = 1;
      in[r].push_back(q);
    }
  }
  for (pp::State q = 0; q < n; ++q) {
    t.out_begin[q + 1] =
        t.out_begin[q] + static_cast<std::uint32_t>(out[q].size());
    t.in_begin[q + 1] =
        t.in_begin[q] + static_cast<std::uint32_t>(in[q].size());
  }
  t.out_flat.reserve(t.out_begin[n]);
  t.in_flat.reserve(t.in_begin[n]);
  for (pp::State q = 0; q < n; ++q) {
    t.out_flat.insert(t.out_flat.end(), out[q].begin(), out[q].end());
    t.in_flat.insert(t.in_flat.end(), in[q].begin(), in[q].end());
  }
  const std::size_t pairs = t.out_flat.size();

  // Candidate CSR in pair-position order; candidates of a pair keep
  // transition order — the order Protocol::finalize() recorded them and
  // every candidate pick consumes the RNG by.
  std::vector<std::vector<std::uint32_t>> by_pair(pairs);
  // Pairs whose candidates are all silent still answer entry_of (the
  // count engine's meeting rejection needs them); collect them per key.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> lookup;
  for (std::uint32_t i = 0; i < transitions.size(); ++i) {
    const pp::Transition& tr = transitions[i];
    if (tr.is_silent()) {
      lookup.emplace_back(pair_key(tr.q, tr.r), kSilentOnly);
      continue;
    }
    const auto row = std::span<const pp::State>(
        t.out_flat.data() + t.out_begin[tr.q],
        t.out_flat.data() + t.out_begin[tr.q + 1]);
    const auto it = std::lower_bound(row.begin(), row.end(), tr.r);
    const auto pos =
        t.out_begin[tr.q] + static_cast<std::uint32_t>(it - row.begin());
    by_pair[pos].push_back(i);
  }
  t.cand_begin.assign(pairs + 1, 0);
  for (std::size_t p = 0; p < pairs; ++p)
    t.cand_begin[p + 1] =
        t.cand_begin[p] + static_cast<std::uint32_t>(by_pair[p].size());
  t.cand_flat.reserve(t.cand_begin[pairs]);
  t.cells.reserve(t.cand_begin[pairs]);
  for (std::size_t p = 0; p < pairs; ++p)
    for (std::uint32_t i : by_pair[p]) {
      t.cand_flat.push_back(i);
      const pp::Transition& tr = transitions[i];
      Op op = kNop;
      if (tr.q != tr.q2 && tr.r != tr.r2)
        op = (tr.q2 == tr.r && tr.r2 == tr.q) ? kSwap : kWriteBoth;
      else if (tr.q != tr.q2)
        op = kWriteQ;
      else if (tr.r != tr.r2)
        op = kWriteR;
      std::int32_t delta = 0;
      delta += static_cast<int>(protocol.is_accepting(tr.q2)) -
               static_cast<int>(protocol.is_accepting(tr.q));
      delta += static_cast<int>(protocol.is_accepting(tr.r2)) -
               static_cast<int>(protocol.is_accepting(tr.r));
      t.cells.push_back({Cell::pack_meta(op, delta), tr.q2, tr.r2});
    }

  // Pair-lookup entries: every active pair at its position, plus the
  // silent-only pairs collected above (deduplicated; active wins).
  for (pp::State q = 0; q < n; ++q)
    for (std::uint32_t p = t.out_begin[q]; p < t.out_begin[q + 1]; ++p)
      lookup.emplace_back(pair_key(q, t.out_flat[p]), p);
  std::sort(lookup.begin(), lookup.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // active position before sentinel
            });
  lookup.erase(std::unique(lookup.begin(), lookup.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               lookup.end());

  // Strategy choice: dense 2-D array while the |Q|² table stays small in
  // absolute terms or comparable to the perfect hash; hash-displace
  // beyond. The converted Czerner protocols (hundreds to tens of
  // thousands of states, sparse pairs) take the perfect hash.
  const std::size_t dense_bytes = n * n * sizeof(std::uint32_t);
  if (dense_bytes <= (std::size_t{256} << 10) ||
      dense_bytes <= lookup.size() * 64) {
    t.dense.assign(n * n, kAbsent);
    for (const auto& [key, entry] : lookup)
      t.dense[static_cast<std::size_t>(key >> 32) * n +
              static_cast<std::uint32_t>(key)] = entry;
  } else {
    build_perfect_hash(lookup, t);
  }

  if (n <= kBitsetStates) {
    const std::size_t words = (n + 63) / 64;
    t.active_bits = csr_bits(t.out_begin, t.out_flat, words);
    t.active_cols = csr_bits(t.in_begin, t.in_flat, words);
  }
  return adopt(std::move(t));
}

std::shared_ptr<const CompiledProtocol> CompiledProtocol::adopt(
    RawTables tables) {
  validate(tables);
  return std::shared_ptr<const CompiledProtocol>(
      new CompiledProtocol(std::move(tables)));
}

}  // namespace ppde::isa
