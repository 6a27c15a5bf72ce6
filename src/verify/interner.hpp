// Arena-backed sharded state interner for the verification kernel (S22).
//
// Every exhaustive explorer in this library maps variable-length encoded
// states (sparse protocol configurations, program nodes, machine nodes —
// all sequences of u64 words) to dense u32 node ids. The interner stores
// all state words back to back in a chain of arena blocks that never move
// (each block twice the previous one, up to a cap, so small explorations
// stay small and large ones never copy), keeps a (pointer, length) pair
// per node, and finds ids through 16 open-addressing tables sharded by the
// high hash bits. Each slot holds a 32-bit hash tag next to the id, so a
// probe rejects most non-matches without touching the arena and a table
// grows without rehashing any state.
//
// Two ways to add states:
//   * intern() — one state at a time, single-threaded (roots, tests);
//   * the wave merge the kernel runs, in three phases:
//       1. stage()   — parallel, at most one caller per shard: resolves a
//                      state to a committed id, to an earlier staged entry
//                      of the same wave, or stages it as a new entry;
//       2. admit() / admitted() — sequential and hash-free: gives a staged
//                      entry the next id (reserving its arena space) or
//                      reads the id its first occurrence was given;
//       3. publish() — parallel: copies the admitted words into the arena
//                      and turns staged slots into committed ids, dropping
//                      the staged entries no admit() reached (budget cut).
//
// Concurrency contract: find() and state() are safe concurrently with each
// other, between waves (no staged entries). stage() on different shards is
// safe concurrently; nothing else may run alongside it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "engine/pool.hpp"
#include "support/hash.hpp"

namespace ppde::verify {

/// Hash of an encoded state; the seed matches support::hash_range so the
/// same words hash identically regardless of container type.
inline std::uint64_t hash_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const std::uint64_t w : words) h = support::hash_combine(h, w);
  return h;
}

class Interner {
 public:
  static constexpr std::uint32_t kNotFound = 0xffffffffu;
  /// stage() references at or above this bit name a staged entry; below
  /// it they are committed ids. Ids therefore stay below 2^31 - 1.
  static constexpr std::uint32_t kStaged = 0x80000000u;
  static constexpr unsigned kShardBits = 4;
  static constexpr unsigned kNumShards = 1u << kShardBits;

  static unsigned shard_of(std::uint64_t hash) {
    return static_cast<unsigned>(hash >> (64 - kShardBits));
  }

  Interner();

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// The stored words of node `id`; valid for the interner's lifetime.
  std::span<const std::uint64_t> state(std::uint32_t id) const {
    const Node& node = nodes_[id];
    return {node.words, node.length};
  }

  /// Id of `words` if already interned, else kNotFound. Read-only.
  std::uint32_t find(std::span<const std::uint64_t> words,
                     std::uint64_t hash) const;

  /// Id of `words`, interning it if new; second = inserted.
  std::pair<std::uint32_t, bool> intern(std::span<const std::uint64_t> words,
                                        std::uint64_t hash);

  /// Heap footprint in bytes: arena blocks + node table + id tables at the
  /// size the committed entries need. Exact between waves; during a merge
  /// pass it already counts every admitted entry.
  std::uint64_t bytes() const;

  struct Staging {
    std::uint32_t ref = 0;  ///< committed id, or kStaged | staged index
    bool first = false;     ///< this call staged the entry (vs. a repeat)
  };
  /// Phase 1. `words` must stay valid until publish().
  Staging stage(std::span<const std::uint64_t> words, std::uint64_t hash);
  /// Phase 2: the next id for the staged entry `ref` of `hash`'s shard.
  std::uint32_t admit(std::uint64_t hash, std::uint32_t ref);
  /// Phase 2: the id admit() gave the staged entry `ref`.
  std::uint32_t admitted(std::uint64_t hash, std::uint32_t ref) const {
    return shards_[shard_of(hash)].staged[ref & ~kStaged].id;
  }
  /// Phase 3.
  void publish(engine::WorkerPool& pool);

  /// Start loading the table slot a probe for `hash` reads first.
  void prefetch(std::uint64_t hash) const {
    const Shard& shard = shard_for(hash);
    __builtin_prefetch(shard.slots.data() + (static_cast<std::uint32_t>(hash) &
                                             (shard.slots.size() - 1)));
  }

 private:
  struct Node {
    std::uint64_t* words = nullptr;
    std::uint32_t length = 0;
  };
  struct Slot {
    std::uint32_t tag = 0;    ///< low 32 hash bits
    std::uint32_t entry = 0;  ///< 0 empty, id + 1, or kStaged | index
  };
  struct Staged {
    const std::uint64_t* words = nullptr;
    std::uint32_t length = 0;
    std::uint32_t slot = 0;        ///< position in the shard's table
    std::uint32_t id = kNotFound;  ///< kNotFound until admitted
  };
  struct Shard {
    std::vector<Slot> slots;
    std::uint32_t count = 0;     ///< committed entries
    std::uint32_t capacity = 0;  ///< table size `count` entries need
    std::vector<Staged> staged;  ///< this wave's new entries
  };

  Shard& shard_for(std::uint64_t hash) { return shards_[shard_of(hash)]; }
  const Shard& shard_for(std::uint64_t hash) const {
    return shards_[shard_of(hash)];
  }
  /// Slot holding `words` (committed or staged), else the empty slot
  /// that ends its probe sequence.
  std::uint32_t probe(const Shard& shard, std::span<const std::uint64_t> words,
                      std::uint64_t hash) const;
  /// Store `slot` at the empty `pos` found by probe(), or wherever it
  /// lands if the table has to grow first; returns its position.
  std::uint32_t insert(Shard& shard, std::uint32_t pos, Slot slot);
  std::uint32_t new_id();
  std::uint64_t* allocate(std::uint32_t length);
  void count_entry(Shard& shard);
  static void grow(Shard& shard);
  static std::uint32_t place(Shard& shard, Slot slot);
  static void settle(Shard& shard);

  std::vector<std::unique_ptr<std::uint64_t[]>> blocks_;
  std::uint64_t* cursor_ = nullptr;
  std::uint64_t* block_end_ = nullptr;
  std::uint64_t arena_words_ = 0;  ///< words in all blocks
  std::uint64_t next_block_words_;
  std::vector<Node> nodes_;
  std::uint64_t table_slots_;  ///< sum of the shards' capacity
  /// Source words of the nodes admitted since the last publish(), which
  /// start at id `published_`.
  std::vector<const std::uint64_t*> pending_;
  std::uint32_t published_ = 0;
  Shard shards_[kNumShards];
};

}  // namespace ppde::verify
