#include "verify/interner.hpp"

#include <algorithm>
#include <stdexcept>

namespace ppde::verify {

namespace {

constexpr std::uint32_t kInitialSlots = 64;  // per shard, power of two
constexpr std::uint64_t kFirstBlockWords = 512;       // 4 KiB
constexpr std::uint64_t kMaxBlockWords = 1u << 20;    // 8 MiB
constexpr std::uint64_t kCopyChunk = 4096;  // nodes per publish() copy task

bool same_words(std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// True iff a table of `slots` slots must double before taking its
/// `entries`-th entry (load factor stays below 3/4).
bool over_load(std::uint64_t entries, std::uint64_t slots) {
  return entries * 4 >= slots * 3;
}

}  // namespace

Interner::Interner()
    : next_block_words_(kFirstBlockWords),
      table_slots_(std::uint64_t{kNumShards} * kInitialSlots) {
  for (Shard& shard : shards_) {
    shard.slots.assign(kInitialSlots, Slot{});
    shard.capacity = kInitialSlots;
  }
}

std::uint32_t Interner::find(std::span<const std::uint64_t> words,
                             std::uint64_t hash) const {
  const Shard& shard = shard_for(hash);
  const std::uint32_t entry = shard.slots[probe(shard, words, hash)].entry;
  return entry == 0 ? kNotFound : entry - 1;
}

std::pair<std::uint32_t, bool> Interner::intern(
    std::span<const std::uint64_t> words, std::uint64_t hash) {
  Shard& shard = shard_for(hash);
  const std::uint32_t pos = probe(shard, words, hash);
  if (shard.slots[pos].entry != 0) return {shard.slots[pos].entry - 1, false};
  const std::uint32_t id = new_id();
  const auto length = static_cast<std::uint32_t>(words.size());
  std::uint64_t* stored = allocate(length);
  std::copy(words.begin(), words.end(), stored);
  nodes_.push_back({stored, length});
  published_ = size();
  insert(shard, pos, {static_cast<std::uint32_t>(hash), id + 1});
  count_entry(shard);
  return {id, true};
}

Interner::Staging Interner::stage(std::span<const std::uint64_t> words,
                                  std::uint64_t hash) {
  Shard& shard = shard_for(hash);
  std::uint32_t pos = probe(shard, words, hash);
  const std::uint32_t entry = shard.slots[pos].entry;
  if (entry != 0) return {entry < kStaged ? entry - 1 : entry, false};
  const std::uint32_t ref =
      kStaged | static_cast<std::uint32_t>(shard.staged.size());
  pos = insert(shard, pos, {static_cast<std::uint32_t>(hash), ref});
  shard.staged.push_back({words.data(),
                          static_cast<std::uint32_t>(words.size()), pos,
                          kNotFound});
  return {ref, true};
}

std::uint32_t Interner::admit(std::uint64_t hash, std::uint32_t ref) {
  Shard& shard = shard_for(hash);
  Staged& staged = shard.staged[ref & ~kStaged];
  staged.id = new_id();
  nodes_.push_back({allocate(staged.length), staged.length});
  pending_.push_back(staged.words);
  count_entry(shard);
  return staged.id;
}

void Interner::publish(engine::WorkerPool& pool) {
  const std::uint32_t first = published_;
  const std::uint64_t copies = pending_.size();
  const std::uint64_t chunks = (copies + kCopyChunk - 1) / kCopyChunk;
  pool.parallel_for(kNumShards + chunks, [&](std::uint64_t task) {
    if (task < kNumShards) {
      settle(shards_[task]);
      return;
    }
    const std::uint64_t begin = (task - kNumShards) * kCopyChunk;
    const std::uint64_t end = std::min(copies, begin + kCopyChunk);
    for (std::uint64_t k = begin; k < end; ++k) {
      const Node& node = nodes_[first + k];
      std::copy_n(pending_[k], node.length, node.words);
    }
  });
  pending_.clear();
  published_ = size();
}

std::uint64_t Interner::bytes() const {
  return arena_words_ * sizeof(std::uint64_t) +
         nodes_.capacity() * sizeof(Node) + table_slots_ * sizeof(Slot);
}

std::uint32_t Interner::new_id() {
  if (nodes_.size() >= kStaged - 1)
    throw std::length_error("verify::Interner: more than 2^31 - 2 states");
  return size();
}

std::uint64_t* Interner::allocate(std::uint32_t length) {
  if (static_cast<std::uint64_t>(block_end_ - cursor_) < length) {
    const std::uint64_t words = std::max<std::uint64_t>(next_block_words_,
                                                        length);
    blocks_.emplace_back(new std::uint64_t[words]);
    cursor_ = blocks_.back().get();
    block_end_ = cursor_ + words;
    arena_words_ += words;
    next_block_words_ = std::min(next_block_words_ * 2, kMaxBlockWords);
  }
  std::uint64_t* out = cursor_;
  cursor_ += length;
  return out;
}

void Interner::count_entry(Shard& shard) {
  ++shard.count;
  if (over_load(shard.count, shard.capacity)) {
    table_slots_ += shard.capacity;
    shard.capacity *= 2;
  }
}

std::uint32_t Interner::probe(const Shard& shard,
                              std::span<const std::uint64_t> words,
                              std::uint64_t hash) const {
  const auto tag = static_cast<std::uint32_t>(hash);
  const auto mask = static_cast<std::uint32_t>(shard.slots.size()) - 1;
  std::uint32_t pos = tag & mask;
  for (; shard.slots[pos].entry != 0; pos = (pos + 1) & mask) {
    const Slot& slot = shard.slots[pos];
    if (slot.tag != tag) continue;
    if (slot.entry < kStaged) {
      if (same_words(state(slot.entry - 1), words)) break;
    } else {
      const Staged& staged = shard.staged[slot.entry & ~kStaged];
      if (same_words({staged.words, staged.length}, words)) break;
    }
  }
  return pos;
}

std::uint32_t Interner::insert(Shard& shard, std::uint32_t pos, Slot slot) {
  if (!over_load(shard.count + shard.staged.size() + 1, shard.slots.size())) {
    shard.slots[pos] = slot;
    return pos;
  }
  grow(shard);
  return place(shard, slot);
}

void Interner::grow(Shard& shard) {
  std::vector<Slot> old(shard.slots.size() * 2);
  old.swap(shard.slots);
  for (const Slot& slot : old) {
    if (slot.entry == 0) continue;
    const std::uint32_t pos = place(shard, slot);
    if (slot.entry >= kStaged) shard.staged[slot.entry & ~kStaged].slot = pos;
  }
}

std::uint32_t Interner::place(Shard& shard, Slot slot) {
  const auto mask = static_cast<std::uint32_t>(shard.slots.size()) - 1;
  std::uint32_t pos = slot.tag & mask;
  while (shard.slots[pos].entry != 0) pos = (pos + 1) & mask;
  shard.slots[pos] = slot;
  return pos;
}

void Interner::settle(Shard& shard) {
  bool dropped = false;
  for (const Staged& staged : shard.staged) {
    if (staged.id == kNotFound)
      dropped = true;
    else
      shard.slots[staged.slot].entry = staged.id + 1;
  }
  shard.staged.clear();
  if (!dropped) return;
  // A budget cut stopped the merge before these entries were admitted:
  // rebuild the table from the committed entries at the size they need.
  std::vector<Slot> old(shard.capacity);
  old.swap(shard.slots);
  for (const Slot& slot : old)
    if (slot.entry != 0 && slot.entry < kStaged) place(shard, slot);
}

}  // namespace ppde::verify
