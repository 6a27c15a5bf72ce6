// The parallel state-space exploration kernel (S22).
//
// One exhaustive-exploration engine for all three exact decision
// procedures in this library (protocol configurations, program nodes,
// machine nodes). A *domain* supplies the state encoding and the successor
// function:
//
//   struct MyDomain {
//     // Must be const and safe to call concurrently from many threads.
//     void expand(std::span<const std::uint64_t> state,
//                 verify::Emitter& emit) const;
//   };
//
// States are arbitrary sequences of u64 words; `expand` reports each
// successor via `emit.emit(words)` (or `emit.emit_self()` for a self-loop)
// and may mark the node as a terminal event with `emit.set_terminal(tag)`.
//
// Determinism scheme (the S21 seed-derivation discipline, transposed to
// search): exploration proceeds in BFS waves, each in four phases.
//   1. Expand (parallel over nodes): each frontier node of the chunk writes
//      its successors, hashed, into its own buffer slot, so a buffer's
//      contents are a pure function of the node, never of the thread.
//   2. Stage (parallel over the 16 interner shards): each shard buckets its
//      own entries in (node, emission) order and resolves each to a
//      committed id, to an earlier entry of the same wave, or to a new
//      staged entry.
//   3. Merge (sequential, hash-free): walks the wave in node order, gives
//      each first occurrence the next id, writes the node's sorted,
//      deduplicated successor row to the CSR graph and checks the budgets.
//   4. Publish (parallel): copies the new states into the interner arena
//      and commits their table slots.
// Ids are handed out in (node, emission) order of first occurrence, so the
// id assignment, successor rows, edge counts and budget trip points are
// bit-identical at every thread count — and identical to the classic
// sequential BFS (expand node 0, intern its successors, expand node 1,
// ...) that the three pre-kernel explorers implemented.
//
// Budgets are explicit (nodes, edges, interner bytes); when one is hit
// the kernel stops expanding and reports a *partial* result — the stats
// carry what was explored and which budget tripped, instead of an empty
// "resource limit" verdict.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "engine/pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "verify/analysis.hpp"
#include "verify/interner.hpp"

namespace ppde::verify {

struct KernelOptions {
  std::uint64_t max_nodes = 2'000'000;
  std::uint64_t max_edges = UINT64_MAX;
  std::uint64_t max_bytes = UINT64_MAX;  ///< interner footprint budget
  /// Worker threads (including the caller); 0 = hardware concurrency.
  unsigned threads = 1;
  /// Frontier nodes expanded per parallel wave.
  std::uint32_t wave_chunk = 4096;
};

enum class LimitKind : std::uint8_t { kNone, kNodes, kEdges, kBytes };

struct KernelStats {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t bytes = 0;
  std::uint64_t waves = 0;
  bool complete = false;
  LimitKind limit = LimitKind::kNone;
};

/// Successor sink for one node's expansion. Owned by the kernel; each
/// frontier node of a wave gets its own slot, so domains never share one.
class Emitter {
 public:
  /// Record a successor state. It is hashed here and resolved to an id
  /// by the stage and merge phases.
  void emit(std::span<const std::uint64_t> words) {
    Entry entry;
    entry.hash = hash_words(words);
    entry.offset = static_cast<std::uint32_t>(words_.size());
    entry.length = static_cast<std::uint32_t>(words.size());
    words_.insert(words_.end(), words.begin(), words.end());
    entries_.push_back(entry);
    shards_ |= static_cast<std::uint16_t>(1u << Interner::shard_of(entry.hash));
  }

  /// Record a self-loop on the node being expanded.
  void emit_self() {
    Entry entry;
    entry.self = true;
    entries_.push_back(entry);
  }

  /// Mark the node a terminal event (excluded from bottom SCCs).
  void set_terminal(std::uint32_t tag) { terminal_ = tag; }

 private:
  template <typename Domain>
  friend class Kernel;

  struct Entry {
    std::uint64_t hash = 0;
    std::uint32_t offset = 0;  ///< into words_
    std::uint32_t length = 0;
    Interner::Staging staging;  ///< set by the stage phase
    bool self = false;
  };

  std::span<const std::uint64_t> words(const Entry& entry) const {
    return {words_.data() + entry.offset, entry.length};
  }

  void reset() {
    entries_.clear();
    words_.clear();
    shards_ = 0;
    terminal_ = kNoTerminal;
  }

  static_assert(Interner::kNumShards <= 16);
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> words_;
  std::uint16_t shards_ = 0;  ///< bit s: some entry hashes to shard s
  std::uint32_t terminal_ = kNoTerminal;
};

template <typename Domain>
class Kernel {
 public:
  Kernel(const Domain& domain, const KernelOptions& options)
      : domain_(domain), options_(options) {}

  /// Explore everything reachable from `roots`. Returns the stats; the
  /// graph accessors below are valid afterwards (partial on budget hit).
  const KernelStats& run(std::span<const std::vector<std::uint64_t>> roots) {
    obs::ObsSpan run_span("kernel_run", "verify");
    for (const std::vector<std::uint64_t>& root : roots)
      interner_.intern(root, hash_words(root));
    terminal_tags_.resize(interner_.size(), kNoTerminal);

    const unsigned threads =
        options_.threads != 0
            ? options_.threads
            : std::max(1u, std::thread::hardware_concurrency());
    engine::WorkerPool pool(threads);
    std::vector<Emitter> buffers(
        std::max<std::uint32_t>(options_.wave_chunk, 1));
    // Per buffer, the shards its entries hash to: a stage task skips the
    // buffers it has nothing in without touching them.
    std::vector<std::uint16_t> shard_masks(buffers.size());
    std::vector<std::vector<Pending>> buckets(Interner::kNumShards);

    stats_ = KernelStats{};
    // Exploration observability (S24): per-wave spans + live gauges for
    // the progress heartbeat. All updates happen on the sequential
    // control path, once per wave — never per node.
    obs::Registry& registry = obs::Registry::global();
    obs::Gauge& nodes_gauge = registry.gauge("verify.nodes");
    obs::Gauge& edges_gauge = registry.gauge("verify.edges");
    obs::Gauge& frontier_gauge = registry.gauge("verify.frontier");
    obs::Gauge& bytes_gauge = registry.gauge("verify.interner_bytes");
    obs::Histogram& wave_micros = registry.histogram("verify.wave_micros");
    std::uint32_t next = 0;
    std::vector<std::uint32_t>& targets = graph_.targets;
    while (next < interner_.size() && stats_.limit == LimitKind::kNone) {
      const std::uint32_t wave_start = next;
      const std::uint32_t wave = std::min<std::uint32_t>(
          interner_.size() - wave_start,
          static_cast<std::uint32_t>(buffers.size()));
      obs::ObsSpan wave_span("wave", "verify");
      wave_span.set_value(static_cast<double>(wave));
      const std::uint64_t wave_begin_ns = obs::now_ns();
      {
        obs::ObsSpan expand_span("expand", "verify");
        pool.parallel_for(wave, [&](std::uint64_t i) {
          buffers[i].reset();
          domain_.expand(
              interner_.state(wave_start + static_cast<std::uint32_t>(i)),
              buffers[i]);
          shard_masks[i] = buffers[i].shards_;
        });
      }
      {
        obs::ObsSpan stage_span("stage", "verify");
        pool.parallel_for(Interner::kNumShards, [&](std::uint64_t shard) {
          // Bucket this shard's entries in (node, emission) order, then
          // stage them with the table slot of a later entry prefetched.
          std::vector<Pending>& bucket = buckets[shard];
          bucket.clear();
          for (std::uint32_t i = 0; i < wave; ++i) {
            if (((shard_masks[i] >> shard) & 1) == 0) continue;
            for (Emitter::Entry& entry : buffers[i].entries_)
              if (!entry.self && Interner::shard_of(entry.hash) == shard)
                bucket.push_back({&buffers[i], &entry});
          }
          for (std::size_t k = 0; k < bucket.size(); ++k) {
            if (k + kPrefetchAhead < bucket.size())
              interner_.prefetch(bucket[k + kPrefetchAhead].entry->hash);
            Emitter::Entry& entry = *bucket[k].entry;
            entry.staging =
                interner_.stage(bucket[k].buffer->words(entry), entry.hash);
          }
        });
      }
      // Sequential merge: ids in node order, emission order.
      for (std::uint32_t i = 0; i < wave; ++i) {
        const std::uint32_t id = wave_start + i;
        if (interner_.size() > options_.max_nodes) {
          stats_.limit = LimitKind::kNodes;
          break;
        }
        const Emitter& buffer = buffers[i];
        terminal_tags_[id] = buffer.terminal_;
        const std::size_t row = targets.size();
        for (const Emitter::Entry& entry : buffer.entries_) {
          const Interner::Staging staging = entry.staging;
          if (entry.self)
            targets.push_back(id);
          else if (staging.ref < Interner::kStaged)
            targets.push_back(staging.ref);
          else if (staging.first)
            targets.push_back(interner_.admit(entry.hash, staging.ref));
          else
            targets.push_back(interner_.admitted(entry.hash, staging.ref));
        }
        std::sort(targets.begin() + row, targets.end());
        targets.erase(std::unique(targets.begin() + row, targets.end()),
                      targets.end());
        graph_.offsets.push_back(targets.size());
        stats_.edges += targets.size() - row;
        if (stats_.edges > options_.max_edges) {
          stats_.limit = LimitKind::kEdges;
          break;
        }
        if (interner_.bytes() > options_.max_bytes) {
          stats_.limit = LimitKind::kBytes;
          break;
        }
        ++next;
      }
      {
        obs::ObsSpan publish_span("publish", "verify");
        interner_.publish(pool);
      }
      terminal_tags_.resize(interner_.size(), kNoTerminal);
      ++stats_.waves;
      nodes_gauge.set(static_cast<double>(interner_.size()));
      edges_gauge.set(static_cast<double>(stats_.edges));
      frontier_gauge.set(static_cast<double>(interner_.size() - next));
      bytes_gauge.set(static_cast<double>(interner_.bytes()));
      wave_micros.record((obs::now_ns() - wave_begin_ns) / 1000);
      obs::trace_counter("verify.interner_bytes",
                         static_cast<double>(interner_.bytes()));
    }
    // Nodes never expanded (frontier left by a budget cut) get empty rows.
    graph_.offsets.resize(interner_.size() + 1, targets.size());

    stats_.nodes = interner_.size();
    stats_.bytes = interner_.bytes();
    stats_.complete = stats_.limit == LimitKind::kNone;
    return stats_;
  }

  std::uint32_t num_nodes() const { return interner_.size(); }
  std::span<const std::uint64_t> state(std::uint32_t id) const {
    return interner_.state(id);
  }
  /// Id of `words` if explored, else Interner::kNotFound.
  std::uint32_t find(std::span<const std::uint64_t> words) const {
    return interner_.find(words, hash_words(words));
  }
  /// Successor rows, sorted and deduplicated per node.
  const support::CsrGraph& graph() const { return graph_; }
  const std::vector<std::uint32_t>& terminal_tags() const {
    return terminal_tags_;
  }
  std::uint32_t terminal_tag(std::uint32_t id) const {
    return terminal_tags_[id];
  }
  const KernelStats& stats() const { return stats_; }

  /// Tarjan + bottom-SCC flags over the explored graph.
  SccAnalysis analyse() const {
    return analyse_sccs(graph_, terminal_tags_);
  }

 private:
  /// An entry waiting in its shard's stage bucket.
  struct Pending {
    const Emitter* buffer = nullptr;
    Emitter::Entry* entry = nullptr;
  };
  /// Stage-phase lookahead, in entries, of the table-slot prefetch.
  static constexpr std::size_t kPrefetchAhead = 8;

  const Domain& domain_;
  KernelOptions options_;
  Interner interner_;
  support::CsrGraph graph_;
  std::vector<std::uint32_t> terminal_tags_;
  KernelStats stats_;
};

}  // namespace ppde::verify
