// Strongly connected components over a compressed-sparse-row graph.
//
// All exact verifiers in this library reduce fair-run stabilisation to a
// property of *bottom* SCCs of a finite reachability graph (a fair run's
// infinitely-often set is strongly connected and closed under the step
// relation). This is the shared Tarjan pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ppde::support {

/// Successor lists in compressed sparse row form: the successors of node
/// v are targets[offsets[v] .. offsets[v + 1]). One flat array instead of
/// a heap vector per node.
struct CsrGraph {
  std::vector<std::uint64_t> offsets{0};  ///< num_nodes() + 1 entries
  std::vector<std::uint32_t> targets;

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(offsets.size() - 1);
  }
  std::span<const std::uint32_t> successors(std::uint32_t v) const {
    return {targets.data() + offsets[v], targets.data() + offsets[v + 1]};
  }
  bool operator==(const CsrGraph&) const = default;

  /// The CSR form of explicit per-node successor lists.
  static CsrGraph from_lists(
      const std::vector<std::vector<std::uint32_t>>& lists);
};

struct SccResult {
  /// scc_of[v] = dense SCC index of node v (indices are in reverse
  /// topological order of the condensation, as produced by Tarjan).
  std::vector<std::uint32_t> scc_of;
  std::uint32_t scc_count = 0;

  /// For each SCC: true iff it has no edge into a different SCC.
  std::vector<std::uint8_t> bottom(const CsrGraph& graph) const;
};

/// Iterative Tarjan over `graph` (nodes are 0..graph.num_nodes()-1).
SccResult tarjan_scc(const CsrGraph& graph);

}  // namespace ppde::support
