#include "support/scc.hpp"

namespace ppde::support {

CsrGraph CsrGraph::from_lists(
    const std::vector<std::vector<std::uint32_t>>& lists) {
  CsrGraph graph;
  graph.offsets.reserve(lists.size() + 1);
  for (const std::vector<std::uint32_t>& list : lists) {
    graph.targets.insert(graph.targets.end(), list.begin(), list.end());
    graph.offsets.push_back(graph.targets.size());
  }
  return graph;
}

// Pearce's space-efficient variant of Tarjan ("A space-efficient algorithm
// for finding strongly connected components", IPL 2016), iterative: one
// rindex word per node instead of index + lowlink + on-stack flag. The DFS
// and the order in which components complete are Tarjan's, so the
// numbering is too.
SccResult tarjan_scc(const CsrGraph& graph) {
  using u32 = std::uint32_t;
  using u64 = std::uint64_t;
  const u32 n = graph.num_nodes();

  // rindex[v]: 0 = unvisited; while v's component is open, a DFS index
  // (minimised over what v reaches); once it closes, the component number
  // counted down from n - 1, which exceeds every open index.
  std::vector<u32> rindex(n, 0);
  std::vector<u32> open;  // visited nodes whose component is still open

  struct Frame {
    u32 node;
    bool root;  ///< no edge found yet to a node visited before it
    u64 edge;   ///< next position in graph.targets to visit
  };
  std::vector<Frame> call_stack;
  u32 index = 1;
  u32 component = n - 1;
  // Finish edge v -> w: inherit w's index if it is lower.
  const auto finish_edge = [&](Frame& frame, u32 w) {
    if (rindex[w] < rindex[frame.node]) {
      rindex[frame.node] = rindex[w];
      frame.root = false;
    }
  };

  for (u32 start = 0; start < n; ++start) {
    if (rindex[start] != 0) continue;
    rindex[start] = index++;
    call_stack.push_back({start, true, graph.offsets[start]});
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const u32 v = frame.node;
      if (frame.edge < graph.offsets[v + 1]) {
        const u32 w = graph.targets[frame.edge];
        if (rindex[w] == 0) {  // tree edge: finished when w returns
          rindex[w] = index++;
          call_stack.push_back({w, true, graph.offsets[w]});
        } else {
          ++frame.edge;
          finish_edge(frame, w);
        }
        continue;
      }
      const bool root = frame.root;
      call_stack.pop_back();
      if (root) {
        --index;
        while (!open.empty() && rindex[v] <= rindex[open.back()]) {
          rindex[open.back()] = component;
          open.pop_back();
          --index;
        }
        rindex[v] = component--;
      } else {
        open.push_back(v);
      }
      if (!call_stack.empty()) {
        ++call_stack.back().edge;
        finish_edge(call_stack.back(), v);
      }
    }
  }

  // Components closed as n - 1, n - 2, ...; number them 0, 1, ... instead.
  SccResult result;
  result.scc_count = n - 1 - component;
  result.scc_of = std::move(rindex);
  for (u32& c : result.scc_of) c = n - 1 - c;
  return result;
}

std::vector<std::uint8_t> SccResult::bottom(const CsrGraph& graph) const {
  std::vector<std::uint8_t> is_bottom(scc_count, 1);
  for (std::uint32_t v = 0; v < graph.num_nodes(); ++v)
    for (const std::uint32_t succ : graph.successors(v))
      if (scc_of[succ] != scc_of[v]) is_bottom[scc_of[v]] = 0;
  return is_bottom;
}

}  // namespace ppde::support
