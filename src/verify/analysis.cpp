#include "verify/analysis.hpp"

namespace ppde::verify {

SccAnalysis analyse_sccs(const support::CsrGraph& graph,
                         const std::vector<std::uint32_t>& terminal_tags) {
  SccAnalysis analysis;
  analysis.scc = support::tarjan_scc(graph);
  analysis.is_bottom.assign(analysis.scc.scc_count, 1);
  for (std::uint32_t v = 0; v < graph.num_nodes(); ++v) {
    if (!terminal_tags.empty() && terminal_tags[v] != kNoTerminal) {
      // Terminal events are not stabilisation: their SCC is never bottom.
      analysis.is_bottom[analysis.scc.scc_of[v]] = 0;
      continue;
    }
    for (const std::uint32_t succ : graph.successors(v))
      if (analysis.scc.scc_of[succ] != analysis.scc.scc_of[v])
        analysis.is_bottom[analysis.scc.scc_of[v]] = 0;
  }
  return analysis;
}

bool any_bottom(const SccAnalysis& analysis) {
  for (const std::uint8_t bottom : analysis.is_bottom)
    if (bottom) return true;
  return false;
}

}  // namespace ppde::verify
