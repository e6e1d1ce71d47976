#include "baseline/osr_common.h"

#include "graph/dijkstra.h"
#include "graph/graph_builder.h"

namespace skysr {

DestTail::DestTail(const Graph& g, std::optional<VertexId> dest,
                   const ChOracle* oracle)
    : g_(&g), dest_(dest), oracle_(oracle) {
  if (!dest_ || oracle_ != nullptr) return;
  all_ = g.directed() ? SingleSourceDistances(ReverseOf(g), *dest_).dist
                      : SingleSourceDistances(g, *dest_).dist;
}

Weight DestTail::Get(VertexId v) {
  if (oracle_ == nullptr) return all_[static_cast<size_t>(v)];
  const auto [it, inserted] = memo_.try_emplace(v, 0);
  if (inserted) it->second = oracle_->Distance(v, *dest_, ws_);
  return it->second;
}

}  // namespace skysr
