#include "graph/dijkstra.h"

#include <algorithm>

#include "graph/graph_builder.h"

namespace skysr {

std::vector<VertexId> DistanceField::PathTo(VertexId target) const {
  std::vector<VertexId> path;
  if (target < 0 || static_cast<size_t>(target) >= dist.size() ||
      dist[static_cast<size_t>(target)] == kInfWeight) {
    return path;
  }
  for (VertexId v = target; v != kInvalidVertex;
       v = parent[static_cast<size_t>(v)]) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

DistanceField SingleSourceDistances(const Graph& g, VertexId source) {
  DistanceField out;
  const auto n = static_cast<size_t>(g.num_vertices());
  out.dist.assign(n, kInfWeight);
  out.parent.assign(n, kInvalidVertex);
  DijkstraWorkspace ws;
  RunDijkstra(g, source, ws, [&](VertexId v, Weight d, VertexId parent) {
    out.dist[static_cast<size_t>(v)] = d;
    out.parent[static_cast<size_t>(v)] = parent;
    return VisitAction::kContinue;
  });
  return out;
}

void DistancesTo(const Graph& g, VertexId dest,
                 std::unique_ptr<const Graph>& reversed, DijkstraWorkspace& ws,
                 std::vector<Weight>* out) {
  if (g.directed() && reversed == nullptr) {
    reversed = std::make_unique<const Graph>(ReverseOf(g));
  }
  out->assign(static_cast<size_t>(g.num_vertices()), kInfWeight);
  RunDijkstra(g.directed() ? *reversed : g, dest, ws,
              [&](VertexId v, Weight d, VertexId) {
                (*out)[static_cast<size_t>(v)] = d;
                return VisitAction::kContinue;
              });
}

std::vector<Weight> BellmanFordDistances(const Graph& g, VertexId source) {
  const auto n = static_cast<size_t>(g.num_vertices());
  std::vector<Weight> dist(n, kInfWeight);
  dist[static_cast<size_t>(source)] = 0;
  bool changed = true;
  // |V|-1 relaxation rounds, early exit when a round changes nothing.
  for (int64_t round = 0; changed && round < g.num_vertices(); ++round) {
    changed = false;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const Weight dv = dist[static_cast<size_t>(v)];
      if (dv == kInfWeight) continue;
      for (const Neighbor& nb : g.OutEdges(v)) {
        if (dv + nb.weight < dist[static_cast<size_t>(nb.to)]) {
          dist[static_cast<size_t>(nb.to)] = dv + nb.weight;
          changed = true;
        }
      }
    }
  }
  return dist;
}

}  // namespace skysr
