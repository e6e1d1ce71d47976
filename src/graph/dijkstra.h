// Concrete shortest-path helpers built on the generic runner.

#ifndef SKYSR_GRAPH_DIJKSTRA_H_
#define SKYSR_GRAPH_DIJKSTRA_H_

#include <vector>

#include "graph/dijkstra_runner.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace skysr {

/// Distances (and parents) from a source to every vertex; kInfWeight for
/// unreachable vertices.
struct DistanceField {
  std::vector<Weight> dist;
  std::vector<VertexId> parent;

  /// Reconstructs the vertex path ending at `target` (source first). Empty
  /// when `target` is unreachable.
  std::vector<VertexId> PathTo(VertexId target) const;
};

/// Full single-source shortest paths.
DistanceField SingleSourceDistances(const Graph& g, VertexId source);

/// Result of a nearest-target search.
struct NearestHit {
  VertexId vertex = kInvalidVertex;
  Weight dist = kInfWeight;
};

/// Reference Bellman-Ford (handles the same non-negative inputs; O(V*E)).
/// Exists to property-test Dijkstra against an independent implementation.
std::vector<Weight> BellmanFordDistances(const Graph& g, VertexId source);

}  // namespace skysr

#endif  // SKYSR_GRAPH_DIJKSTRA_H_
