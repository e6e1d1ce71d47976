// Concrete shortest-path helpers built on the generic runner.

#ifndef SKYSR_GRAPH_DIJKSTRA_H_
#define SKYSR_GRAPH_DIJKSTRA_H_

#include <memory>
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

/// The destination table of §6: D(v, dest) for every vertex v into `out`
/// (kInfWeight where `dest` is unreachable), by one Dijkstra from `dest`
/// over the edge-reversed graph. An undirected graph is its own reversal; a
/// directed one is reversed into `reversed` on first use and reused for as
/// long as the caller keeps it.
void DistancesTo(const Graph& g, VertexId dest,
                 std::unique_ptr<const Graph>& reversed, DijkstraWorkspace& ws,
                 std::vector<Weight>* out);

/// Reference Bellman-Ford (handles the same non-negative inputs; O(V*E)).
/// Exists to property-test Dijkstra against an independent implementation.
std::vector<Weight> BellmanFordDistances(const Graph& g, VertexId source);

}  // namespace skysr

#endif  // SKYSR_GRAPH_DIJKSTRA_H_
