// Immutable road-network graph in CSR (compressed sparse row) layout.
//
// The graph models the paper's G = (V ∪ P, E): ordinary road vertices plus
// PoI vertices embedded in the network. Every vertex has an adjacency list;
// PoI vertices additionally carry one or more category ids (the paper's base
// setting is one category per PoI; the §6 extension allows several) and an
// optional display name. Undirected graphs store each edge in both adjacency
// lists but count it once in num_edges().

#ifndef SKYSR_GRAPH_GRAPH_H_
#define SKYSR_GRAPH_GRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"
#include "util/status.h"

namespace skysr {

/// One outgoing adjacency entry.
struct Neighbor {
  VertexId to;
  Weight weight;
};

/// Immutable CSR graph with PoI payloads. Construct via GraphBuilder.
class Graph {
 public:
  Graph() = default;

  int64_t num_vertices() const {
    return static_cast<int64_t>(offsets_.size()) - 1;
  }
  /// Logical edge count (an undirected edge counts once).
  int64_t num_edges() const { return num_edges_; }
  int64_t num_pois() const { return static_cast<int64_t>(poi_vertex_.size()); }
  bool directed() const { return directed_; }
  bool has_coordinates() const { return !xs_.empty(); }

  /// Outgoing adjacency of `v`.
  std::span<const Neighbor> OutEdges(VertexId v) const {
    SKYSR_DCHECK(v >= 0 && v < num_vertices());
    const auto b = static_cast<size_t>(offsets_[v]);
    const auto e = static_cast<size_t>(offsets_[v + 1]);
    return {adj_.data() + b, e - b};
  }

  int64_t OutDegree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// PoI id at vertex `v`, or kInvalidPoi when `v` is a plain road vertex.
  PoiId PoiAtVertex(VertexId v) const {
    SKYSR_DCHECK(v >= 0 && v < num_vertices());
    return poi_of_vertex_[static_cast<size_t>(v)];
  }
  bool IsPoiVertex(VertexId v) const { return PoiAtVertex(v) != kInvalidPoi; }

  /// Vertex hosting PoI `p`.
  VertexId VertexOfPoi(PoiId p) const {
    SKYSR_DCHECK(p >= 0 && p < num_pois());
    return poi_vertex_[static_cast<size_t>(p)];
  }

  /// Categories associated with PoI `p` (at least one).
  std::span<const CategoryId> PoiCategories(PoiId p) const {
    SKYSR_DCHECK(p >= 0 && p < num_pois());
    const auto b = static_cast<size_t>(poi_cat_offsets_[p]);
    const auto e = static_cast<size_t>(poi_cat_offsets_[p + 1]);
    return {poi_cats_.data() + b, e - b};
  }

  /// First (primary) category of PoI `p`.
  CategoryId PoiPrimaryCategory(PoiId p) const { return PoiCategories(p)[0]; }

  /// Display name of PoI `p`; empty when names were not provided.
  const std::string& PoiName(PoiId p) const {
    static const std::string kEmpty;
    if (poi_names_.empty()) return kEmpty;
    return poi_names_[static_cast<size_t>(p)];
  }

  /// Coordinates (requires has_coordinates()).
  double X(VertexId v) const { return xs_[static_cast<size_t>(v)]; }
  double Y(VertexId v) const { return ys_[static_cast<size_t>(v)]; }

  /// Sum of all edge weights (undirected edges counted once). Used as the
  /// denominator of search-space ("weight sum") ratios in the benchmarks.
  Weight TotalEdgeWeight() const { return total_edge_weight_; }

  /// True when every vertex is reachable from vertex 0 ignoring direction.
  bool IsConnected() const;

  /// Approximate heap footprint of the graph structure in bytes.
  int64_t MemoryBytes() const;

  /// Serializes the graph to a binary snapshot file.
  Status SaveBinary(const std::string& path) const;
  /// Loads a graph from a binary snapshot produced by SaveBinary. A
  /// truncated or corrupt file yields IOError, never a malformed graph.
  static Result<Graph> LoadBinary(const std::string& path);

 private:
  friend class GraphBuilder;

  /// Structural invariants every accessor relies on: CSR offsets, edge
  /// targets and weights, coordinate and PoI array sizes, and the PoI <->
  /// vertex bijection. Checked on every loaded snapshot.
  bool WellFormed() const;

  std::vector<int64_t> offsets_;   // size n+1
  std::vector<Neighbor> adj_;      // size = directed edges stored
  std::vector<double> xs_, ys_;    // optional coordinates
  std::vector<PoiId> poi_of_vertex_;
  std::vector<VertexId> poi_vertex_;
  std::vector<int32_t> poi_cat_offsets_;  // size num_pois+1
  std::vector<CategoryId> poi_cats_;
  std::vector<std::string> poi_names_;  // empty or size num_pois
  int64_t num_edges_ = 0;
  Weight total_edge_weight_ = 0;
  bool directed_ = false;
};

}  // namespace skysr

#endif  // SKYSR_GRAPH_GRAPH_H_
