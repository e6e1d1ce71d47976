// Routes, route scores, dominance (Definition 4.1) and the route arena that
// backs BSSR's priority queue.

#ifndef SKYSR_CORE_ROUTE_H_
#define SKYSR_CORE_ROUTE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/logging.h"

namespace skysr {

/// The two scores of Definition 3.5. Smaller is better for both.
struct RouteScores {
  Weight length = 0;
  double semantic = 0;
};

/// Strict dominance (Definition 4.1): better in one score, not worse in the
/// other.
inline bool Dominates(const RouteScores& a, const RouteScores& b) {
  return (a.length < b.length && a.semantic <= b.semantic) ||
         (a.semantic < b.semantic && a.length <= b.length);
}

/// Equal in both scores.
inline bool Equivalent(const RouteScores& a, const RouteScores& b) {
  return a.length == b.length && a.semantic == b.semantic;
}

inline bool DominatesOrEquals(const RouteScores& a, const RouteScores& b) {
  return a.length <= b.length && a.semantic <= b.semantic;
}

/// A complete sequenced route: the PoIs visited in order plus its scores.
struct Route {
  std::vector<PoiId> pois;
  RouteScores scores;
};

/// Renders "A -> B -> C  (length=…, semantic=…)" using PoI names when the
/// graph has them, ids otherwise.
std::string RouteToString(const Graph& g, const Route& route);

/// Arena of immutable partial-route nodes linked by parent pointers.
///
/// BSSR's queue holds hundreds of thousands of partial routes that share
/// prefixes; storing each as a vector would duplicate them. A node appends
/// one PoI to a parent route and caches the cumulative length, the semantic
/// accumulator and the size, so score queries are O(1) and materialization is
/// O(size).
class RouteArena {
 public:
  /// Index of the empty route.
  static constexpr int32_t kEmpty = -1;

  // The four 32-bit fields lead so the node packs into 40 bytes.
  struct Node {
    int32_t parent;   // kEmpty for size-1 routes
    PoiId poi;
    VertexId vertex;  // vertex hosting `poi`
    int32_t size;     // number of PoIs in this partial route
    Weight length;    // cumulative length score
    double acc;       // semantic accumulator (see SemanticAggregator)
    // Bloom-style signature of the route's PoI set (one bit per PoI id mod
    // 64, OR of the parent's): a zero AND answers Contains() without the
    // parent-chain walk; only hash collisions pay the walk.
    uint64_t poi_mask;
  };
  static_assert(sizeof(Node) == 40);

  static uint64_t PoiBit(PoiId poi) {
    return uint64_t{1} << (static_cast<uint32_t>(poi) & 63u);
  }

  /// Appends `poi` to the route `parent` (kEmpty to start a new route).
  int32_t Add(int32_t parent, PoiId poi, VertexId vertex, Weight length,
              double acc) {
    int32_t size = 1;
    uint64_t mask = PoiBit(poi);
    if (parent != kEmpty) {
      const Node& p = nodes_[static_cast<size_t>(parent)];
      size = p.size + 1;
      mask |= p.poi_mask;
    }
    nodes_.push_back(Node{parent, poi, vertex, size, length, acc, mask});
    return static_cast<int32_t>(nodes_.size()) - 1;
  }

  const Node& node(int32_t idx) const {
    SKYSR_DCHECK(idx >= 0 && idx < static_cast<int32_t>(nodes_.size()));
    return nodes_[static_cast<size_t>(idx)];
  }

  int32_t SizeOf(int32_t idx) const {
    return idx == kEmpty ? 0 : node(idx).size;
  }

  /// True when `poi` already occurs in the partial route (Definition 3.4
  /// requires all route PoIs to be distinct).
  bool Contains(int32_t idx, PoiId poi) const {
    if (idx == kEmpty) return false;
    if ((nodes_[static_cast<size_t>(idx)].poi_mask & PoiBit(poi)) == 0) {
      return false;  // signature miss: definitely absent
    }
    for (int32_t cur = idx; cur != kEmpty;
         cur = nodes_[static_cast<size_t>(cur)].parent) {
      if (nodes_[static_cast<size_t>(cur)].poi == poi) return true;
    }
    return false;
  }

  /// The PoI sequence of the partial route, in visit order.
  std::vector<PoiId> Materialize(int32_t idx) const;

  /// Materializes into a caller-owned buffer (cleared first) so hot loops
  /// reuse one allocation across routes.
  void MaterializeInto(int32_t idx, std::vector<PoiId>* out) const;

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(nodes_.capacity() * sizeof(Node));
  }
  void Clear() { nodes_.clear(); }

 private:
  std::vector<Node> nodes_;
};

}  // namespace skysr

#endif  // SKYSR_CORE_ROUTE_H_
