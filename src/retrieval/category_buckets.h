// Category-aware CH target buckets: the precomputed half of the bucket
// retriever (see poi_retriever.h for the subsystem overview).
//
// For every PoI, one backward upward search of the CH oracle is run ONCE per
// (graph, oracle, PoI assignment) and its settle list is frozen twice over:
//
//   * a per-vertex CSR of (meeting vertex, PoI, rounded backward distance)
//     entries over ALL PoIs — the classic bucket layout, scanned
//     vertex-major: a query-time forward upward search from any source
//     walks its own settles, reads each settled vertex's entries with one
//     offset lookup, and decides membership per PoI through the matcher's
//     memoized similarity (the exact predicate test), so the scan costs
//     (forward settles + entries at settled vertices), never a pass over
//     whole candidate spans;
//   * per PoI, the vertex-sorted settle list with search-tree links (parent
//     vertex + relaxing backward-CSR edge), powering the exact-distance
//     walks and the explicit-candidate path NNinit uses.
//
// Additionally every upward CSR edge's unpacked original-weight sequence is
// precomputed into pools (an edge's unpack is fixed at build time), so
// query-time re-summing folds stored spans instead of recursing through
// shortcut middles with linear adjacency scans.
//
// Exactness (load-bearing): distances must be bit-equal to a flat graph
// Dijkstra, not merely within noise. The scan reproduces the protocol of
// ChOracle::Distance() — min rounded up-down sum over the meeting vertices,
// then every meet within the kMeetEpsilon window is re-summed from original
// edge weights in source->target travel order, and the minimum re-summed
// double wins. The forward prefix of each re-sum is folded incrementally
// along the forward search tree (fold-left over a concatenation equals
// folding the suffix onto the folded prefix — the identical operation
// sequence), so it is computed once per meeting vertex per source.
//
// Persistence: SaveBucketIndex/LoadBucketIndex (bucket_io) wrap the payload
// with a header carrying the graph checksum, the PoI-assignment checksum and
// the CH structure checksum — the stored CSR edge indices are meaningless
// against any other graph, categorization or CH build.

#ifndef SKYSR_RETRIEVAL_CATEGORY_BUCKETS_H_
#define SKYSR_RETRIEVAL_CATEGORY_BUCKETS_H_

#include <cstdio>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "index/ch_oracle.h"
#include "util/status.h"

namespace skysr {

/// One category-bucket entry: PoI target `poi` was settled at meeting
/// vertex `vertex` with rounded backward distance `db`.
struct BucketEntry {
  Weight db;
  VertexId vertex;
  PoiId poi;
};

/// One settled vertex of a PoI's backward upward search: meeting vertex,
/// rounded backward distance, and the search-tree link (parent vertex plus
/// the backward-CSR edge that relaxed `vertex`) used to re-sum the
/// vertex->PoI path exactly. `reserved` keeps the struct padding-free for
/// binary IO.
struct PoiBucketSettle {
  Weight db;
  VertexId vertex;
  VertexId parent;  // kInvalidVertex at the PoI's own vertex
  int32_t edge;     // index into the oracle's backward upward CSR; -1 at root
  int32_t reserved = 0;
};

/// Immutable per-category CH target-bucket tables over one (graph, oracle,
/// PoI assignment). Thread-safe to share: all queries are const and scan
/// state lives in the caller's BucketScanState.
class CategoryBucketIndex {
 public:
  struct BuildStats {
    double build_ms = 0;
    int64_t backward_searches = 0;
    int64_t settles_stored = 0;
  };

  /// Runs one backward upward search per PoI, freezes the tables and
  /// unpacks every upward edge. The graph and oracle must outlive the
  /// index.
  static CategoryBucketIndex Build(const Graph& g, const ChOracle& ch);

  const Graph& graph() const { return *g_; }
  const ChOracle& oracle() const { return *ch_; }

  /// Distinct own-categories present among the graph's PoIs, ascending —
  /// introspection for stats and tooling (scans themselves filter per PoI).
  std::span<const CategoryId> categories() const { return categories_; }

  /// PoIs carrying own-category `c`, ascending (empty when no PoI does).
  std::span<const PoiId> PoisOfCategory(CategoryId c) const {
    const int32_t slot = SlotOf(c);
    if (slot < 0) return {};
    const auto b = static_cast<size_t>(cat_poi_offsets_[slot]);
    const auto e = static_cast<size_t>(cat_poi_offsets_[slot + 1]);
    return {cat_pois_.data() + b, e - b};
  }

  /// ALL bucket entries (any category) whose meeting vertex is `v` — a
  /// direct per-vertex CSR lookup. Scans filter per PoI through the
  /// matcher's memoized similarity, which is the exact membership test; a
  /// category dimension here would only duplicate entries.
  std::span<const BucketEntry> EntriesAtVertex(VertexId v) const {
    const auto b = static_cast<size_t>(vertex_offsets_[static_cast<size_t>(v)]);
    const auto e =
        static_cast<size_t>(vertex_offsets_[static_cast<size_t>(v) + 1]);
    return {entries_.data() + b, e - b};
  }

  /// Mean stored settles per graph vertex — the expected bucket entries a
  /// forward settle must walk; input to the auto cost model.
  double SettleDensity() const {
    const int64_t n = g_->num_vertices();
    return n > 0 ? static_cast<double>(settles_.size()) /
                       static_cast<double>(n)
                 : 0.0;
  }

  /// The PoI's stored backward settles, sorted by meeting vertex.
  std::span<const PoiBucketSettle> SettlesOf(PoiId p) const {
    const auto b = static_cast<size_t>(poi_offsets_[static_cast<size_t>(p)]);
    const auto e =
        static_cast<size_t>(poi_offsets_[static_cast<size_t>(p) + 1]);
    return {settles_.data() + b, e - b};
  }

  /// Precomputed unpack of one upward CSR edge: the original-edge weights
  /// of the path it represents, in travel order.
  std::span<const Weight> FwdEdgeWeights(int32_t edge) const {
    const auto b = static_cast<size_t>(fwd_edge_woff_[edge]);
    const auto e = static_cast<size_t>(fwd_edge_woff_[edge + 1]);
    return {fwd_edge_weights_.data() + b, e - b};
  }
  std::span<const Weight> BwdEdgeWeights(int32_t edge) const {
    const auto b = static_cast<size_t>(bwd_edge_woff_[edge]);
    const auto e = static_cast<size_t>(bwd_edge_woff_[edge + 1]);
    return {bwd_edge_weights_.data() + b, e - b};
  }

  int64_t num_settles() const { return static_cast<int64_t>(settles_.size()); }
  int64_t MemoryBytes() const;
  const BuildStats& build_stats() const { return build_stats_; }

  /// Payload IO (headers handled by bucket_io's SaveBucketIndex /
  /// LoadBucketIndex, which verify the graph / assignment / CH checksums
  /// before binding).
  Status SavePayload(std::FILE* f) const;
  static Result<CategoryBucketIndex> LoadPayload(std::FILE* f, const Graph& g,
                                                 const ChOracle& ch);

 private:
  CategoryBucketIndex(const Graph& g, const ChOracle& ch)
      : g_(&g), ch_(&ch) {}

  int32_t SlotOf(CategoryId c) const {
    if (c < 0 || static_cast<size_t>(c) >= cat_slot_.size()) return -1;
    return cat_slot_[static_cast<size_t>(c)];
  }

  /// Fills the category tables (categories_, cat_slot_, cat_poi_offsets_,
  /// cat_pois_) from the graph's PoI assignment.
  void BuildCategoryTables();

  /// Builds the derived structures not worth persisting: the per-vertex
  /// entry CSR (an inversion of the per-PoI settle lists) and the per-edge
  /// unpack pools (bound to the checksum-verified CH build).
  void BuildDerived();

  const Graph* g_;
  const ChOracle* ch_;
  std::vector<CategoryId> categories_;  // sorted distinct own-categories
  std::vector<int32_t> cat_slot_;       // category id -> slot, -1 = absent
  std::vector<int64_t> cat_poi_offsets_;  // slot -> [b, e) in cat_pois_
  std::vector<PoiId> cat_pois_;           // ascending within a slot
  std::vector<int64_t> vertex_offsets_;  // derived: vertex -> [b, e)
  std::vector<BucketEntry> entries_;     // derived: poi-sorted per vertex
  std::vector<int64_t> poi_offsets_;  // poi -> [b, e) in settles_
  std::vector<PoiBucketSettle> settles_;  // vertex-sorted within a poi
  std::vector<int64_t> fwd_edge_woff_;    // per fwd upward edge, size E+1
  std::vector<Weight> fwd_edge_weights_;
  std::vector<int64_t> bwd_edge_woff_;    // per bwd upward edge, size E+1
  std::vector<Weight> bwd_edge_weights_;
  BuildStats build_stats_;
};

}  // namespace skysr

#endif  // SKYSR_RETRIEVAL_CATEGORY_BUCKETS_H_
