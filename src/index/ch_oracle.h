// Contraction-hierarchies distance oracle (Geisberger et al., WEA'08).
//
// Build: vertices are contracted one by one in ascending importance —
// priority = edge difference (shortcuts a contraction would add minus edges
// it removes) plus the count of already-contracted neighbors, maintained
// lazily. Contracting v inserts a shortcut (u, w) for every in/out neighbor
// pair whose shortest u->w path runs through v (decided by a bounded local
// witness search that stops as soon as every target w of u is decided; an
// inconclusive search conservatively adds the shortcut, which never hurts
// correctness). Each vertex's final edge set — to higher-ranked neighbors
// only — is frozen at its contraction into upward forward/backward CSRs.
//
// Query: the oracle answers no distances itself. It exposes the full
// upward searches (forward from a source, backward from a target), the
// upward edges and their unpacking into original edges. The category-bucket
// tables (src/retrieval/category_buckets.h) freeze every PoI's backward
// upward search once, and NNinit hops and deferred expansions scan them
// against one forward upward search per source: every vertex settled by
// both sides is a meeting candidate, and the best up-down path is the
// shortest path. To honor the exactness contract (distance_oracle.h) a scan
// does not return the rounded sum of shortcut weights: every meet within
// kMeetEpsilon of the best is unpacked into original edges and re-summed
// source->target in path order, and the minimum re-summed value wins — the
// same double a flat Dijkstra computes.
//
// Topology caveat: contraction hierarchies assume road-like graphs (low
// highway dimension). Measured single-threaded (Release, 4-vCPU x86 VM):
// the 26k-vertex Tokyo-like city (TokyoLikeSpec(0.05)) builds in about
// 2.8 s, 20k-vertex grid and cluster graphs in about 5 and 8 s, with small
// upward search spaces. Expander-like graphs (the small-world family) grow
// dense hub shortcuts: a 20k-vertex one takes about 30 s and answers
// queries with much larger upward spaces — ApproxSearchSettles() reports
// the measured size so consumers can fall back to plain searches where the
// index would lose.

#ifndef SKYSR_INDEX_CH_ORACLE_H_
#define SKYSR_INDEX_CH_ORACLE_H_

#include <cstdio>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "index/distance_oracle.h"
#include "util/status.h"

namespace skysr {

/// One upward edge. `mid` is the contracted middle vertex a shortcut
/// bypasses (kInvalidVertex for original graph edges); unpacking recurses
/// through it. Field order keeps the struct padding-free for binary IO.
struct ChEdge {
  Weight weight;
  VertexId to;
  VertexId mid;
};

class ChOracle {
 public:
  struct BuildStats {
    double build_ms = 0;
    int64_t shortcuts_added = 0;
    int64_t witness_settled = 0;  // witness-search settles during build
  };

  /// Preprocesses the graph (which must outlive the oracle).
  static ChOracle Build(const Graph& g);

  const Graph& graph() const { return *g_; }

  /// Mean settles of an upward search, measured over a deterministic
  /// sample of sources right after Build/Load — the per-endpoint cost
  /// consumers weigh against a plain graph search. CH upward spaces are
  /// tiny on road-like graphs but can approach the whole graph on
  /// expander-like ones.
  int64_t ApproxSearchSettles() const { return avg_up_settles_; }

  /// Heap footprint of the index structures in bytes.
  int64_t MemoryBytes() const;

  const BuildStats& build_stats() const { return build_stats_; }
  int64_t num_shortcuts() const { return num_shortcuts_; }
  /// Upward edges stored over both directions (original + shortcuts).
  int64_t num_upward_edges() const {
    return static_cast<int64_t>(up_fwd_edges_.size() + up_bwd_edges_.size());
  }

  /// Index payload IO (headers handled by index_io). The loaded oracle is
  /// bound to `g`, which the caller must have checksum-verified.
  Status SavePayload(std::FILE* f) const;
  static Result<ChOracle> LoadPayload(std::FILE* f, const Graph& g);

  // --- Category-bucket support (src/retrieval/category_buckets) -----------
  // The PoI-retrieval subsystem precomputes per-category target buckets from
  // this oracle's upward searches. These hooks expose exactly the primitives
  // its build and scans need while keeping the CSRs themselves private.

  /// Near-best meeting candidates within this relative window of the best
  /// rounded up-down sum are unpacked and re-summed (the window absorbs the
  /// association-order rounding drift of nested shortcut weights). Every
  /// bucket scan applies this window to stay bit-equal with a flat
  /// Dijkstra.
  static constexpr double kMeetEpsilon = 1e-9;

  /// Full upward search (with stall-on-demand) from one endpoint over the
  /// forward (source-side) / backward (target-side) CSR. Settles land in
  /// `settled` in settle order; the search tree (parents and relaxing CSR
  /// edge indices) stays readable from `ws.fwd` / `ws.fwd_edge` (forward)
  /// or `ws.bwd` / `ws.bwd_edge` (backward) until the next search on that
  /// workspace side. Both borrow `ws.heap` as the frontier.
  void ForwardUpwardSearch(
      VertexId source, OracleWorkspace& ws,
      std::vector<std::pair<VertexId, Weight>>* settled) const;
  void BackwardUpwardSearch(
      VertexId target, OracleWorkspace& ws,
      std::vector<std::pair<VertexId, Weight>>* settled) const;

  /// Upward edges by the CSR indices the searches report through `edge_of`.
  const ChEdge& UpFwdEdgeAt(int64_t idx) const {
    return up_fwd_edges_[static_cast<size_t>(idx)];
  }
  const ChEdge& UpBwdEdgeAt(int64_t idx) const {
    return up_bwd_edges_[static_cast<size_t>(idx)];
  }
  int64_t NumUpFwdEdges() const {
    return static_cast<int64_t>(up_fwd_edges_.size());
  }
  int64_t NumUpBwdEdges() const {
    return static_cast<int64_t>(up_bwd_edges_.size());
  }

  /// Appends the original-edge weights underlying upward edge `idx` (owner
  /// vertex resolved internally from the CSR offsets) in travel order —
  /// forward: owner -> e.to; backward: e.to -> owner. Used by the bucket
  /// index to precompute per-edge unpack pools.
  void UnpackFwdEdgeAt(int64_t idx, std::vector<Weight>* weights) const;
  void UnpackBwdEdgeAt(int64_t idx, std::vector<Weight>* weights) const;

  /// Appends the original-edge weights underlying a forward upward edge
  /// (path owner -> e.to) / backward upward edge (path e.to -> owner) in
  /// travel order — the public unpack entry points for bucket scans.
  void UnpackFwdEdge(VertexId owner, const ChEdge& e,
                     std::vector<Weight>* weights) const {
    UnpackFwd(owner, e, weights);
  }
  void UnpackBwdEdge(VertexId owner, const ChEdge& e,
                     std::vector<Weight>* weights) const {
    UnpackBwd(owner, e, weights);
  }

  /// Order-sensitive digest of the upward structure (offsets + edges, both
  /// directions). Saved bucket tables embed it so they can only bind to the
  /// CH build they were derived from — edge CSR indices are meaningless
  /// against any other build.
  uint64_t StructureChecksum() const;

 private:
  explicit ChOracle(const Graph& g) : g_(&g) {}

  std::span<const ChEdge> UpFwd(VertexId v) const {
    return {up_fwd_edges_.data() + up_fwd_offsets_[static_cast<size_t>(v)],
            static_cast<size_t>(up_fwd_offsets_[static_cast<size_t>(v) + 1] -
                                up_fwd_offsets_[static_cast<size_t>(v)])};
  }
  std::span<const ChEdge> UpBwd(VertexId v) const {
    return {up_bwd_edges_.data() + up_bwd_offsets_[static_cast<size_t>(v)],
            static_cast<size_t>(up_bwd_offsets_[static_cast<size_t>(v) + 1] -
                                up_bwd_offsets_[static_cast<size_t>(v)])};
  }

  /// Appends the original-edge weights underlying `e` in travel order.
  /// UnpackFwd: e lives in up_fwd[owner], path owner -> e.to.
  /// UnpackBwd: e lives in up_bwd[owner], path e.to -> owner.
  void UnpackFwd(VertexId owner, const ChEdge& e,
                 std::vector<Weight>* weights) const;
  void UnpackBwd(VertexId owner, const ChEdge& e,
                 std::vector<Weight>* weights) const;
  /// The frozen edge with the given head in `mid`'s upward list (guaranteed
  /// to exist for any shortcut middle).
  const ChEdge& FrozenEdge(VertexId mid, VertexId to, bool fwd) const;

  /// Samples upward searches to estimate the per-endpoint query cost.
  void MeasureSearchCost();

  /// Structural invariants of a loaded payload: CSR offsets, a rank
  /// permutation, rank-increasing upward edges, and shortcut middles that
  /// rank below both ends and own both component edges.
  bool WellFormed() const;

  const Graph* g_;
  std::vector<int32_t> rank_;  // vertex -> contraction order (0 = first)
  std::vector<int64_t> up_fwd_offsets_;
  std::vector<ChEdge> up_fwd_edges_;
  std::vector<int64_t> up_bwd_offsets_;
  std::vector<ChEdge> up_bwd_edges_;
  int64_t num_shortcuts_ = 0;
  int64_t avg_up_settles_ = 1;
  BuildStats build_stats_;
};

}  // namespace skysr

#endif  // SKYSR_INDEX_CH_ORACLE_H_
