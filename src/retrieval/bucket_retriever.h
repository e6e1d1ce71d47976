// Query-time half of the bucket retriever: scans the precomputed
// CategoryBucketIndex to materialize an expansion's matching-candidate
// stream — every PoI matching the position within the budget, with its
// exact (Dijkstra bit-equal) distance, sorted by (dist, vertex) — without
// settling a single road vertex. When the budget prunes nothing the stream
// is exhaustive and the engine commits it to the §5.3.4 cache as an
// exhausted entry, collapsing every repeat and would-be rerun of that
// (source, position) to a pure replay.
//
// Per-(query, source) amortization: the forward upward search from a source
// (with its incrementally folded exact path sums, see category_buckets.h) is
// cached for the whole query in BucketScanState::fwd_cache, so every
// position expanding from the same vertex — and every NNinit hop from it —
// pays the search once and scans thereafter.

#ifndef SKYSR_RETRIEVAL_BUCKET_RETRIEVER_H_
#define SKYSR_RETRIEVAL_BUCKET_RETRIEVER_H_

#include <span>
#include <utility>
#include <vector>

#include "cache/fwd_search_cache.h"
#include "core/modified_dijkstra.h"
#include "core/query.h"
#include "core/search_stats.h"
#include "retrieval/category_buckets.h"
#include "util/stamped_array.h"
#include "util/stamped_span_table.h"

namespace skysr {

class SharedQueryCache;

/// Engine-owned, per-query scan state (reset per query, capacities kept).
struct BucketScanState {
  /// One cached forward-search settle: rounded upward distance plus the
  /// exact path-order sum from the source. Aliases the cross-query cache's
  /// record type so cached spans serve scans without conversion.
  using FwdSettle = FwdSearchSettle;
  struct NoMeta {};

  /// Per-query forward-search cache keyed by source vertex (the fallback
  /// when no SharedQueryCache is attached).
  StampedSpanTable<FwdSettle, NoMeta> fwd_cache;
  /// The CURRENT source's settles — a span into fwd_cache's pool (per-query
  /// path) or into the shared cache / snapshot (engine-lifetime path);
  /// either way valid until the next EnsureForward for a different source,
  /// which is the only operation that can displace the backing entry — and
  /// its per-vertex view (re-stamped on source change; repopulating from a
  /// cached span is a linear copy, not a search).
  std::span<const FwdSettle> fwd;
  StampedArray<Weight> df_of;
  StampedArray<Weight> fsum_of;
  VertexId cur_src = kInvalidVertex;

  // Scan scratch.
  std::vector<std::pair<VertexId, Weight>> settled;
  /// One matched (forward settle, bucket entry) pair of the current scan.
  struct Meet {
    Weight df;
    Weight db;
    Weight fsum;
    VertexId vertex;
    PoiId poi;
  };
  std::vector<Meet> meets;
  StampedArray<uint8_t> poi_state;  // 0 unseen / 1 candidate / 2 rejected
  StampedArray<Weight> best;        // per-PoI best rounded up-down sum
  StampedArray<Weight> exact;       // per-PoI minimum re-summed distance
  std::vector<PoiId> touched;
  std::vector<ExpansionCandidate> cands;  // the sorted output stream
  std::vector<FwdSettle> fold_buf;  // ComputeForward staging (capacity kept)

  void Clear() {
    fwd_cache.Clear();
    fwd = {};
    cur_src = kInvalidVertex;
  }

  int64_t MemoryBytes() const {
    return fwd_cache.MemoryBytes() +
           static_cast<int64_t>(cands.capacity() *
                                sizeof(ExpansionCandidate));
  }
};

/// Stateless scanner over one CategoryBucketIndex; all mutable state lives
/// in the caller's BucketScanState / OracleWorkspace, preserving the
/// one-engine-per-thread contract.
class BucketRetriever {
 public:
  explicit BucketRetriever(const CategoryBucketIndex& index)
      : index_(&index) {}

  const CategoryBucketIndex& index() const { return *index_; }

  /// Makes `state`'s per-vertex arrays describe `source`'s forward upward
  /// search (running it on a cache miss, replaying the cached span
  /// otherwise). With `shared` attached the lookup order is snapshot ->
  /// shared cache -> fresh search (written back to the shared cache);
  /// without it, the per-query fwd_cache serves as before. The records are
  /// a pure function of (CH structure, source), so every path yields
  /// bit-identical state.
  void EnsureForward(VertexId source, OracleWorkspace& oracle_ws,
                     BucketScanState& state, SearchStats* stats,
                     SharedQueryCache* shared = nullptr) const;

  /// Low-level: runs the forward upward search from `source` and folds the
  /// exact path sums into `out` (and `state.fsum_of`, which must be
  /// Prepared). Callers normally go through EnsureForward; the snapshot
  /// builder uses this directly.
  void ComputeForward(VertexId source, OracleWorkspace& oracle_ws,
                      BucketScanState& state,
                      std::vector<FwdSearchSettle>* out) const;

  /// Exact shortest-path distance source -> PoI (kInfWeight when
  /// unreachable), bit-equal to a flat graph Dijkstra; requires
  /// EnsureForward for the source. Mirrors ChOracle::Distance()'s
  /// epsilon-window re-summing over the PoI's stored backward settles.
  Weight ExactDistanceTo(PoiId p, BucketScanState& state) const;

  /// Materializes into state.cands the matching-candidate stream of
  /// (`matcher`, `source`), sorted by (dist, vertex) — exactly the order
  /// (and distances) a deferred-mode settle-loop expansion emits.
  /// `budget_cap` (the Lemma 5.3 budget at scan time; budgets are
  /// non-increasing within an expansion) bounds the exact-resum work:
  /// candidates provably at or beyond it are skipped (decided on rounded
  /// sums with the kMeetEpsilon safety margin, so no in-budget candidate is
  /// ever dropped). Returns the stream's coverage: exhausted when nothing
  /// was skipped — any radius is served — else covered to `budget_cap`,
  /// the same protocol a budget-stopped settle search reports.
  ExpansionOutcome Collect(VertexId source, const PositionMatcher& matcher,
                           OracleWorkspace& oracle_ws, BucketScanState& state,
                           Weight budget_cap, SearchStats* stats,
                           SharedQueryCache* shared = nullptr) const;

 private:
  /// Re-sums one meeting vertex's up-down path from original edge weights
  /// in travel order, starting from the folded forward prefix.
  Weight ResumMeet(std::span<const PoiBucketSettle> span,
                   const PoiBucketSettle& meet, Weight fwd_sum) const;

  const CategoryBucketIndex* index_;
};

/// Bucket-table access for NNinit hops and lower-bound legs: exact
/// source -> PoI distances through EnsureForward + ExactDistanceTo, kept in
/// the caller's per-thread scan state and oracle workspace. `shared`
/// (optional) lets the forward searches read and warm the cross-query
/// cache. With `force` (RetrieverKind::kBucket) every hop and leg is
/// answered from the tables; otherwise each consumer's cost model picks,
/// per hop or leg, between the tables and its classic graph search.
struct BucketDistances {
  BucketRetriever retriever;
  OracleWorkspace* oracle_ws;
  BucketScanState* scan;
  SharedQueryCache* shared = nullptr;
  bool force = false;
};

/// Builds the immutable prewarm snapshot (cache/fwd_search_cache.h) over
/// `sources` (duplicates skipped), stamped with `structure_checksum` so
/// caches bound to another structure refuse it. Deterministic: depends only
/// on (CH structure, source list).
FwdSnapshot BuildFwdSnapshot(const CategoryBucketIndex& index,
                             std::span<const VertexId> sources,
                             uint64_t structure_checksum);

}  // namespace skysr

#endif  // SKYSR_RETRIEVAL_BUCKET_RETRIEVER_H_
