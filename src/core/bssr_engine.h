// BSSR — the bulk SkySR algorithm (§5): a single interleaved traversal that
// discovers all skyline sequenced routes, pruning with branch-and-bound
// (Lemmas 5.1-5.3, 5.5, 5.8) and accelerated by the four optimizations of
// §5.3 (NNinit, queue arrangement, minimum-distance lower bounds, on-the-fly
// caching), each individually toggleable through QueryOptions.
//
// Usage:
//   BssrEngine engine(graph, forest);
//   auto result = engine.Run(MakeSimpleQuery(start, {cafe, museum, bar}));
//   for (const Route& r : result->routes) ...
//
// The engine is cheap to construct and reusable across queries; it owns a
// QueryWorkspace (skyline, arena, queue, cache, every sub-search scratch),
// so in steady state a query allocates only its returned routes plus O(k)
// matcher tables. Results are bit-identical whether the engine is fresh or
// has served a million queries. Use one engine per thread.

#ifndef SKYSR_CORE_BSSR_ENGINE_H_
#define SKYSR_CORE_BSSR_ENGINE_H_

#include <memory>
#include <vector>

#include "cache/shared_query_cache.h"
#include "category/category_forest.h"
#include "core/dest_tails.h"
#include "core/query.h"
#include "core/query_workspace.h"
#include "core/route.h"
#include "core/search_stats.h"
#include "index/ch_oracle.h"
#include "retrieval/category_buckets.h"
#include "util/status.h"

namespace skysr {

class QueryTrace;  // src/obs/query_trace.h

struct QueryExplain;  // src/obs/explain.h

/// Outcome of a SkySR query: the minimal skyline set (sorted by length
/// ascending / semantic descending) plus instrumentation.
struct QueryResult {
  std::vector<Route> routes;
  SearchStats stats;
  /// Decision attribution (src/obs/explain.h); null unless the query ran
  /// with QueryOptions::explain. Shared so the slow-query log aliases the
  /// caller's instance instead of deep-copying it.
  std::shared_ptr<QueryExplain> explain;
};

/// The SkySR query engine.
class BssrEngine {
 public:
  /// The graph and forest must outlive the engine. `oracle` (optional, must
  /// also outlive the engine and be built over the same graph) is the CH
  /// index the `buckets` are derived from; on its own it changes nothing.
  /// `buckets` (optional) attaches the category-bucket tables of the
  /// retrieval subsystem; they must be built over exactly this graph and
  /// this oracle (else they are ignored) and outlive the engine. With them,
  /// NNinit hops, lower-bound legs and deferred expansions may be answered
  /// off the tables (QueryOptions::retriever decides); without them the
  /// engine runs the classic Dijkstra code paths. Both are shared and
  /// immutable; the engine owns the per-thread query workspace, preserving
  /// the one-engine-per-thread contract.
  BssrEngine(const Graph& graph, const CategoryForest& forest,
             const ChOracle* oracle = nullptr,
             const CategoryBucketIndex* buckets = nullptr);

  /// Executes a SkySR query. Returns InvalidArgument for malformed queries.
  Result<QueryResult> Run(const Query& query,
                          const QueryOptions& options = QueryOptions());

  /// Optional shared destination-tail provider (see core/dest_tails.h);
  /// null keeps the per-query reverse Dijkstra. The provider must outlive
  /// the engine.
  void SetDestTailProvider(DestTailProvider* provider) {
    dest_tails_ = provider;
  }

  /// Attaches (or detaches, with null) an engine-lifetime cross-query cache
  /// (see cache/shared_query_cache.h). The cache must outlive the engine and
  /// — like the engine itself — is single-threaded: one cache per engine per
  /// thread; cross-worker sharing goes through immutable FwdSnapshots. The
  /// cache is bound to this engine's (graph, oracle) warm-state checksum, so
  /// a cache previously warmed against different structure is invalidated on
  /// attach instead of serving stale state. Attached caches take effect only
  /// for queries with QueryOptions::use_shared_cache set; results are
  /// bit-identical with the cache attached, detached, cold or warm.
  void AttachSharedCache(SharedQueryCache* cache) {
    xcache_ = cache;
    if (xcache_ != nullptr) {
      xcache_->Bind(WarmStateChecksum(*g_, oracle_));
    }
  }

  /// Attaches (or detaches, with null) a borrowed phase tracer (src/obs/).
  /// When attached AND enabled, Run() records phase spans into it and folds
  /// the per-query aggregate delta into SearchStats::phases; otherwise the
  /// cost is one branch per span site and results — including the golden
  /// work counters — are bit-identical. The trace must outlive the engine's
  /// use of it and is single-threaded like the engine. The caller owns the
  /// window: Run() never Clear()s, so one trace can span a whole batch.
  void AttachTrace(QueryTrace* trace) { trace_ = trace; }
  QueryTrace* trace() const { return trace_; }

  const Graph& graph() const { return *g_; }
  const CategoryForest& forest() const { return *forest_; }
  const ChOracle* oracle() const { return oracle_; }
  const CategoryBucketIndex* buckets() const { return buckets_; }

 private:
  const Graph* g_;
  const CategoryForest* forest_;
  const ChOracle* oracle_;  // may be null (no index)
  const CategoryBucketIndex* buckets_;  // may be null (no bucket backend)
  DestTailProvider* dest_tails_ = nullptr;  // may be null (local tails)
  SharedQueryCache* xcache_ = nullptr;  // may be null (per-query state only)
  QueryTrace* trace_ = nullptr;  // may be null (tracing off, the default)
  bool has_multi_category_poi_ = false;

  // Destination tails D(v, destination): the full-graph reverse Dijkstra
  // behind both the local and the provider-backed tail paths.
  void ComputeDestTails(VertexId destination, std::vector<Weight>* out);

  // Destination queries on directed graphs need D(v, destination) = forward
  // distances in the reversed graph; built once on first use instead of per
  // query.
  std::unique_ptr<const Graph> reversed_;

  // Reusable per-query state (engine is single-threaded by design).
  QueryWorkspace ws_;
};

}  // namespace skysr

#endif  // SKYSR_CORE_BSSR_ENGINE_H_
