// QueryExplain — per-query decision attribution (the EXPLAIN ANALYZE of the
// serving stack). Where SearchStats counts *how much* work a query did, an
// explain records *which mechanism decided* to do (or skip) it: the
// retriever cost model's inputs and verdict, which backend answered each
// sequence position, and the cache layers the stats cannot hold (DESIGN.md
// §9 maps each rendered field to its paper mechanism and its writer).
//
// One writer per counter: an explain holds only what SearchStats cannot —
// the plan, the per-position backends, the result-cache layer and the
// warm-state resident bytes. The feasibility verdict,
// the semantic floor, the forward-search and resumable-slot layers and the
// pruning split are rendered from the SearchStats of the same execution,
// so both renderers take it.
//
// Discipline matches the tracing subsystem (query_trace.h): explain is
// off by default (`QueryOptions::explain`), costs one branch per
// attribution site when off, and allocates only when requested — the golden
// work counters and the steady-state allocs/query gate are untouched.
// Results are bit-identical either way; an explain never feeds back into
// any decision.
//
// Rendering: ToTreeString() for humans (`skysr_cli query --explain`),
// ToJson() for machines (nightly publishes EXPLAIN_scale.json). Attached to
// QueryResult as a shared_ptr so the slow-query log shares the caller's
// instance; the log's record keeps the matching SearchStats.

#ifndef SKYSR_OBS_EXPLAIN_H_
#define SKYSR_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/search_stats.h"

namespace skysr {

/// One cache layer's contribution to one query.
struct ExplainCacheLayer {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t bytes = 0;  // resident bytes of the layer after the query
};

/// Which backend answered each expansion of one sequence position.
struct ExplainPositionBackends {
  int64_t cache_replays = 0;      // intra-query MdijkstraCache replays
  int64_t bucket_runs = 0;        // category-bucket table scans
  int64_t resume_runs = 0;        // resumable suspended searches
  int64_t fresh_searches = 0;     // classic modified-Dijkstra settles
};

struct QueryExplain {
  // --- Plan: what the engine decided before the drain. ---
  std::string oracle = "none";        // OracleKindName, "none" w/o an index
  // Lemma 5.5 deferral mode; also the plan verdict that every graph
  // expansion runs on a resumable slot.
  bool deferred_lemma55 = false;
  std::string retriever_requested = "auto";  // QueryOptions::retriever
  bool bucket_backend = false;        // plan verdict: bucket scans eligible
  // Retriever cost-model inputs (RetrieverCostModel::PreferBucket).
  int64_t cost_fwd_settles = 0;       // oracle->ApproxSearchSettles()
  double cost_settle_density = 0.0;   // buckets->SettleDensity()
  int64_t cost_num_vertices = 0;

  // --- Per-position expansion backends (index = sequence position). ---
  std::vector<ExplainPositionBackends> positions;

  // --- Cache layers SearchStats does not count. ---
  ExplainCacheLayer result_cache;  // service result cache (service fills)
  // Gauge: SharedQueryCache::ResidentBytes() after the query, rendered as
  // the forward-search layer's bytes.
  int64_t xcache_bytes = 0;

  /// Human-readable tree (skysr_cli query --explain). `stats` is the
  /// SearchStats of the same execution (all-zero for a result-cache hit).
  std::string ToTreeString(const SearchStats& stats) const;

  /// One JSON object; `stats` as for ToTreeString.
  std::string ToJson(const SearchStats& stats) const;
};

}  // namespace skysr

#endif  // SKYSR_OBS_EXPLAIN_H_
