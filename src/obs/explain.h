// QueryExplain — per-query decision attribution (the EXPLAIN ANALYZE of the
// serving stack). Where SearchStats counts *how much* work a query did, an
// explain records *which mechanism decided* to do (or skip) it: the
// retriever cost model's inputs and verdict, which backend answered each
// sequence position, what every cache layer contributed, how the pruned
// candidates split across the pruning layers (DESIGN.md §9 maps each field
// to its paper mechanism).
//
// Discipline matches the tracing subsystem (query_trace.h): explain is
// off by default (`QueryOptions::explain`), costs one branch per
// attribution site when off, and allocates only when requested — the golden
// work counters and the steady-state allocs/query gate are untouched.
// Results are bit-identical either way; an explain never feeds back into
// any decision.
//
// Rendering: ToTreeString() for humans (`skysr_cli query --explain`),
// ToJson() for machines (nightly publishes EXPLAIN_scale.json). Attached to QueryResult as a shared_ptr so the
// slow-query log shares the caller's instance.

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
  int64_t bucket_runs = 0;        // category-bucket scans (§5.3.3 tables)
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
  // Feasibility-gate verdict, assigned from SearchStats::infeasible; when
  // it fired, no search ran and every counter below stays 0.
  Infeasibility infeasible;
  // Query shape, assigned from SearchStats::semantic_floor: the best
  // semantic score any route can reach (0 when no bound applies).
  double semantic_floor = 0;

  // --- Per-position expansion backends (index = sequence position). ---
  std::vector<ExplainPositionBackends> positions;

  // --- Cache attribution, layer by layer. ---
  // Forward searches: hits/misses are SearchStats::bucket_fwd_reuses /
  // bucket_fwd_searches.
  ExplainCacheLayer fwd_search;
  ExplainCacheLayer dest_tail;     // destination-tail table
  std::string dest_tail_source = "none";  // provider|local|none
  ExplainCacheLayer result_cache;  // service result cache (service fills)
  ExplainCacheLayer resume_slots;  // resumable-slot reuses vs evictions

  // --- Pruning attribution, one field per layer: threshold prunes
  // (SearchStats::cand_pruned) and prune-floor skips (candidates that
  // never reach the consume() decision). ---
  int64_t cand_pruned = 0;
  int64_t floor_skips = 0;

  /// Human-readable tree (skysr_cli query --explain).
  std::string ToTreeString() const;

  /// One JSON object.
  std::string ToJson() const;
};

}  // namespace skysr

#endif  // SKYSR_OBS_EXPLAIN_H_
