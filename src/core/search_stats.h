// Instrumentation counters collected by every engine. Each counter feeds one
// of the paper's tables/figures (see DESIGN.md §3).
//
// SearchStats is the one per-query record: each counter has exactly one
// writer, and every other record derives from it. The engine (and NNinit)
// write the search and candidate counters; the warm-state fields are the
// query's deltas of SharedQueryCache::Counters(), the only writer of cache
// events. QueryExplain renders these counters instead of copying them, the
// slow-query log keeps the record whole, and ServiceMetrics folds it.

#ifndef SKYSR_CORE_SEARCH_STATS_H_
#define SKYSR_CORE_SEARCH_STATS_H_

#include <cstdint>
#include <limits>
#include <string>

#include "graph/types.h"
#include "obs/trace_phase.h"

namespace skysr {

/// Why a query has no sequenced route, as proven by the feasibility gate
/// (core/feasibility.h) before any search ran.
enum class InfeasibleReason : uint8_t {
  kNone,             // not proven infeasible: the search ran
  kNoMatch,          // a position has no matching PoI
  kHall,             // positions cannot be matched onto distinct PoIs
  kDestUnreachable,  // no last-position match reaches the destination
};
inline constexpr int kNumInfeasibleReasons = 4;

/// "none", "no_match", "hall" or "dest_unreachable".
const char* InfeasibleReasonName(InfeasibleReason reason);

/// The gate's verdict: the reason plus the first offending position.
struct Infeasibility {
  InfeasibleReason reason = InfeasibleReason::kNone;
  int position = -1;  // sequence position; -1 with kNone

  bool fired() const { return reason != InfeasibleReason::kNone; }
  bool operator==(const Infeasibility&) const = default;
  /// "none", or "<reason>@<position>", e.g. "no_match@3".
  std::string ToString() const;
};

/// Counters for a single query execution.
struct SearchStats {
  // Overall.
  double elapsed_ms = 0;
  bool timed_out = false;
  int64_t skyline_size = 0;
  // Set by the feasibility gate; when it fired, no search ran and the
  // skyline is empty.
  Infeasibility infeasible;

  // Graph-search effort (Table 8, Figure 5, Table 7).
  int64_t mdijkstra_runs = 0;        // expansion searches actually executed
  int64_t mdijkstra_cache_hits = 0;  // expansions served from cache
  int64_t cache_reruns = 0;          // cache entries rebuilt with larger radius
  int64_t vertices_settled = 0;      // all searches of this query
  int64_t edges_relaxed = 0;

  // PoI-retrieval subsystem (src/retrieval/).
  int64_t retriever_bucket_runs = 0;  // expansions answered by bucket scans
  int64_t retriever_resume_runs = 0;  // expansions served by resumable slots
  int64_t bucket_candidates = 0;      // candidates materialized by scans
  double weight_sum = 0;              // all searches (search-space proxy)
  double first_search_weight_sum = 0; // the first modified Dijkstra only

  // Warm state (src/cache/): this query's deltas of the SharedQueryCache
  // counters, stored once at the end of the run. On an engine with no cache
  // attached they count reuse within the query only.
  int64_t bucket_fwd_searches = 0;  // forward upward searches run
  int64_t bucket_fwd_reuses = 0;    // forward searches replayed (cache or
                                    // prewarm snapshot)
  int64_t fwd_evictions = 0;        // forward-cache entries displaced
  int64_t resume_reuses = 0;        // resumable slots found suspended
  int64_t resume_evictions = 0;     // resumable slots displaced

  // NNinit (§5.3.1, Table 7).
  double nninit_ms = 0;
  int64_t nninit_routes = 0;
  double nninit_weight_sum = 0;
  Weight nninit_perfect_length = std::numeric_limits<Weight>::infinity();
  Weight nninit_max_semantic_length =
      std::numeric_limits<Weight>::infinity();  // route w/ largest semantic

  // Completion bounds (DESIGN.md §6, Figure 4's toggle): the semantic
  // floor, the best semantic score any route of this query can reach; 0
  // when no bound applies (lower bounds off, or every position has a
  // perfect PoI).
  double semantic_floor = 0;

  // Bulk queue (§5.3.2).
  int64_t routes_enqueued = 0;
  int64_t cand_examined = 0;   // consume() invocations (replay + search)
  int64_t cand_rejected = 0;   // Definition 3.4(iii) duplicate-PoI rejects
  int64_t cand_pruned = 0;     // candidates pruned by a threshold test
  int64_t cand_floor_skipped = 0;  // skipped by the prune-floor table,
                                   // never consume()d
  // Always 0: nothing writes it. Kept only while perfbench still reads it
  // (ROADMAP, leftovers for the benchmark); nothing else may read it.
  int64_t qb_dominance_pruned = 0;
  int64_t routes_dequeued = 0;
  int64_t routes_pruned = 0;  // pruned at dequeue by the threshold
  int64_t peak_queue_size = 0;
  int64_t route_nodes = 0;  // arena nodes allocated

  // Logical memory model (Table 6 companion to process RSS).
  int64_t logical_peak_bytes = 0;

  // Per-phase wall-time aggregates from the tracing subsystem (src/obs/).
  // All-zero — and ignored by every consumer — unless the engine ran with
  // an enabled QueryTrace attached; timing, never part of the deterministic
  // work-counter contract.
  PhaseAggregates phases;

  /// Multi-line human-readable dump (phase aggregates appended only when
  /// tracing populated them).
  std::string ToString() const;
};

}  // namespace skysr

#endif  // SKYSR_CORE_SEARCH_STATS_H_
