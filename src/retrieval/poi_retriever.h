// PoI-retrieval subsystem: the backends answering the engine's expansion
// searches ("every PoI matching this position within the budget radius,
// in (dist, vertex) order, with the budget re-evaluated between
// candidates").
//
// Three backends, all bit-identical in results (the differential harness
// sweeps retriever x oracle x all 16 QueryOptions ablations):
//
//   RunExpansionInto    the classic settle-loop expansion
//                       (core/modified_dijkstra.h) — exact fallback, the
//                       only backend valid under Lemma 5.5 traversal cuts
//   BucketRetriever     precomputed per-category CH target buckets
//                       (category_buckets + bucket_retriever) — answers
//                       deferred-mode expansions without settling road
//                       vertices; wins grow with graph size
//   RetrieveResumable   suspend/resume settle state per hot source
//                       (resumable_retriever) — one suspended search serves
//                       every position, and a larger budget extends it
//                       instead of rebuilding it
//
// BssrEngine calls these primitives directly (the budget functor and
// candidate consumer inline into each loop; see bssr_engine.cc).
// RetrieverCostModel holds the deterministic choice "auto" makes between
// them.

#ifndef SKYSR_RETRIEVAL_POI_RETRIEVER_H_
#define SKYSR_RETRIEVAL_POI_RETRIEVER_H_

#include <cstdint>

namespace skysr {

/// Deterministic cost model behind RetrieverKind::kAuto. Inputs are pure
/// functions of the query plan (never of timing), so work counters stay
/// reproducible per configuration.
struct RetrieverCostModel {
  /// A bucket scan costs one (amortized) forward upward search plus a
  /// sequential pass over the bucket entries stored at the settled
  /// vertices; a settle-loop expansion costs the budget region, which can
  /// approach the whole graph and repeats on every rebuild. The scan-cost
  /// estimate is `fwd_settles * (1 + 2 * settle_density)` — the oracle's
  /// self-measured upward search space times the expected entries per
  /// vertex — compared against the graph size with a break-even multiplier:
  /// buckets engage where upward spaces are small relative to the graph
  /// (road-like CH hierarchies, growing with |V|) and stay off where the
  /// hierarchy degenerates (expander-like graphs whose upward spaces and
  /// hub buckets balloon).
  static constexpr int64_t kScanHandicap = 2;

  static bool PreferBucket(int64_t fwd_settles, double settle_density,
                           int64_t num_vertices) {
    const double scan_cost =
        static_cast<double>(fwd_settles) * (1.0 + 2.0 * settle_density);
    return scan_cost * static_cast<double>(kScanHandicap) <=
           static_cast<double>(num_vertices);
  }

  /// Resumable slots per engine: a fixed slot-vertex budget, clamped. A
  /// slot holds only its settle log and frontier (the pool's one O(|V|)
  /// label workspace is shared), but the count decides which slots CLOCK
  /// evicts, and so the work counters.
  static int ResumableSlots(int64_t num_vertices) {
    constexpr int64_t kSlotVertexBudget = int64_t{1} << 21;
    const int64_t slots = kSlotVertexBudget / (num_vertices > 0
                                                   ? num_vertices
                                                   : 1);
    if (slots < 4) return 4;
    if (slots > 128) return 128;
    return static_cast<int>(slots);
  }
};

}  // namespace skysr

#endif  // SKYSR_RETRIEVAL_POI_RETRIEVER_H_
