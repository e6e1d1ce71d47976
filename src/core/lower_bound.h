// Possible-minimum-distance lower bounds (§5.3.3, Algorithm 4, Lemma 5.8).
//
// For each remaining leg the engine adds a provable minimum distance to a
// partial route's length before comparing against the threshold. Two bounds
// per leg: the semantic-match distance ls (unconditionally addable) and the
// larger perfect-match distance lp (addable only under Lemma 5.8's δ
// condition). Both are computed with a multi-source multi-destination
// Dijkstra restricted to the ball B(v_q, l̄(∅)) — sources, destinations AND
// traversal; DESIGN.md explains why the traversal restriction is sound.

#ifndef SKYSR_CORE_LOWER_BOUND_H_
#define SKYSR_CORE_LOWER_BOUND_H_

#include <vector>

#include "core/query.h"
#include "core/search_stats.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "util/stamped_array.h"

namespace skysr {

struct BucketDistances;  // retrieval/bucket_retriever.h

/// Relative slack between two float sums of the same non-negative edge
/// weights taken in different orders (a route's length against a search
/// distance). A route length sums at most |V|·k terms, so the two differ
/// by a relative <= |V|·k·2⁻⁵³ — about 1.5e-11 on a 26k-vertex city at
/// k = 5 — so 1e-9 covers any |V|·k up to 2⁵³·1e-9 ≈ 9·10⁶.
inline constexpr double kSumOrderSlack = 1e-9;

/// Per-leg and per-suffix minimum distances for one query.
///
/// Legs are 0-based: leg i connects sequence position i to i+1
/// (i in [0, k-2]). A leg bound of kInfWeight means no in-ball pair of
/// matching PoIs is connected — any route needing that leg is prunable.
struct LowerBounds {
  std::vector<Weight> ls_leg;  // size k-1
  std::vector<Weight> lp_leg;  // size k-1

  /// ls_remaining[m] = Σ_{i=m-1}^{k-2} ls_leg[i]: minimum extra length any
  /// completion of a size-m partial route must add (m in [1, k]; entry 0 is
  /// the full sum including the unmodelled v_q -> position-0 leg lower bound
  /// of zero, kept for symmetry).
  std::vector<Weight> ls_remaining;  // size k+1
  std::vector<Weight> lp_remaining;  // size k+1

  bool empty() const { return ls_remaining.empty(); }
};

/// Reusable buffers for the lower-bound computation (ball distances and
/// PoIs, leg seeds/targets); engine-owned so steady-state queries pay
/// no O(|V|) allocation here. The ball distances use an epoch-stamped array
/// — resetting between queries is O(1).
struct LowerBoundScratch {
  DijkstraWorkspace ws;
  StampedArray<Weight> ball_dist;
  std::vector<PoiId> ball_pois;  // the ball's PoIs, in id order
  std::vector<SourceSeed> seeds;
  std::vector<VertexId> sources;
  std::vector<PoiId> sem_target_pois;
  std::vector<PoiId> perf_target_pois;
};

/// Computes the bounds. `radius` is l̄(∅) — the length of the best
/// perfect-match route known after the initial search (kInfWeight when
/// unknown, in which case no ball restriction applies). The ball is taken
/// with a kSumOrderSlack margin: a route 1 ulp shorter than l̄(∅) can hold
/// a vertex whose ball distance, summed in another order, rounds up to
/// l̄(∅). Updates stats->lb_ms / ls_total / lp_total and the global search
/// counters. `scratch` (optional) supplies reusable buffers; null falls
/// back to function-local storage.
LowerBounds ComputeLowerBounds(const Graph& g,
                               const std::vector<PositionMatcher>& matchers,
                               VertexId start, Weight radius,
                               SearchStats* stats,
                               LowerBoundScratch* scratch = nullptr);

/// Bucket-table variant. Sparse legs are answered off the category-bucket
/// tables: the exact minimum distance over the in-ball PoI pairs
/// (unrestricted distances, so <= the ball-restricted classic values), with
/// each PoI's backward search precomputed and the sources' forward searches
/// read from — and warming — the warm-state cache. Dense legs fall back to
/// the classic ball-restricted multi-source Dijkstra, which is cheaper
/// there; `buckets.force` serves every leg from the tables. Every flavor produces provable leg lower bounds, possibly
/// weaker than the classic ones, and any admissible bound leaves the
/// skyline bit-identical — the property the no-lower-bound ablation
/// already certifies and the differential harness re-verifies per
/// retriever kind.
LowerBounds ComputeLowerBoundsWithBuckets(
    const Graph& g, const std::vector<PositionMatcher>& matchers,
    VertexId start, Weight radius, const BucketDistances& buckets,
    SearchStats* stats, LowerBoundScratch* scratch = nullptr);

}  // namespace skysr

#endif  // SKYSR_CORE_LOWER_BOUND_H_
