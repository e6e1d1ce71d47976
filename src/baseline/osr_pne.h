// The Progressive Neighbor Exploration (PNE) OSR solution of Sharifzadeh et
// al. (VLDBJ'08), §3 of the paper ("PNE"). Maintains a priority queue of
// partial routes ordered by length; popping a route spawns (a) its greedy
// child — the route extended with the nearest PoI perfectly matching the
// next category — and (b) its sibling — the same prefix with the *next*
// nearest PoI in place of the last one. Incremental nearest-neighbor
// queries are served by resumable Dijkstras memoized per (source vertex,
// position).
//
// With a destination, NN rank order — leg distance — does not order
// completed totals once the per-PoI destination tail is added, so naive
// lazy sibling chaining returned suboptimal routes (a bug the differential
// scenario harness surfaced). Complete routes therefore pop twice: first
// as a candidate keyed by the tail-free length (a lower bound that keeps
// the NN stream advancing one rank at a time), which re-enters the heap
// with its true total; the first true total popped is the optimum.

#ifndef SKYSR_BASELINE_OSR_PNE_H_
#define SKYSR_BASELINE_OSR_PNE_H_

#include <optional>
#include <vector>

#include "baseline/osr_common.h"
#include "core/query.h"
#include "graph/graph.h"

namespace skysr {

/// Runs one PNE OSR query (same contract as RunOsrDijkstra). A destination
/// costs one DistancesTo sweep for the completion tails.
OsrResult RunOsrPne(const Graph& g,
                    const std::vector<PositionMatcher>& matchers,
                    VertexId start, std::optional<VertexId> dest,
                    double time_budget_seconds);

}  // namespace skysr

#endif  // SKYSR_BASELINE_OSR_PNE_H_
