// The Dijkstra-based OSR solution of Sharifzadeh et al. (VLDBJ'08), §3 of
// the paper ("Dij"). A single Dijkstra over (vertex, progress) states whose
// queue entries carry partial routes; settling a PoI that perfectly matches
// the next category advances progress at zero cost. The route-carrying
// queue makes its memory footprint balloon — the effect Table 6 of the
// paper reports.
//
// Contract: exact in general. When the perfect-match PoI sets of the
// positions are pairwise disjoint (the paper's experimental setting —
// categories from distinct trees) the classic flat (vertex, progress)
// settling applies. PoIs shared by several positions make that state space
// unsound under the PoI-distinctness constraint of Definition 3.4(iii)
// — a disagreement the differential scenario harness surfaced — so such
// PoIs are tracked in a per-route bitmask and states are settled on
// (used-shared-set, progress, vertex) instead; beyond 64 shared PoIs the
// settling key becomes the exact used-PoI set (slower, still exact, and a
// finite state space, so the search always terminates).

#ifndef SKYSR_BASELINE_OSR_DIJKSTRA_H_
#define SKYSR_BASELINE_OSR_DIJKSTRA_H_

#include <optional>
#include <vector>

#include "baseline/osr_common.h"
#include "core/query.h"
#include "core/route.h"
#include "graph/graph.h"

namespace skysr {

/// Runs one Dijkstra-based OSR query. `matchers` define the per-position
/// perfect-match sets; `dest` optionally appends a fixed destination. The
/// search aborts (timed_out) after `time_budget_seconds`. Completed
/// (progress = k) states keep walking the graph to the destination, as in
/// the paper.
OsrResult RunOsrDijkstra(const Graph& g,
                         const std::vector<PositionMatcher>& matchers,
                         VertexId start, std::optional<VertexId> dest,
                         double time_budget_seconds);

}  // namespace skysr

#endif  // SKYSR_BASELINE_OSR_DIJKSTRA_H_
