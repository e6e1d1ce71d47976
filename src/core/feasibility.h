// Exact feasibility gate: decides, before any graph search, that a query has
// no sequenced route at all. A route visits k distinct PoIs, one matching
// each position (Definition 3.4(iii)); when no such assignment exists the
// skyline is empty, yet BSSR would search without ever setting a threshold,
// so nothing would prune. The gate proves emptiness from the matchers and
// the destination tails alone:
//
//   no_match          some position has no matching PoI;
//   dest_unreachable  every PoI matching the last position has an infinite
//                     destination tail;
//   hall              the positions cannot be matched onto distinct PoIs
//                     (Hall's condition fails).
//
// Each condition is necessary for a route to exist, so the gate never fires
// on a query that has one: an empty answer it returns is the exact answer.

#ifndef SKYSR_CORE_FEASIBILITY_H_
#define SKYSR_CORE_FEASIBILITY_H_

#include <span>
#include <vector>

#include "core/query.h"
#include "core/search_stats.h"
#include "graph/graph.h"

namespace skysr {

/// Reusable buffers of CheckFeasibility (lives in the engine's workspace).
struct FeasibilityScratch {
  std::vector<PoiId> lists;   // k slots per position, position-major
  std::vector<int> count;     // filled slots per position
  std::vector<PoiId> pois;    // distinct PoIs of the short lists, sorted
  std::vector<int> owner;     // position matched to pois[i], or -1
  std::vector<int> visit;     // augmenting-path visit stamps per PoI
};

/// Runs the gate for `matchers` (one per position). `dest_dist` holds the
/// destination tails D(v, destination) of a destination query, null
/// otherwise. One PoI scan collects up to k matches per position and stops
/// once every position has k; a position with k matches can always take a
/// PoI the other k - 1 positions left free, so an augmenting-path matching
/// over the positions with fewer than k matches decides Hall's condition
/// exactly in O(k^3). The scan fills the matchers' similarity memos, which
/// the later NNinit and lower-bound scans read back.
Infeasibility CheckFeasibility(const Graph& g,
                               std::span<const PositionMatcher> matchers,
                               const std::vector<Weight>* dest_dist,
                               FeasibilityScratch* scratch);

}  // namespace skysr

#endif  // SKYSR_CORE_FEASIBILITY_H_
