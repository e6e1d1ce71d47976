// Shared result type and destination-tail helper for the OSR (optimal
// sequenced route) baseline engines.

#ifndef SKYSR_BASELINE_OSR_COMMON_H_
#define SKYSR_BASELINE_OSR_COMMON_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "graph/types.h"
#include "index/distance_oracle.h"

namespace skysr {

/// Outcome of one OSR query: the shortest route whose i-th PoI *perfectly*
/// matches position i, or nullopt when none exists (or the time budget ran
/// out).
struct OsrResult {
  std::optional<std::vector<PoiId>> pois;
  Weight length = kInfWeight;  // includes the destination tail if requested
  bool timed_out = false;

  // Effort/memory accounting.
  int64_t vertices_settled = 0;
  int64_t peak_queue_size = 0;
  int64_t route_nodes = 0;
  int64_t logical_peak_bytes = 0;
};

/// D(v, destination) provider for the OSR engines. Without an index it
/// precomputes one full (reverse) single-source Dijkstra — the classic
/// behavior; with a CH oracle it answers lazily per vertex, so an
/// engine that only ever needs a handful of tails (PNE touches one per
/// candidate completion) skips the whole-graph sweep.
class DestTail {
 public:
  DestTail(const Graph& g, std::optional<VertexId> dest,
           const DistanceOracle* oracle);

  bool active() const { return dest_.has_value(); }

  /// Exact D(v, destination); kInfWeight when unreachable. Requires
  /// active().
  Weight Get(VertexId v);

 private:
  const Graph* g_;
  std::optional<VertexId> dest_;
  const DistanceOracle* oracle_ = nullptr;  // null => precomputed sweep
  std::vector<Weight> all_;                 // sweep results
  std::unordered_map<VertexId, Weight> memo_;  // lazy oracle results
  OracleWorkspace ws_;
};

}  // namespace skysr

#endif  // SKYSR_BASELINE_OSR_COMMON_H_
