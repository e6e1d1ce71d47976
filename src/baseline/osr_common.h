// Shared result type of the OSR (optimal sequenced route) baseline engines.

#ifndef SKYSR_BASELINE_OSR_COMMON_H_
#define SKYSR_BASELINE_OSR_COMMON_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/types.h"

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

}  // namespace skysr

#endif  // SKYSR_BASELINE_OSR_COMMON_H_
