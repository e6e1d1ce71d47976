// NNinit (§5.3.1, Algorithm 3): a greedy chain of nearest-neighbor searches
// that seeds the skyline before the bulk search starts. It finds the
// perfect-match route by repeatedly jumping to the nearest PoI that
// perfectly matches the next category; during the LAST hop it additionally
// records every semantically-matching PoI passed on the way, yielding
// several cheap sequenced routes with small lengths.

#ifndef SKYSR_CORE_NN_INIT_H_
#define SKYSR_CORE_NN_INIT_H_

#include <optional>
#include <vector>

#include "core/query.h"
#include "core/search_stats.h"
#include "core/skyline_set.h"
#include "graph/dijkstra.h"
#include "retrieval/bucket_retriever.h"

namespace skysr {

/// Reusable buffers for RunNnInit (chain state plus the bucket-served hop's
/// candidate staging); engine-owned so steady-state queries allocate
/// nothing here.
struct NnInitScratch {
  std::vector<PoiId> route;     // the greedy chain's PoIs so far
  std::vector<PoiId> emit_buf;  // route + last-hop PoI, for skyline updates
  std::vector<VertexId> cand_vertex;
  std::vector<PoiId> cand_poi;
  std::vector<double> cand_sim;
  std::vector<Weight> dist;
  struct Hit {
    Weight dist;
    VertexId vertex;
    size_t idx;
    bool operator<(const Hit& o) const {
      if (dist != o.dist) return dist < o.dist;
      return vertex < o.vertex;
    }
  };
  std::vector<Hit> hits;
};

/// Seeds `skyline` with the routes found by NNinit. `dest_dist` (optional)
/// holds D(v, destination) for every vertex, for the §6 destination variant.
/// Updates the nninit_* fields of `stats` and the global search counters.
/// `scratch` (optional) supplies reusable buffers; null falls back to
/// function-local storage.
///
/// Without `buckets` every hop is the classic early-exit Dijkstra. With
/// them, a hop with a small candidate set (every hop under `force`) is
/// answered off the category-bucket tables instead: one forward upward
/// search per cursor — cached in the scan state for the whole query, so the
/// bulk search that follows reuses it — plus an exact-distance scan per
/// candidate PoI. Candidates are then replayed in (distance, vertex) order —
/// the Dijkstra settle order — with bit-equal distances, so the chain,
/// emissions and seeded routes are identical either way; dense-candidate
/// hops keep the Dijkstra, which is cheaper there.
void RunNnInit(const Graph& g, const std::vector<PositionMatcher>& matchers,
               VertexId start, const SemanticAggregator& agg,
               const std::vector<Weight>* dest_dist, DijkstraWorkspace& ws,
               SkylineSet* skyline, SearchStats* stats,
               NnInitScratch* scratch = nullptr,
               const BucketDistances* buckets = nullptr);

}  // namespace skysr

#endif  // SKYSR_CORE_NN_INIT_H_
