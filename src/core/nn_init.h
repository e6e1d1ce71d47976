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
#include "index/distance_oracle.h"
#include "retrieval/bucket_retriever.h"

namespace skysr {

/// Reusable buffers for RunNnInit (chain state plus the oracle-table hop's
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
///
/// When `oracle` provides a fast many-to-many table (the CH oracle), a hop
/// with a small candidate set is answered by one 1 x candidates distance
/// table instead of a graph Dijkstra; candidates are then replayed in
/// (distance, vertex) order — the Dijkstra settle order — so the seeded
/// routes are bit-identical either way. Dense-candidate hops and a null or
/// flat oracle keep the classic early-exit Dijkstra chain, which is cheaper
/// there.
/// `oracle_candidate_cap` follows QueryOptions::oracle_candidate_cap
/// (-1 = graph-size heuristic). `scratch` (optional) supplies reusable
/// buffers; null falls back to function-local storage.
///
/// `buckets` + `bucket_scan` (optional, must describe `oracle`) route the
/// table hops through the precomputed category buckets instead of fresh
/// per-candidate backward searches: one forward upward search per cursor —
/// cached in `bucket_scan` for the whole query, so the bulk search that
/// follows reuses it — plus a scan per candidate. Distances are bit-equal
/// to Table()'s, so hits, chain and skyline are unchanged; with buckets on
/// hand the break-even candidate count widens accordingly. `shared`
/// (optional) lets the bucket hops read and warm the engine-lifetime
/// cross-query cache instead of the per-query scan cache.
void RunNnInit(const Graph& g, const std::vector<PositionMatcher>& matchers,
               VertexId start, const SemanticAggregator& agg,
               const std::vector<Weight>* dest_dist, DijkstraWorkspace& ws,
               SkylineSet* skyline, SearchStats* stats,
               const DistanceOracle* oracle = nullptr,
               OracleWorkspace* oracle_ws = nullptr,
               int64_t oracle_candidate_cap = -1,
               NnInitScratch* scratch = nullptr,
               const CategoryBucketIndex* buckets = nullptr,
               BucketScanState* bucket_scan = nullptr,
               SharedQueryCache* shared = nullptr);

}  // namespace skysr

#endif  // SKYSR_CORE_NN_INIT_H_
