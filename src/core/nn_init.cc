#include "core/nn_init.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/query_trace.h"
#include "util/timer.h"

namespace skysr {
namespace {

/// Shared per-hop emission/bookkeeping so the Dijkstra and bucket-served
/// paths update the skyline through literally the same code. Chain state
/// lives in the caller's NnInitScratch so steady-state queries reuse it.
struct NnChain {
  const SemanticAggregator& agg;
  const std::vector<Weight>* dest_dist;
  SkylineSet* skyline;
  SearchStats* stats;

  std::vector<PoiId>& route;
  std::vector<PoiId>& emit_buf;
  Weight length = 0;
  double acc;
  double max_semantic_seen = -1.0;

  NnChain(const SemanticAggregator& agg_in, const std::vector<Weight>* dd,
          SkylineSet* sky, SearchStats* st, int k, NnInitScratch& scratch)
      : agg(agg_in),
        dest_dist(dd),
        skyline(sky),
        stats(st),
        route(scratch.route),
        emit_buf(scratch.emit_buf) {
    route.clear();
    route.reserve(static_cast<size_t>(k));
    acc = agg.Identity();
  }

  /// Last-hop emission (Algorithm 3, lines 9-11): one sequenced route per
  /// semantically matching PoI passed on the way.
  void Emit(VertexId v, PoiId poi, Weight d, double sim) {
    Weight total_len = length + d;
    if (dest_dist != nullptr) {
      const Weight tail = (*dest_dist)[static_cast<size_t>(v)];
      if (tail == kInfWeight) return;
      total_len += tail;
    }
    const double sem = agg.Score(agg.Extend(acc, sim));
    emit_buf.assign(route.begin(), route.end());
    emit_buf.push_back(poi);
    skyline->Update(RouteScores{total_len, sem},
                    std::span<const PoiId>(emit_buf));
    if (stats != nullptr) {
      ++stats->nninit_routes;
      if (sem == 0.0) {
        stats->nninit_perfect_length =
            std::min(stats->nninit_perfect_length, total_len);
      }
      if (sem > max_semantic_seen) {
        max_semantic_seen = sem;
        stats->nninit_max_semantic_length = total_len;
      }
    }
  }

  void Advance(PoiId poi, VertexId vertex, Weight dist) {
    route.push_back(poi);
    length += dist;
    (void)vertex;
  }

  bool Used(PoiId poi) const {
    return std::find(route.begin(), route.end(), poi) != route.end();
  }
};

/// A bucket-served hop pays about one upward search — the CH oracle's
/// self-measured ApproxSearchSettles() — plus a scan per candidate PoI,
/// while the early-exit Dijkstra hop pays about |V| / |candidates| settles
/// before hitting the nearest match. Equating the two gives the break-even
/// candidate count: the tables win for sparse candidate sets on
/// index-friendly graphs (exactly where the Dijkstra hop degrades to a
/// whole-graph sweep) and are skipped on PoI-dense or expander-like ones.
/// Both hop flavors are bit-identical, so the choice is purely a matter of
/// speed.
size_t AutoBucketHopCap(int64_t num_vertices, int64_t settles_per_endpoint) {
  const double c = static_cast<double>(std::max<int64_t>(
      1, settles_per_endpoint));
  return 4 * static_cast<size_t>(
                 std::sqrt(static_cast<double>(num_vertices) / (2.0 * c)));
}

/// One classic NNinit hop: an early-terminating Dijkstra from the cursor.
/// Returns the nearest perfect match, emitting semantic matches passed on
/// the way when `last`.
std::optional<NearestHit> NnHopDijkstra(const Graph& g,
                                        const PositionMatcher& matcher,
                                        VertexId cursor, bool last,
                                        DijkstraWorkspace& ws, NnChain& chain,
                                        DijkstraRunStats* total) {
  std::optional<NearestHit> perfect_hit;
  const DijkstraRunStats run = RunDijkstra(
      g, cursor, ws, [&](VertexId v, Weight d, VertexId) {
        const PoiId poi = g.PoiAtVertex(v);
        if (poi == kInvalidPoi || chain.Used(poi)) {
          return VisitAction::kContinue;
        }
        const double sim = matcher.SimOfPoi(poi);
        if (last && sim > 0) chain.Emit(v, poi, d, sim);
        if (sim == 1.0) {
          perfect_hit = NearestHit{v, d};
          return VisitAction::kStop;
        }
        return VisitAction::kContinue;
      });
  *total += run;
  return perfect_hit;
}

/// NNinit with the bucket tables on hand: each hop picks per candidate
/// count between the Dijkstra hop and a bucket-served hop. Bucket
/// candidates are replayed in (distance, vertex) order — exactly the order
/// the Dijkstra hop settles them — and the hop advances to the
/// lexicographically first perfect match, so chain, emissions and skyline
/// updates are bit-identical whichever flavor answers a hop.
void RunNnInitAdaptive(const Graph& g,
                       const std::vector<PositionMatcher>& matchers,
                       VertexId start, DijkstraWorkspace& ws, NnChain& chain,
                       SearchStats* stats, NnInitScratch& scratch,
                       const BucketDistances* buckets) {
  const int k = static_cast<int>(matchers.size());
  const size_t table_cap =
      buckets == nullptr ? 0
      : buckets->force
          ? std::numeric_limits<size_t>::max()
          : AutoBucketHopCap(
                g.num_vertices(),
                buckets->retriever.index().oracle().ApproxSearchSettles());
  VertexId cursor = start;
  DijkstraRunStats total;

  std::vector<VertexId>& cand_vertex = scratch.cand_vertex;
  std::vector<PoiId>& cand_poi = scratch.cand_poi;
  std::vector<double>& cand_sim = scratch.cand_sim;
  std::vector<Weight>& dist = scratch.dist;
  std::vector<NnInitScratch::Hit>& hits = scratch.hits;

  for (int i = 0; i < k; ++i) {
    const PositionMatcher& matcher = matchers[static_cast<size_t>(i)];
    const bool last = i == k - 1;

    bool use_table = false;
    if (table_cap > 0) {
      // Candidate PoIs of this hop: perfect matches drive the chain; on
      // the last hop every semantic match can seed a route.
      cand_vertex.clear();
      cand_poi.clear();
      cand_sim.clear();
      use_table = true;
      for (PoiId p = 0; p < g.num_pois(); ++p) {
        if (chain.Used(p)) continue;
        const double sim = matcher.SimOfPoi(p);
        if (last ? sim <= 0 : sim != 1.0) continue;
        if (cand_vertex.size() >= table_cap) {
          use_table = false;  // dense matches: the Dijkstra hop is cheaper
          break;
        }
        cand_vertex.push_back(g.VertexOfPoi(p));
        cand_poi.push_back(p);
        cand_sim.push_back(sim);
      }
    }

    std::optional<NearestHit> perfect_hit;
    PoiId perfect_poi = kInvalidPoi;
    if (!use_table) {
      perfect_hit = NnHopDijkstra(g, matcher, cursor, last, ws, chain,
                                  &total);
      if (perfect_hit) perfect_poi = g.PoiAtVertex(perfect_hit->vertex);
    } else {
      if (cand_vertex.empty()) break;
      dist.assign(cand_vertex.size(), kInfWeight);
      {
        TraceSpan span(buckets->oracle_ws->trace, TracePhase::kOracleTable);
        buckets->retriever.EnsureForward(cursor, *buckets->oracle_ws,
                                         *buckets->scan, stats,
                                         buckets->shared);
        for (size_t c = 0; c < cand_poi.size(); ++c) {
          dist[c] = buckets->retriever.ExactDistanceTo(cand_poi[c],
                                                       *buckets->scan);
        }
      }

      hits.clear();
      for (size_t c = 0; c < cand_vertex.size(); ++c) {
        if (dist[c] != kInfWeight) {
          hits.push_back(NnInitScratch::Hit{dist[c], cand_vertex[c], c});
        }
      }
      std::sort(hits.begin(), hits.end());
      for (const NnInitScratch::Hit& h : hits) {
        if (last) {
          chain.Emit(h.vertex, cand_poi[h.idx], h.dist, cand_sim[h.idx]);
        }
        if (cand_sim[h.idx] == 1.0) {
          perfect_hit = NearestHit{h.vertex, h.dist};
          perfect_poi = cand_poi[h.idx];
          break;  // the Dijkstra hop stops at the first perfect settle
        }
      }
    }

    if (!perfect_hit) break;  // no perfect match reachable: stop the chain
    chain.Advance(perfect_poi, perfect_hit->vertex, perfect_hit->dist);
    cursor = perfect_hit->vertex;
  }

  if (stats != nullptr) {
    stats->nninit_weight_sum = total.weight_sum;
    stats->vertices_settled += total.settled;
    stats->edges_relaxed += total.relaxed;
    stats->weight_sum += total.weight_sum;
  }
}

}  // namespace

void RunNnInit(const Graph& g, const std::vector<PositionMatcher>& matchers,
               VertexId start, const SemanticAggregator& agg,
               const std::vector<Weight>* dest_dist, DijkstraWorkspace& ws,
               SkylineSet* skyline, SearchStats* stats,
               NnInitScratch* scratch, const BucketDistances* buckets) {
  WallTimer timer;
  NnInitScratch local;
  if (scratch == nullptr) scratch = &local;
  NnChain chain(agg, dest_dist, skyline, stats,
                static_cast<int>(matchers.size()), *scratch);
  RunNnInitAdaptive(g, matchers, start, ws, chain, stats, *scratch, buckets);
  if (stats != nullptr) stats->nninit_ms = timer.ElapsedMillis();
}

}  // namespace skysr
