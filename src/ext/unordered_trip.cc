#include "ext/unordered_trip.h"

#include <algorithm>
#include <memory>

#include "core/nn_init.h"
#include "core/skyline_set.h"
#include "graph/dijkstra.h"
#include "graph/dijkstra_runner.h"
#include "util/dary_heap.h"
#include "util/timer.h"

namespace skysr {
namespace {

struct UEntry {
  int32_t node;
  int32_t size;
  double semantic;
  Weight length;
};

struct ULess {
  QueueDiscipline discipline;
  bool operator()(const UEntry& a, const UEntry& b) const {
    if (discipline == QueueDiscipline::kProposed) {
      if (a.size != b.size) return a.size > b.size;
      if (a.semantic != b.semantic) return a.semantic < b.semantic;
      if (a.length != b.length) return a.length < b.length;
    } else {
      if (a.length != b.length) return a.length < b.length;
    }
    return a.node < b.node;
  }
};

}  // namespace

Result<QueryResult> RunUnorderedSkySr(const Graph& g,
                                      const CategoryForest& forest,
                                      const Query& query,
                                      const QueryOptions& options) {
  SKYSR_RETURN_NOT_OK(ValidateQuery(g, forest, query));
  const int k = query.size();
  if (k > 31) {
    return Status::InvalidArgument("unordered queries support up to 31 stops");
  }
  WallTimer timer;
  QueryResult result;
  SearchStats& stats = result.stats;

  const SimilarityFunction& sim_fn =
      options.similarity ? *options.similarity : *DefaultSimilarity();
  const SemanticAggregator agg(options.aggregation);

  std::vector<PositionMatcher> matchers;
  matchers.reserve(static_cast<size_t>(k));
  for (const CategoryPredicate& pred : query.sequence) {
    matchers.emplace_back(g, forest, sim_fn, pred, options.multi_category);
  }

  std::vector<Weight> dest_storage;
  const std::vector<Weight>* dest_dist = nullptr;
  if (query.destination) {
    std::unique_ptr<const Graph> reversed;
    DijkstraWorkspace ws;
    DistancesTo(g, *query.destination, reversed, ws, &dest_storage);
    dest_dist = &dest_storage;
  }

  SkylineSet skyline;
  RouteArena arena;
  std::vector<uint32_t> mask_of_node;  // parallel to arena

  // Seed the upper bound with the greedy ordered chain — every ordered
  // sequenced route is a valid unordered one.
  DijkstraWorkspace nn_ws;
  if (options.use_initial_search) {
    RunNnInit(g, matchers, query.start, agg, dest_dist, nn_ws, &skyline,
              &stats);
  }

  DaryHeap<UEntry, ULess> queue(ULess{options.queue_discipline});
  DijkstraWorkspace ws;
  const uint32_t full_mask = (1u << k) - 1;

  const auto expand = [&](int32_t node_idx) {
    VertexId src;
    Weight len;
    double acc;
    uint32_t mask;
    int filled;
    if (node_idx == RouteArena::kEmpty) {
      src = query.start;
      len = 0;
      acc = agg.Identity();
      mask = 0;
      filled = 0;
    } else {
      const RouteArena::Node& nd = arena.node(node_idx);
      src = nd.vertex;
      len = nd.length;
      acc = nd.acc;
      mask = mask_of_node[static_cast<size_t>(node_idx)];
      filled = nd.size;
    }

    ++stats.mdijkstra_runs;
    const DijkstraRunStats run = RunDijkstra(
        g, src, ws, [&](VertexId v, Weight d, VertexId) {
          const double sem_now = agg.Score(acc);
          const Weight th = skyline.Threshold(sem_now);
          if (len + d >= th) return VisitAction::kStop;
          const PoiId poi = g.PoiAtVertex(v);
          if (poi == kInvalidPoi ||
              (node_idx != RouteArena::kEmpty &&
               arena.Contains(node_idx, poi))) {
            return VisitAction::kContinue;
          }
          for (int pos = 0; pos < k; ++pos) {
            if (mask & (1u << pos)) continue;
            const double sim =
                matchers[static_cast<size_t>(pos)].SimOfPoi(poi);
            if (sim <= 0) continue;
            const double nacc = agg.Extend(acc, sim);
            const double nsem = agg.Score(nacc);
            const Weight nlen = len + d;
            if (filled + 1 == k) {
              Weight flen = nlen;
              if (dest_dist != nullptr) {
                const Weight tail = (*dest_dist)[static_cast<size_t>(v)];
                if (tail == kInfWeight) continue;
                flen += tail;
              }
              const RouteScores scores{flen, nsem};
              if (!skyline.DominatedOrEqual(scores)) {
                std::vector<PoiId> pois = arena.Materialize(node_idx);
                pois.push_back(poi);
                skyline.Update(scores, std::move(pois));
              }
            } else if (nlen < skyline.Threshold(nsem)) {
              const int32_t idx = arena.Add(node_idx, poi, v, nlen, nacc);
              mask_of_node.resize(static_cast<size_t>(idx) + 1);
              mask_of_node[static_cast<size_t>(idx)] =
                  mask | (1u << pos);
              queue.push(UEntry{idx, filled + 1, nsem, nlen});
              ++stats.routes_enqueued;
            }
          }
          return VisitAction::kContinue;
        });
    stats.vertices_settled += run.settled;
    stats.edges_relaxed += run.relaxed;
    stats.weight_sum += run.weight_sum;
  };

  expand(RouteArena::kEmpty);
  while (!queue.empty()) {
    if (timer.ElapsedSeconds() > options.time_budget_seconds) {
      stats.timed_out = true;
      break;
    }
    const UEntry entry = queue.pop();
    ++stats.routes_dequeued;
    const RouteArena::Node& nd = arena.node(entry.node);
    if (nd.length >= skyline.Threshold(agg.Score(nd.acc))) {
      ++stats.routes_pruned;
      continue;
    }
    expand(entry.node);
  }
  (void)full_mask;

  stats.peak_queue_size = static_cast<int64_t>(queue.peak_size());
  stats.route_nodes = arena.num_nodes();
  stats.skyline_size = skyline.size();
  stats.elapsed_ms = timer.ElapsedMillis();
  result.routes = skyline.routes();
  return result;
}

}  // namespace skysr
