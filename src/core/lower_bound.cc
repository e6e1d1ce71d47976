#include "core/lower_bound.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/query_trace.h"
#include "retrieval/bucket_retriever.h"
#include "util/timer.h"

namespace skysr {
namespace {

/// Classic leg bound, shared by both variants: a ball-restricted
/// multi-source Dijkstra from the leg's sources to the nearest semantic /
/// perfect match of `next`. `in_ball` gates targets AND traversal; it is a
/// template parameter so the membership test inlines into the settle loop.
template <typename InBall>
void DenseLegBounds(const Graph& g, const PositionMatcher& next,
                    std::span<const SourceSeed> seeds, const InBall& in_ball,
                    DijkstraWorkspace& ws, DijkstraRunStats* leg_stats,
                    Weight* ls, Weight* lp) {
  const auto semantic_target = [&](VertexId v) {
    return in_ball(v) && next.SimOfVertex(v) > 0;
  };
  const auto perfect_target = [&](VertexId v) {
    if (!in_ball(v)) return false;
    const PoiId p = g.PoiAtVertex(v);
    return p != kInvalidPoi && next.IsPerfect(p);
  };
  if (auto hit = MultiSourceNearestT(g, seeds, ws, semantic_target, in_ball,
                                     leg_stats)) {
    *ls = hit->dist;
  }
  if (auto hit = MultiSourceNearestT(g, seeds, ws, perfect_target, in_ball,
                                     leg_stats)) {
    *lp = hit->dist;
  }
}

/// The ball radius for l̄(∅) = `radius`, widened by kSumOrderSlack.
Weight BallRadius(Weight radius) {
  return radius == kInfWeight ? radius : radius * (1.0 + kSumOrderSlack);
}

/// Ball set-up shared by both variants. With `search`, one Dijkstra from
/// `start` truncated at `radius` records each settled vertex's distance in
/// scratch->ball_dist (membership: D(v_q, v) < radius) and each settled
/// PoI in scratch->ball_pois; without it there is no ball and every PoI is
/// listed. The PoIs are left in id order, the order a scan over all PoIs
/// gathers them in, so the legs seed their searches exactly as one would.
DijkstraRunStats SetUpBall(const Graph& g, VertexId start, Weight radius,
                           bool search, LowerBoundScratch* scratch) {
  std::vector<PoiId>& pois = scratch->ball_pois;
  pois.clear();
  if (!search) {
    pois.resize(static_cast<size_t>(g.num_pois()));
    std::iota(pois.begin(), pois.end(), PoiId{0});
    return {};
  }
  StampedArray<Weight>& ball_dist = scratch->ball_dist;
  ball_dist.Prepare(g.num_vertices(), kInfWeight);
  const DijkstraRunStats stats =
      RunDijkstra(g, start, scratch->ws, [&](VertexId v, Weight d, VertexId) {
        if (d >= radius) return VisitAction::kStop;
        ball_dist.Set(v, d);
        if (const PoiId p = g.PoiAtVertex(v); p != kInvalidPoi) {
          pois.push_back(p);
        }
        return VisitAction::kContinue;
      });
  std::sort(pois.begin(), pois.end());
  return stats;
}

/// Shared tail of both variants: suffix sums plus stats accounting.
void FinishBounds(LowerBounds* lb, int k, WallTimer* timer,
                  SearchStats* stats) {
  lb->ls_remaining.assign(static_cast<size_t>(k) + 1, 0);
  lb->lp_remaining.assign(static_cast<size_t>(k) + 1, 0);
  for (int m = k - 1; m >= 1; --m) {
    // Completing a size-m route still needs legs m-1 .. k-2.
    lb->ls_remaining[static_cast<size_t>(m)] =
        lb->ls_remaining[static_cast<size_t>(m) + 1] +
        lb->ls_leg[static_cast<size_t>(m) - 1];
    lb->lp_remaining[static_cast<size_t>(m)] =
        lb->lp_remaining[static_cast<size_t>(m) + 1] +
        lb->lp_leg[static_cast<size_t>(m) - 1];
  }
  lb->ls_remaining[0] = lb->ls_remaining[1];
  lb->lp_remaining[0] = lb->lp_remaining[1];

  if (stats != nullptr) {
    stats->lb_ms = timer->ElapsedMillis();
    for (Weight w : lb->ls_leg) {
      if (w != kInfWeight) stats->ls_total += w;
    }
    for (Weight w : lb->lp_leg) {
      if (w != kInfWeight) stats->lp_total += w;
    }
  }
}

}  // namespace

LowerBounds ComputeLowerBounds(const Graph& g,
                               const std::vector<PositionMatcher>& matchers,
                               VertexId start, Weight radius,
                               SearchStats* stats,
                               LowerBoundScratch* scratch) {
  WallTimer timer;
  const int k = static_cast<int>(matchers.size());
  LowerBounds lb;
  if (k < 2) {
    lb.ls_leg.clear();
    lb.lp_leg.clear();
    lb.ls_remaining.assign(static_cast<size_t>(k) + 1, 0);
    lb.lp_remaining.assign(static_cast<size_t>(k) + 1, 0);
    if (stats != nullptr) stats->lb_ms = timer.ElapsedMillis();
    return lb;
  }
  LowerBoundScratch local;
  if (scratch == nullptr) scratch = &local;
  radius = BallRadius(radius);

  // Ball membership: D(v_q, v) < radius. Every leg of a surviving route lies
  // inside the ball (its prefix length bounds the distance from v_q of every
  // point on the route), so restricting everything to the ball keeps the
  // bounds valid for surviving routes. The search runs even without a
  // radius, where the ball is everything reachable from v_q.
  const DijkstraRunStats ball_stats =
      SetUpBall(g, start, radius, /*search=*/true, scratch);
  const StampedArray<Weight>& ball_dist = scratch->ball_dist;
  const auto in_ball = [&](VertexId v) { return ball_dist.Get(v) < radius; };

  DijkstraRunStats leg_stats;
  lb.ls_leg.assign(static_cast<size_t>(k) - 1, kInfWeight);
  lb.lp_leg.assign(static_cast<size_t>(k) - 1, kInfWeight);
  std::vector<SourceSeed>& seeds = scratch->seeds;
  for (int i = 0; i + 1 < k; ++i) {
    seeds.clear();
    for (const PoiId p : scratch->ball_pois) {
      if (matchers[static_cast<size_t>(i)].SimOfPoi(p) > 0) {
        seeds.push_back(SourceSeed{g.VertexOfPoi(p), 0});
      }
    }
    if (seeds.empty()) continue;  // leg stays +inf: nothing can cross it

    DenseLegBounds(g, matchers[static_cast<size_t>(i) + 1], seeds, in_ball,
                   scratch->ws, &leg_stats,
                   &lb.ls_leg[static_cast<size_t>(i)],
                   &lb.lp_leg[static_cast<size_t>(i)]);
  }

  // Suffix sums (+inf saturates naturally in IEEE arithmetic) and timing.
  FinishBounds(&lb, k, &timer, stats);
  if (stats != nullptr) {
    stats->vertices_settled += ball_stats.settled + leg_stats.settled;
    stats->edges_relaxed += ball_stats.relaxed + leg_stats.relaxed;
    stats->weight_sum += ball_stats.weight_sum + leg_stats.weight_sum;
  }
  return lb;
}

LowerBounds ComputeLowerBoundsWithBuckets(
    const Graph& g, const std::vector<PositionMatcher>& matchers,
    VertexId start, Weight radius, const BucketDistances& buckets,
    SearchStats* stats, LowerBoundScratch* scratch) {
  WallTimer timer;
  const int k = static_cast<int>(matchers.size());
  LowerBounds lb;
  if (k < 2) {
    lb.ls_remaining.assign(static_cast<size_t>(k) + 1, 0);
    lb.lp_remaining.assign(static_cast<size_t>(k) + 1, 0);
    if (stats != nullptr) stats->lb_ms = timer.ElapsedMillis();
    return lb;
  }
  LowerBoundScratch local;
  if (scratch == nullptr) scratch = &local;
  radius = BallRadius(radius);

  // Ball membership D(v_q, v) < radius via one radius-truncated Dijkstra —
  // it settles only the ball, and the classic fallback legs additionally
  // need it as a whole-vertex traversal filter. radius == +inf (no
  // threshold yet) means everything is in the ball and no search is needed.
  const bool have_ball = radius != kInfWeight;
  const DijkstraRunStats ball_stats =
      SetUpBall(g, start, radius, have_ball, scratch);
  const StampedArray<Weight>& ball_dist = scratch->ball_dist;
  const auto in_ball = [&](VertexId v) {
    return !have_ball || ball_dist.Get(v) < radius;
  };

  // Bucket legs pay per endpoint (about one CH upward search of the
  // oracle's self-measured ApproxSearchSettles() size), while the classic
  // alternative — a ball-restricted multi-source Dijkstra — costs one pass
  // over the ball, whose size the truncated search above just measured. So
  // the tables only get a leg when their cost undercuts that pass; dense
  // legs (or tiny balls) use the classic search. Every flavor yields valid
  // bounds, so the switch (and `force`) is purely a matter of speed.
  const auto ball_vertices = static_cast<size_t>(
      have_ball ? ball_stats.settled : g.num_vertices());
  const size_t max_table_endpoints =  // |S| + |T| per leg
      buckets.force
          ? std::numeric_limits<size_t>::max()
          : ball_vertices /
                (2 * static_cast<size_t>(std::max<int64_t>(
                         1, buckets.retriever.index()
                                .oracle()
                                .ApproxSearchSettles())));

  DijkstraRunStats leg_stats;
  lb.ls_leg.assign(static_cast<size_t>(k) - 1, kInfWeight);
  lb.lp_leg.assign(static_cast<size_t>(k) - 1, kInfWeight);
  std::vector<VertexId>& sources = scratch->sources;
  std::vector<PoiId>& sem_target_pois = scratch->sem_target_pois;
  std::vector<PoiId>& perf_target_pois = scratch->perf_target_pois;
  std::vector<SourceSeed>& seeds = scratch->seeds;
  for (int i = 0; i + 1 < k; ++i) {
    sources.clear();
    for (const PoiId p : scratch->ball_pois) {
      if (matchers[static_cast<size_t>(i)].SimOfPoi(p) > 0) {
        sources.push_back(g.VertexOfPoi(p));
      }
    }
    if (sources.empty()) continue;  // leg stays +inf: nothing can cross it

    // Gather the target sets only while the leg still qualifies for the
    // tables — the scan aborts the moment the budget is blown, so dense
    // legs pay (almost) nothing extra over the classic path.
    const PositionMatcher& next = matchers[static_cast<size_t>(i) + 1];
    sem_target_pois.clear();
    perf_target_pois.clear();
    bool bucket_leg = sources.size() < max_table_endpoints;
    const size_t target_budget =
        bucket_leg ? max_table_endpoints - sources.size() : 0;
    for (size_t j = 0; bucket_leg && j < scratch->ball_pois.size(); ++j) {
      const PoiId p = scratch->ball_pois[j];
      if (next.SimOfPoi(p) > 0) sem_target_pois.push_back(p);
      if (next.IsPerfect(p)) perf_target_pois.push_back(p);
      if (sem_target_pois.size() + perf_target_pois.size() > target_budget) {
        bucket_leg = false;
      }
    }

    if (bucket_leg) {
      // Exact minima over the in-ball pairs (unrestricted distances, <= the
      // ball-restricted classic values). ExactDistanceTo is bit-equal to a
      // graph Dijkstra, so the minima — and the skyline — are too.
      TraceSpan span(buckets.oracle_ws->trace, TracePhase::kOracleTable);
      const auto min_pair = [&](std::span<const PoiId> target_pois) {
        Weight best = kInfWeight;
        if (target_pois.empty()) return best;
        for (const VertexId s : sources) {
          buckets.retriever.EnsureForward(s, *buckets.oracle_ws,
                                          *buckets.scan, *buckets.shared,
                                          stats);
          for (const PoiId p : target_pois) {
            best = std::min(
                best, buckets.retriever.ExactDistanceTo(p, *buckets.scan));
          }
        }
        return best;
      };
      lb.ls_leg[static_cast<size_t>(i)] = min_pair(sem_target_pois);
      lb.lp_leg[static_cast<size_t>(i)] = min_pair(perf_target_pois);
    } else {
      // Dense leg: the classic ball-restricted multi-source search.
      seeds.clear();
      for (const VertexId v : sources) seeds.push_back(SourceSeed{v, 0});
      DenseLegBounds(g, next, seeds, in_ball, scratch->ws, &leg_stats,
                     &lb.ls_leg[static_cast<size_t>(i)],
                     &lb.lp_leg[static_cast<size_t>(i)]);
    }
  }

  FinishBounds(&lb, k, &timer, stats);
  if (stats != nullptr) {
    stats->vertices_settled += ball_stats.settled + leg_stats.settled;
    stats->edges_relaxed += ball_stats.relaxed + leg_stats.relaxed;
    stats->weight_sum += ball_stats.weight_sum + leg_stats.weight_sum;
  }
  return lb;
}

}  // namespace skysr
