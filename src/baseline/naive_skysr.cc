#include "baseline/naive_skysr.h"

#include <algorithm>

#include "baseline/osr_dijkstra.h"
#include "baseline/osr_pne.h"
#include "baseline/super_sequence.h"
#include "core/skyline_set.h"
#include "util/timer.h"

namespace skysr {

Result<QueryResult> RunNaiveSkySr(const Graph& g, const CategoryForest& forest,
                                  const Query& query,
                                  const QueryOptions& options,
                                  OsrEngineKind engine, NaiveRunInfo* info) {
  SKYSR_RETURN_NOT_OK(ValidateQuery(g, forest, query));
  std::vector<CategoryId> base;
  for (const CategoryPredicate& p : query.sequence) {
    if (p.any_of.size() != 1 || !p.all_of.empty() || !p.none_of.empty()) {
      return Status::Unimplemented(
          "naive baseline supports single-category positions only");
    }
    base.push_back(p.any_of[0]);
  }

  WallTimer timer;
  QueryResult result;
  const SimilarityFunction& sim_fn =
      options.similarity ? *options.similarity : *DefaultSimilarity();
  const SemanticAggregator agg(options.aggregation);
  const int k = query.size();

  // Matchers against the ORIGINAL query, used for scoring returned routes.
  std::vector<PositionMatcher> score_matchers;
  score_matchers.reserve(static_cast<size_t>(k));
  for (CategoryId c : base) {
    score_matchers.emplace_back(g, forest, sim_fn,
                                CategoryPredicate::Single(c),
                                options.multi_category);
  }

  SkylineSet skyline;
  SuperSequenceEnumerator enumerator(forest, base);
  std::vector<CategoryId> super_seq;
  int64_t peak_bytes = 0;
  while (enumerator.Next(&super_seq)) {
    const double remaining =
        options.time_budget_seconds - timer.ElapsedSeconds();
    if (remaining <= 0) {
      result.stats.timed_out = true;
      break;
    }
    std::vector<PositionMatcher> osr_matchers;
    osr_matchers.reserve(static_cast<size_t>(k));
    for (CategoryId c : super_seq) {
      osr_matchers.emplace_back(g, forest, sim_fn,
                                CategoryPredicate::Single(c),
                                options.multi_category);
    }
    const OsrResult osr =
        engine == OsrEngineKind::kDijkstraBased
            ? RunOsrDijkstra(g, osr_matchers, query.start, query.destination,
                             remaining)
            : RunOsrPne(g, osr_matchers, query.start, query.destination,
                        remaining);
    if (info != nullptr) {
      ++info->osr_queries;
      info->vertices_settled += osr.vertices_settled;
    }
    result.stats.vertices_settled += osr.vertices_settled;
    ++result.stats.mdijkstra_runs;
    peak_bytes = std::max(peak_bytes, osr.logical_peak_bytes);
    if (osr.timed_out) {
      result.stats.timed_out = true;
      break;
    }
    if (!osr.pois) continue;

    // Score against the original query.
    double acc = agg.Identity();
    for (int i = 0; i < k; ++i) {
      acc = agg.Extend(
          acc, score_matchers[static_cast<size_t>(i)].SimOfPoi(
                   (*osr.pois)[static_cast<size_t>(i)]));
    }
    skyline.Update(RouteScores{osr.length, agg.Score(acc)}, *osr.pois);
  }

  result.routes = skyline.routes();
  result.stats.skyline_size = skyline.size();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  result.stats.logical_peak_bytes = peak_bytes + skyline.MemoryBytes();
  return result;
}

}  // namespace skysr
