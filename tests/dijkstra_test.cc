// Property tests of the shortest-path toolkit against an independent
// Bellman-Ford reference, plus the runner's visit actions and the
// resumable variant.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/dijkstra.h"
#include "graph/graph_builder.h"
#include "graph/resumable_dijkstra.h"
#include "util/rng.h"

namespace skysr {
namespace {

Graph RandomConnectedGraph(uint64_t seed, int n, int extra, bool directed) {
  Rng rng(seed);
  GraphBuilder b(directed);
  for (int i = 0; i < n; ++i) b.AddVertex();
  for (int i = 0; i < n; ++i) {
    b.AddEdge(i, (i + 1) % n, 0.5 + rng.UniformDouble() * 5.0);
    if (directed) b.AddEdge((i + 1) % n, i, 0.5 + rng.UniformDouble() * 5.0);
  }
  for (int e = 0; e < extra; ++e) {
    const auto u = static_cast<VertexId>(rng.UniformU64(n));
    const auto v = static_cast<VertexId>(rng.UniformU64(n));
    if (u != v) b.AddEdge(u, v, 0.5 + rng.UniformDouble() * 8.0);
  }
  return std::move(b.Build()).ValueOrDie();
}

class DijkstraVsBellmanFord
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DijkstraVsBellmanFord, DistancesAgree) {
  const auto [seed, directed] = GetParam();
  const Graph g =
      RandomConnectedGraph(static_cast<uint64_t>(seed), 40, 60, directed);
  Rng rng(static_cast<uint64_t>(seed) + 100);
  for (int rep = 0; rep < 3; ++rep) {
    const auto src = static_cast<VertexId>(
        rng.UniformU64(static_cast<uint64_t>(g.num_vertices())));
    const DistanceField field = SingleSourceDistances(g, src);
    const std::vector<Weight> reference = BellmanFordDistances(g, src);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_NEAR(field.dist[static_cast<size_t>(v)],
                  reference[static_cast<size_t>(v)], 1e-9)
          << "src=" << src << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DijkstraVsBellmanFord,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Bool()));

TEST(DijkstraTest, PathReconstructionIsConsistent) {
  const Graph g = RandomConnectedGraph(5, 30, 40, false);
  const DistanceField field = SingleSourceDistances(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto path = field.PathTo(v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), v);
    // Sum of edge weights along the path equals the reported distance.
    Weight sum = 0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      Weight best = kInfWeight;
      for (const Neighbor& nb : g.OutEdges(path[i])) {
        if (nb.to == path[i + 1]) best = std::min(best, nb.weight);
      }
      ASSERT_NE(best, kInfWeight);
      sum += best;
    }
    EXPECT_NEAR(sum, field.dist[static_cast<size_t>(v)], 1e-9);
  }
}

TEST(ResumableDijkstraTest, SettlesInNonDecreasingOrderAndMatchesField) {
  const Graph g = RandomConnectedGraph(10, 50, 60, false);
  const DistanceField field = SingleSourceDistances(g, 7);
  ResumableDijkstra rd(g, 7);
  Weight last = 0;
  int64_t count = 0;
  while (auto s = rd.Next()) {
    EXPECT_GE(s->dist, last);
    last = s->dist;
    EXPECT_NEAR(s->dist, field.dist[static_cast<size_t>(s->vertex)], 1e-12);
    ++count;
  }
  EXPECT_EQ(count, g.num_vertices());
  EXPECT_GT(rd.MemoryBytes(), 0);
}

TEST(DijkstraRunnerTest, SkipExpandPrunesTraversal) {
  // Line 0-1-2-3; skipping expansion at 1 must leave 2,3 unreached.
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex();
  for (int i = 0; i < 3; ++i) b.AddEdge(i, i + 1, 1.0);
  const Graph g = std::move(b.Build()).ValueOrDie();
  DijkstraWorkspace ws;
  std::vector<VertexId> settled;
  RunDijkstra(g, 0, ws, [&](VertexId v, Weight, VertexId) {
    settled.push_back(v);
    return v == 1 ? VisitAction::kSkipExpand : VisitAction::kContinue;
  });
  EXPECT_EQ(settled, (std::vector<VertexId>{0, 1}));
}

TEST(DijkstraRunnerTest, StatsCountWork) {
  const Graph g = RandomConnectedGraph(11, 30, 30, false);
  DijkstraWorkspace ws;
  const DijkstraRunStats stats = RunDijkstra(
      g, 0, ws, [](VertexId, Weight, VertexId) { return VisitAction::kContinue; });
  EXPECT_EQ(stats.settled, g.num_vertices());
  EXPECT_GT(stats.relaxed, 0);
  EXPECT_GT(stats.weight_sum, 0);
  EXPECT_GT(stats.max_settled_dist, 0);
}

TEST(DijkstraRunnerTest, WeightedSeedsActAsHeadStarts) {
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.AddVertex();
  b.AddEdge(0, 1, 10.0);
  b.AddEdge(1, 2, 10.0);
  const Graph g = std::move(b.Build()).ValueOrDie();
  DijkstraWorkspace ws;
  const std::vector<SourceSeed> seeds = {{0, 0.0}, {2, 1.0}};
  std::vector<std::pair<VertexId, Weight>> settled;
  RunDijkstra(g, seeds, ws, [&](VertexId v, Weight d, VertexId) {
    settled.emplace_back(v, d);
    return VisitAction::kContinue;
  });
  ASSERT_EQ(settled.size(), 3u);
  EXPECT_EQ(settled[0], (std::pair<VertexId, Weight>{0, 0.0}));
  EXPECT_EQ(settled[1], (std::pair<VertexId, Weight>{2, 1.0}));
  EXPECT_EQ(settled[2], (std::pair<VertexId, Weight>{1, 10.0}));
}

}  // namespace
}  // namespace skysr
