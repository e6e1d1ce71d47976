// PoI-retrieval subsystem (src/retrieval/): bucket tables bit-equal to
// graph Dijkstra, candidate streams identical across all three backends,
// resumable state equivalent to both fresh searches and the legacy hash-map
// ResumableDijkstra, engine-level bit-identity across retriever kinds,
// bucket-table persistence, and workspace-reuse determinism with buckets
// enabled.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bssr_engine.h"
#include "graph/dijkstra.h"
#include "graph/resumable_dijkstra.h"
#include "retrieval/bucket_io.h"
#include "retrieval/poi_retriever.h"
#include "scenario/scenario.h"
#include "service/query_service.h"

namespace skysr {
namespace {

ScenarioSpec RetrievalSpec(GraphFamily family, uint64_t seed,
                           WeightModel weights = WeightModel::kEuclidean) {
  ScenarioSpec spec;
  spec.name = std::string("retrieval-") + GraphFamilyName(family);
  spec.graph.family = family;
  spec.graph.target_vertices = 360;
  spec.graph.extra_edge_fraction = 0.3;
  spec.graph.weights = weights;
  spec.taxonomy.num_trees = 3;
  spec.taxonomy.max_fanout = 3;
  spec.taxonomy.max_levels = 3;
  spec.pois.num_pois = 90;
  spec.pois.zipf_theta = 0.3;
  spec.pois.multi_category_rate = 0.2;  // keeps queries in deferred mode
  spec.workload.num_queries = 10;
  spec.workload.min_sequence = 2;
  spec.workload.max_sequence = 3;
  spec.workload.multi_any_rate = 0.2;
  spec.workload.all_of_rate = 0.2;
  spec.workload.none_of_rate = 0.2;
  spec.workload.destination_rate = 0.25;
  SeedScenarioSpec(&spec, seed);
  return spec;
}

std::vector<PositionMatcher> MatchersOf(const Scenario& sc, const Query& q) {
  std::vector<PositionMatcher> matchers;
  matchers.reserve(q.sequence.size());
  for (const CategoryPredicate& pred : q.sequence) {
    matchers.emplace_back(sc.dataset.graph, sc.dataset.forest,
                          *DefaultSimilarity(), pred,
                          MultiCategoryMode::kMaxSimilarity);
  }
  return matchers;
}

struct Emitted {
  VertexId vertex;
  Weight dist;
  double sim;
};

std::vector<Emitted> Stream(PoiRetriever& retriever,
                            const PositionMatcher& matcher, VertexId source,
                            Weight budget) {
  std::vector<Emitted> out;
  (void)retriever.Retrieve(matcher, source, [budget] { return budget; },
                           [&](const ExpansionCandidate& c) {
                             out.push_back(Emitted{c.vertex, c.dist, c.sim});
                           });
  return out;
}

void ExpectSameStream(const std::vector<Emitted>& a,
                      const std::vector<Emitted>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vertex, b[i].vertex) << what << " at " << i;
    EXPECT_EQ(a[i].dist, b[i].dist) << what << " at " << i;  // bit-exact
    EXPECT_EQ(a[i].sim, b[i].sim) << what << " at " << i;
  }
}

// Every PoI distance the bucket scan produces must be the exact double a
// flat graph Dijkstra computes — the exactness contract of
// distance_oracle.h. These are the only index-served distances of NNinit
// hops and lower-bound legs, so the check spans every graph family and
// weight model (unit weights maximize ties, continuous weights exercise
// rounding), plus a source sitting on a PoI vertex (distance 0 to itself).
TEST(CategoryBucketTest, ExactDistancesBitEqualDijkstra) {
  for (const GraphFamily family :
       {GraphFamily::kGrid, GraphFamily::kCluster, GraphFamily::kSmallWorld}) {
    for (const WeightModel weights : {WeightModel::kUnit,
                                      WeightModel::kUniform,
                                      WeightModel::kEuclidean}) {
      const Scenario sc = MakeScenario(RetrievalSpec(family, 901, weights));
      const Graph& g = sc.dataset.graph;
      ASSERT_GT(g.num_pois(), 0);
      const ChOracle ch = ChOracle::Build(g);
      const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);
      const BucketRetriever retriever(buckets);
      BucketScanState state;
      OracleWorkspace ows;
      DijkstraWorkspace dws;
      std::vector<Weight> ref;
      std::vector<VertexId> sources;
      for (int i = 0; i < 7; ++i) {
        sources.push_back(static_cast<VertexId>((g.num_vertices() * i) / 7));
      }
      sources.push_back(g.VertexOfPoi(g.num_pois() / 2));
      for (const VertexId src : sources) {
        retriever.EnsureForward(src, ows, state, nullptr);
        ref.assign(static_cast<size_t>(g.num_vertices()), kInfWeight);
        RunDijkstra(g, src, dws, [&](VertexId v, Weight d, VertexId) {
          ref[static_cast<size_t>(v)] = d;
          return VisitAction::kContinue;
        });
        for (PoiId p = 0; p < g.num_pois(); ++p) {
          EXPECT_EQ(retriever.ExactDistanceTo(p, state),
                    ref[static_cast<size_t>(g.VertexOfPoi(p))])
              << sc.spec.name << " weights " << static_cast<int>(weights)
              << " src " << src << " poi " << p;
        }
      }
    }
  }
}

// The three backends must emit identical candidate streams — same PoIs,
// same bit-exact distances, same order — under unlimited and finite
// budgets.
TEST(PoiRetrieverTest, BackendsStreamIdenticalCandidates) {
  const Scenario sc = MakeScenario(RetrievalSpec(GraphFamily::kCluster, 902));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

  for (size_t qi = 0; qi < sc.queries.size() && qi < 4; ++qi) {
    const auto matchers = MatchersOf(sc, sc.queries[qi]);
    for (const PositionMatcher& matcher : matchers) {
      for (int i = 0; i < 3; ++i) {
        const auto src =
            static_cast<VertexId>((g.num_vertices() * (2 * i + 1)) / 7);
        // Fresh backends per (matcher, source) so suspended state cannot
        // leak between cases.
        auto settle = MakePoiRetriever(g);
        auto bucket = MakePoiRetriever(buckets);
        auto resume = MakeResumablePoiRetriever(g);
        const auto ref = Stream(*settle, matcher, src, kInfWeight);
        ExpectSameStream(Stream(*bucket, matcher, src, kInfWeight), ref,
                         "bucket/inf");
        ExpectSameStream(Stream(*resume, matcher, src, kInfWeight), ref,
                         "resume/inf");
        if (ref.size() >= 2) {
          // A budget that cuts the stream mid-way (strictly above the
          // median candidate, at or below the next).
          const Weight budget = ref[ref.size() / 2].dist;
          auto settle2 = MakePoiRetriever(g);
          auto bucket2 = MakePoiRetriever(buckets);
          auto resume2 = MakeResumablePoiRetriever(g);
          const auto ref2 = Stream(*settle2, matcher, src, budget);
          ExpectSameStream(Stream(*bucket2, matcher, src, budget), ref2,
                           "bucket/cut");
          ExpectSameStream(Stream(*resume2, matcher, src, budget), ref2,
                           "resume/cut");
        }
      }
    }
  }
}

// The flat resumable state must settle exactly the sequence the legacy
// hash-map ResumableDijkstra produces — the equivalence pin for retiring
// the hash-map implementation from the hot path.
TEST(ResumableRetrieverTest, MatchesHashMapResumableDijkstra) {
  const Scenario sc =
      MakeScenario(RetrievalSpec(GraphFamily::kSmallWorld, 903));
  const Graph& g = sc.dataset.graph;
  const auto matchers = MatchersOf(sc, sc.queries[0]);
  ResumablePool pool;
  pool.Reset(4);
  for (int i = 0; i < 4; ++i) {
    const auto src = static_cast<VertexId>((g.num_vertices() * i) / 4);
    ResumableSlot* slot = pool.FindOrCreate(g, src);
    ASSERT_NE(slot, nullptr);
    (void)RetrieveResumable(
        g, matchers[0], *slot, [] { return kInfWeight; },
        [](const ExpansionCandidate&) {}, nullptr, nullptr);
    EXPECT_TRUE(slot->exhausted);
    ResumableDijkstra rd(g, src);
    for (const SettleRecord& rec : slot->log) {
      const auto settle = rd.Next();
      ASSERT_TRUE(settle.has_value()) << "src " << src;
      EXPECT_EQ(settle->vertex, rec.vertex);
      EXPECT_EQ(settle->dist, rec.dist);
    }
    EXPECT_FALSE(rd.Next().has_value()) << "src " << src;
  }
}

// One suspended slot, asked with growing budgets, must reproduce what
// from-scratch searches at each budget emit — the rebuild-free extension
// property.
TEST(ResumableRetrieverTest, GrowingBudgetsMatchFreshSearches) {
  const Scenario sc = MakeScenario(RetrievalSpec(GraphFamily::kGrid, 904));
  const Graph& g = sc.dataset.graph;
  const auto matchers = MatchersOf(sc, sc.queries[0]);
  const PositionMatcher& matcher = matchers[0];
  const VertexId src = static_cast<VertexId>(g.num_vertices() / 3);

  // Reference distances to pick meaningful budget steps.
  DijkstraWorkspace dws;
  Weight max_dist = 0;
  RunDijkstra(g, src, dws, [&](VertexId, Weight d, VertexId) {
    max_dist = d;
    return VisitAction::kContinue;
  });

  ResumablePool pool;
  pool.Reset(1);
  ResumableSlot* slot = pool.FindOrCreate(g, src);
  ASSERT_NE(slot, nullptr);
  int64_t settles_before = 0;
  for (const double frac : {0.25, 0.5, 1.01}) {
    const Weight budget = max_dist * frac;
    std::vector<Emitted> got;
    DijkstraRunStats rstats;
    (void)RetrieveResumable(g, matcher, *slot, [budget] { return budget; },
                            [&](const ExpansionCandidate& c) {
                              got.push_back(Emitted{c.vertex, c.dist, c.sim});
                            },
                            nullptr, &rstats);
    // Fresh search at the same budget.
    std::vector<Emitted> ref;
    ExpansionScratch scratch;
    (void)RunExpansion(g, matcher, src, [budget] { return budget; },
                       /*apply_lemma55=*/false, scratch,
                       [&](const ExpansionCandidate& c) {
                         ref.push_back(Emitted{c.vertex, c.dist, c.sim});
                       },
                       nullptr);
    ExpectSameStream(got, ref, "resume growing budget");
    // The slot never re-settles its prefix: total settles stay bounded by
    // the log length.
    EXPECT_EQ(settles_before + rstats.settled,
              static_cast<int64_t>(slot->log.size()));
    settles_before = static_cast<int64_t>(slot->log.size());
  }
}

// Engine-level: every retriever kind must produce bit-identical skylines
// (routes, scores and witnesses) on engines sharing one CH oracle + bucket
// tables, and identical to the classic oracle-less engine.
TEST(RetrievalEngineTest, BitIdenticalAcrossRetrieverKinds) {
  for (const uint64_t seed : {905ull, 906ull}) {
    const Scenario sc =
        MakeScenario(RetrievalSpec(GraphFamily::kCluster, seed));
    const Graph& g = sc.dataset.graph;
    const ChOracle ch = ChOracle::Build(g);
    const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);
    BssrEngine classic(g, sc.dataset.forest);
    BssrEngine indexed(g, sc.dataset.forest, &ch, &buckets);
    for (const Query& q : sc.queries) {
      QueryOptions opts;
      opts.retriever = RetrieverKind::kSettle;
      const auto ref = classic.Run(q, opts);
      ASSERT_TRUE(ref.ok());
      for (const RetrieverKind kind :
           {RetrieverKind::kAuto, RetrieverKind::kSettle,
            RetrieverKind::kBucket}) {
        QueryOptions kopts;
        kopts.retriever = kind;
        const auto got = indexed.Run(q, kopts);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->routes.size(), ref->routes.size())
            << sc.spec.name << " retriever " << RetrieverKindName(kind);
        for (size_t r = 0; r < ref->routes.size(); ++r) {
          EXPECT_EQ(got->routes[r].scores.length,
                    ref->routes[r].scores.length)
              << RetrieverKindName(kind) << " route " << r;
          EXPECT_EQ(got->routes[r].scores.semantic,
                    ref->routes[r].scores.semantic)
              << RetrieverKindName(kind) << " route " << r;
          EXPECT_EQ(got->routes[r].pois, ref->routes[r].pois)
              << RetrieverKindName(kind) << " route " << r;
        }
      }
    }
  }
}

// Saved bucket tables must round-trip losslessly and refuse any other
// dataset.
TEST(BucketIoTest, SaveLoadRoundTripAndChecksumGuard) {
  const Scenario sc = MakeScenario(RetrievalSpec(GraphFamily::kGrid, 907));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex built = CategoryBucketIndex::Build(g, ch);
  const std::string path =
      ::testing::TempDir() + "/retrieval_test_index.cbkt";
  ASSERT_TRUE(SaveBucketIndex(built, path).ok());

  auto loaded = LoadBucketIndex(path, g, ch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_settles(), built.num_settles());
  // Scan equality through a full engine run.
  BssrEngine a(g, sc.dataset.forest, &ch, &built);
  BssrEngine b(g, sc.dataset.forest, &ch, &*loaded);
  QueryOptions opts;
  opts.retriever = RetrieverKind::kBucket;
  for (const Query& q : sc.queries) {
    const auto ra = a.Run(q, opts);
    const auto rb = b.Run(q, opts);
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_EQ(ra->routes.size(), rb->routes.size());
    for (size_t r = 0; r < ra->routes.size(); ++r) {
      EXPECT_EQ(ra->routes[r].scores.length, rb->routes[r].scores.length);
      EXPECT_EQ(ra->routes[r].pois, rb->routes[r].pois);
    }
  }

  // A different dataset must be rejected by checksum, not answered wrongly.
  const Scenario other =
      MakeScenario(RetrievalSpec(GraphFamily::kCluster, 908));
  const ChOracle other_ch = ChOracle::Build(other.dataset.graph);
  const auto mismatch = LoadBucketIndex(path, other.dataset.graph, other_ch);
  EXPECT_FALSE(mismatch.ok());
  // Truncation must fail cleanly too.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_GT(size, 64);
    ASSERT_EQ(0, truncate(path.c_str(), size / 2));
    EXPECT_FALSE(LoadBucketIndex(path, g, ch).ok());
  }
  std::remove(path.c_str());
}

// The QueryService shares one immutable bucket-table set across workers and
// must reproduce the sequential engine bit-for-bit; destination queries
// exercise the shared reverse-tail LRU on the way.
TEST(RetrievalServiceTest, SharedBucketsMatchSequentialEngine) {
  const Scenario sc =
      MakeScenario(RetrievalSpec(GraphFamily::kSmallWorld, 909));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

  BssrEngine sequential(g, sc.dataset.forest, &ch, &buckets);
  ServiceConfig cfg;
  cfg.num_threads = 3;
  cfg.cache_capacity = 0;  // exercise engines, not the result cache
  cfg.oracle = &ch;
  cfg.buckets = &buckets;
  QueryService service(g, sc.dataset.forest, cfg);
  const auto results = service.RunBatch(sc.queries);
  int destination_queries = 0;
  for (size_t qi = 0; qi < sc.queries.size(); ++qi) {
    if (sc.queries[qi].destination) ++destination_queries;
    const auto ref = sequential.Run(sc.queries[qi]);
    ASSERT_TRUE(ref.ok() && results[qi].ok());
    const auto& got = results[qi].ValueOrDie().routes;
    ASSERT_EQ(got.size(), ref->routes.size()) << "query " << qi;
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].scores.length, ref->routes[r].scores.length);
      EXPECT_EQ(got[r].scores.semantic, ref->routes[r].scores.semantic);
      EXPECT_EQ(got[r].pois, ref->routes[r].pois);
    }
  }
  if (destination_queries > 0) {
    EXPECT_GT(service.dest_tails().misses(), 0);
  }
}

// Replaying the same destination through the service must hit the shared
// tail LRU instead of re-running the reverse Dijkstra.
TEST(RetrievalServiceTest, DestTailLruServesRepeats) {
  const Scenario sc = MakeScenario(RetrievalSpec(GraphFamily::kGrid, 910));
  const Graph& g = sc.dataset.graph;
  Query q;
  for (const Query& cand : sc.queries) {
    if (cand.destination) {
      q = cand;
      break;
    }
  }
  if (!q.destination) {  // synthesize one if the draw had none
    q = sc.queries[0];
    q.destination = static_cast<VertexId>(g.num_vertices() / 2);
  }
  ServiceConfig cfg;
  // One worker: GetOrCompute deliberately computes outside its lock, so
  // concurrent workers may both miss on the first identical destination;
  // a single worker makes the 1-miss/5-hit assertion deterministic.
  cfg.num_threads = 1;
  cfg.cache_capacity = 0;  // force engine runs so tails are actually needed
  QueryService service(g, sc.dataset.forest, cfg);
  std::vector<Query> batch(6, q);
  const auto results = service.RunBatch(batch);
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  // One miss computes the table; every other run shares it.
  EXPECT_EQ(service.dest_tails().misses(), 1);
  EXPECT_EQ(service.dest_tails().hits(), 5);
  EXPECT_EQ(service.dest_tails().size(), 1u);
}

// Workspace-reuse determinism with the bucket backend engaged: one engine
// serving many queries must stay bit-identical to a fresh engine per query.
// The contract is about RESULTS — routes, scores, PoI witnesses — not work
// counters: warm state may legitimately skip work (that is its purpose),
// but must never change an answer.
TEST(RetrievalEngineTest, WorkspaceReuseWithBucketsBitIdentical) {
  int ran = 0;
  for (const uint64_t seed : {911ull, 912ull}) {
    for (const GraphFamily family :
         {GraphFamily::kGrid, GraphFamily::kCluster,
          GraphFamily::kSmallWorld}) {
      const Scenario sc = MakeScenario(RetrievalSpec(family, seed));
      const Graph& g = sc.dataset.graph;
      const ChOracle ch = ChOracle::Build(g);
      const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);
      BssrEngine reused(g, sc.dataset.forest, &ch, &buckets);
      for (const Query& q : sc.queries) {
        const auto a = reused.Run(q);
        BssrEngine fresh(g, sc.dataset.forest, &ch, &buckets);
        const auto b = fresh.Run(q);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_EQ(a->routes.size(), b->routes.size());
        for (size_t r = 0; r < a->routes.size(); ++r) {
          EXPECT_EQ(a->routes[r].scores.length, b->routes[r].scores.length);
          EXPECT_EQ(a->routes[r].scores.semantic,
                    b->routes[r].scores.semantic);
          EXPECT_EQ(a->routes[r].pois, b->routes[r].pois);
        }
        ++ran;
      }
    }
  }
  EXPECT_GE(ran, 40);
}

}  // namespace
}  // namespace skysr
