// PoI-retrieval subsystem (src/retrieval/): bucket tables bit-equal to
// graph Dijkstra, candidate streams identical across the three primitives
// the engine calls (settle loop, bucket scan, resumable slot),
// resumable state equivalent to both fresh searches and the legacy hash-map
// ResumableDijkstra, engine-level bit-identity across retriever kinds,
// bucket-table persistence, and workspace-reuse determinism with buckets
// enabled.

#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/shared_query_cache.h"
#include "core/bssr_engine.h"
#include "core/modified_dijkstra.h"
#include "graph/dijkstra.h"
#include "graph/resumable_dijkstra.h"
#include "retrieval/bucket_io.h"
#include "retrieval/bucket_retriever.h"
#include "retrieval/resumable_retriever.h"
#include "scenario/scenario.h"
#include "service/query_service.h"
#include "util/rng.h"

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

Emitted EmittedOf(const ExpansionCandidate& c) {
  return Emitted{c.vertex, c.dist, c.sim};
}

// One deferred-mode expansion at a fixed budget through each primitive the
// engine calls, each with fresh state so nothing leaks between cases.

// The classic settle loop, with the Lemma 5.5 cuts off.
std::vector<Emitted> SettleStream(const Graph& g,
                                  const PositionMatcher& matcher,
                                  VertexId source, Weight budget) {
  std::vector<Emitted> out;
  ExpansionScratch scratch;
  (void)RunExpansionInto(
      g, matcher, source, [budget] { return budget; },
      /*apply_lemma55=*/false, scratch, /*out=*/nullptr,
      [&](const ExpansionCandidate& c) { out.push_back(EmittedOf(c)); },
      nullptr);
  return out;
}

// A bucket scan capped at the budget, then the engine's replay loop: the
// first candidate at or beyond the budget ends the stream.
std::vector<Emitted> BucketStream(const CategoryBucketIndex& buckets,
                                  const PositionMatcher& matcher,
                                  VertexId source, Weight budget) {
  OracleWorkspace ows;
  BucketScanState state;
  SharedQueryCache cache;
  (void)BucketRetriever(buckets).Collect(source, matcher, ows, state, cache,
                                         budget, nullptr);
  std::vector<Emitted> out;
  for (const ExpansionCandidate& c : state.cands) {
    if (c.dist >= budget) break;
    out.push_back(EmittedOf(c));
  }
  return out;
}

// A resumable slot.
std::vector<Emitted> ResumeStream(const Graph& g,
                                  const PositionMatcher& matcher,
                                  VertexId source, Weight budget) {
  std::vector<Emitted> out;
  ResumablePool pool;
  pool.Prepare(1);
  (void)RetrieveResumable(
      g, matcher, pool, *pool.FindOrCreate(source), [budget] { return budget; },
      [&](const ExpansionCandidate& c) { out.push_back(EmittedOf(c)); },
      nullptr, nullptr);
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
// distance_oracle.h. These are the only index-served distances there are
// (NNinit hops and bucket-served expansions), so the check spans every graph
// family and weight model (unit weights maximize ties, continuous weights
// exercise rounding), evenly spaced and random sources, plus a source
// sitting on a PoI vertex (distance 0 to itself).
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
      SharedQueryCache cache;
      OracleWorkspace ows;
      DijkstraWorkspace dws;
      std::vector<Weight> ref;
      std::vector<VertexId> sources;
      Rng rng(99);
      for (int i = 0; i < 7; ++i) {
        sources.push_back(static_cast<VertexId>((g.num_vertices() * i) / 7));
        sources.push_back(
            static_cast<VertexId>(rng.UniformInt(0, g.num_vertices() - 1)));
      }
      sources.push_back(g.VertexOfPoi(g.num_pois() / 2));
      for (const VertexId src : sources) {
        retriever.EnsureForward(src, ows, state, cache);
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

// The three primitives must emit identical candidate streams — same PoIs,
// same bit-exact distances, same order — under unlimited and finite
// budgets.
TEST(RetrievalPrimitivesTest, StreamIdenticalCandidates) {
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
        const auto ref = SettleStream(g, matcher, src, kInfWeight);
        ExpectSameStream(BucketStream(buckets, matcher, src, kInfWeight), ref,
                         "bucket/inf");
        ExpectSameStream(ResumeStream(g, matcher, src, kInfWeight), ref,
                         "resume/inf");
        if (ref.size() >= 2) {
          // A budget that cuts the stream mid-way (strictly above the
          // median candidate, at or below the next).
          const Weight budget = ref[ref.size() / 2].dist;
          const auto ref2 = SettleStream(g, matcher, src, budget);
          ExpectSameStream(BucketStream(buckets, matcher, src, budget), ref2,
                           "bucket/cut");
          ExpectSameStream(ResumeStream(g, matcher, src, budget), ref2,
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
  pool.Prepare(4);
  for (int i = 0; i < 4; ++i) {
    const auto src = static_cast<VertexId>((g.num_vertices() * i) / 4);
    ResumableSlot* slot = pool.FindOrCreate(src);
    ASSERT_NE(slot, nullptr);
    (void)RetrieveResumable(
        g, matchers[0], pool, *slot, [] { return kInfWeight; },
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
  pool.Prepare(1);
  ResumableSlot* slot = pool.FindOrCreate(src);
  ASSERT_NE(slot, nullptr);
  int64_t settles_before = 0;
  for (const double frac : {0.25, 0.5, 1.01}) {
    const Weight budget = max_dist * frac;
    std::vector<Emitted> got;
    DijkstraRunStats rstats;
    (void)RetrieveResumable(g, matcher, pool, *slot, [budget] { return budget; },
                            [&](const ExpansionCandidate& c) {
                              got.push_back(EmittedOf(c));
                            },
                            nullptr, &rstats);
    // Fresh search at the same budget.
    ExpectSameStream(got, SettleStream(g, matcher, src, budget),
                     "resume growing budget");
    // The slot never re-settles its prefix: total settles stay bounded by
    // the log length.
    EXPECT_EQ(settles_before + rstats.settled,
              static_cast<int64_t>(slot->log.size()));
    settles_before = static_cast<int64_t>(slot->log.size());
  }
}

// More sources than slots, resumed in an interleaved order: slots are
// evicted and reassigned, and the pool's one label workspace is rebuilt
// from a slot's log and frontier whenever a different slot resumes (and
// only then). Every expansion must still emit what a fresh search at its
// budget emits and count the work of a search that never shared its
// labels (a one-slot pool per source), and every slot's log must stay a
// prefix of the hash-map ResumableDijkstra's settle sequence.
TEST(ResumableRetrieverTest, InterleavedResumesRebuildLabelsExactly) {
  const Scenario sc =
      MakeScenario(RetrievalSpec(GraphFamily::kSmallWorld, 907));
  const Graph& g = sc.dataset.graph;
  const auto matchers = MatchersOf(sc, sc.queries[0]);

  std::vector<VertexId> sources;
  std::vector<Weight> max_dist;
  DijkstraWorkspace dws;
  for (int i = 0; i < 4; ++i) {
    const auto src = static_cast<VertexId>((g.num_vertices() * i) / 4 + 1);
    Weight farthest = 0;
    RunDijkstra(g, src, dws, [&](VertexId, Weight d, VertexId) {
      farthest = d;
      return VisitAction::kContinue;
    });
    sources.push_back(src);
    max_dist.push_back(farthest);
  }

  ResumablePool pool;
  pool.Prepare(2);
  std::vector<ResumablePool> solo(sources.size());
  for (ResumablePool& p : solo) p.Prepare(1);
  // Indices into `sources`. Sources 0 and 1 alternate on live slots, so
  // each resume rebuilds a suspended search's labels; source 0 then
  // resumes twice in a row, and sources 2 and 3 evict and reassign slots.
  // The j-th visit of a source asks for 22% more of its radius.
  const int schedule[] = {0, 1, 0, 1, 0, 0, 2, 1, 2, 1, 3, 0, 3, 2};
  std::vector<int> visits(sources.size(), 0);
  int prev = -1;
  int64_t expected_loads = 0;
  int64_t suspended_loads = 0;  // rebuilds from a non-empty log
  for (size_t step = 0; step < std::size(schedule); ++step) {
    const int si = schedule[step];
    const VertexId src = sources[static_cast<size_t>(si)];
    const Weight budget = max_dist[static_cast<size_t>(si)] * 0.22 *
                          ++visits[static_cast<size_t>(si)];
    const PositionMatcher& matcher = matchers[step % matchers.size()];
    ResumableSlot* slot = pool.FindOrCreate(src);
    // The schedule only has steps that resume the search.
    ASSERT_FALSE(slot->exhausted) << "step " << step;
    ASSERT_LT(slot->covered, budget) << "step " << step;
    if (si != prev) {
      ++expected_loads;
      if (!slot->log.empty()) ++suspended_loads;
    }
    prev = si;

    // A reassigned slot starts over; so does its reference.
    ResumablePool& ref_pool = solo[static_cast<size_t>(si)];
    if (slot->log.empty()) ref_pool.Clear();
    ResumableSlot* ref = ref_pool.FindOrCreate(src);

    std::vector<Emitted> got;
    DijkstraRunStats got_stats;
    const ExpansionOutcome out = RetrieveResumable(
        g, matcher, pool, *slot, [budget] { return budget; },
        [&](const ExpansionCandidate& c) { got.push_back(EmittedOf(c)); },
        nullptr, &got_stats);
    EXPECT_EQ(pool.label_loads(), expected_loads) << "step " << step;
    ExpectSameStream(got, SettleStream(g, matcher, src, budget),
                     "interleaved resume");

    DijkstraRunStats ref_stats;
    const ExpansionOutcome ref_out = RetrieveResumable(
        g, matcher, ref_pool, *ref, [budget] { return budget; },
        [](const ExpansionCandidate&) {}, nullptr, &ref_stats);
    EXPECT_EQ(out.covered_radius, ref_out.covered_radius) << "step " << step;
    EXPECT_EQ(out.exhausted, ref_out.exhausted) << "step " << step;
    EXPECT_EQ(got_stats.settled, ref_stats.settled) << "step " << step;
    EXPECT_EQ(got_stats.relaxed, ref_stats.relaxed) << "step " << step;
    EXPECT_EQ(got_stats.weight_sum, ref_stats.weight_sum) << "step " << step;
    EXPECT_EQ(slot->heap.size(), ref->heap.size()) << "step " << step;

    ResumableDijkstra rd(g, src);
    for (const SettleRecord& rec : slot->log) {
      const auto settle = rd.Next();
      ASSERT_TRUE(settle.has_value()) << "step " << step;
      EXPECT_EQ(settle->vertex, rec.vertex) << "step " << step;
      EXPECT_EQ(settle->dist, rec.dist) << "step " << step;
    }
    if (slot->exhausted) {
      EXPECT_FALSE(rd.Next().has_value());
    }
  }
  EXPECT_EQ(suspended_loads, 7);
  EXPECT_EQ(pool.evictions(), 4);
  EXPECT_EQ(pool.label_loads(),
            static_cast<int64_t>(std::size(schedule)) - 1);
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

// The backend only decides where a candidate stream comes from: a graph
// search, a resumable slot, a bucket scan or a cache hit. Every stream is
// replayed through the same budget loop and prune-floor filter, so on the
// hot-path golden mixes each query must make the same decisions under
// every backend — not only the same skyline but the same candidate
// counters. Engines are detached (no SharedQueryCache attached).
TEST(RetrievalEngineTest, DecisionCountersIndependentOfBackend) {
  for (const GraphFamily family : {GraphFamily::kGrid, GraphFamily::kCluster,
                                   GraphFamily::kSmallWorld}) {
    const Scenario sc = MakeScenario(HotpathScenarioSpec(family));
    const Graph& g = sc.dataset.graph;
    const ChOracle ch = ChOracle::Build(g);
    const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);
    BssrEngine settle(g, sc.dataset.forest, &ch, &buckets);
    BssrEngine bucket(g, sc.dataset.forest, &ch, &buckets);
    BssrEngine automatic(g, sc.dataset.forest, &ch, &buckets);
    for (size_t i = 0; i < sc.queries.size(); ++i) {
      QueryOptions ref_opts;
      ref_opts.retriever = RetrieverKind::kSettle;
      const auto ref = settle.Run(sc.queries[i], ref_opts);
      ASSERT_TRUE(ref.ok());
      for (const auto& [engine, kind] :
           {std::pair{&bucket, RetrieverKind::kBucket},
            std::pair{&automatic, RetrieverKind::kAuto}}) {
        QueryOptions opts;
        opts.retriever = kind;
        const auto got = engine->Run(sc.queries[i], opts);
        ASSERT_TRUE(got.ok());
        const std::string where = sc.spec.name + " query " +
                                  std::to_string(i) + " " +
                                  RetrieverKindName(kind);
        ASSERT_EQ(got->routes.size(), ref->routes.size()) << where;
        for (size_t r = 0; r < ref->routes.size(); ++r) {
          EXPECT_EQ(got->routes[r].scores.length,
                    ref->routes[r].scores.length) << where;
          EXPECT_EQ(got->routes[r].scores.semantic,
                    ref->routes[r].scores.semantic) << where;
          EXPECT_EQ(got->routes[r].pois, ref->routes[r].pois) << where;
        }
        const SearchStats& a = got->stats;
        const SearchStats& b = ref->stats;
        EXPECT_EQ(a.cand_examined, b.cand_examined) << where;
        EXPECT_EQ(a.cand_pruned, b.cand_pruned) << where;
        EXPECT_EQ(a.cand_floor_skipped, b.cand_floor_skipped) << where;
        EXPECT_EQ(a.routes_enqueued, b.routes_enqueued) << where;
      }
    }
  }
}

// Saved bucket tables must round-trip losslessly and refuse any other
// dataset.
TEST(BucketIoTest, SaveLoadRoundTripAndChecksumGuard) {
  const Scenario sc = MakeScenario(RetrievalSpec(GraphFamily::kSmallWorld, 907));
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
// must reproduce the sequential engine bit-for-bit, destination queries
// included.
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
  EXPECT_GT(destination_queries, 0);
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
