// Cross-query shared-cache subsystem (src/cache/): CLOCK cache unit
// behavior, snapshot lookup, generation invalidation, resumable slots,
// and — the serving contract — cold/warm bit-identity on one engine
// replaying repeated-source workloads, standalone and through QueryService.

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/fwd_search_cache.h"
#include "cache/shared_query_cache.h"
#include "core/bssr_engine.h"
#include "retrieval/bucket_retriever.h"
#include "scenario/scenario.h"
#include "service/query_service.h"

namespace skysr {
namespace {

ScenarioSpec ServingSpec(GraphFamily family, uint64_t seed) {
  ScenarioSpec spec;
  spec.name = std::string("serving-") + GraphFamilyName(family);
  spec.graph.family = family;
  spec.graph.target_vertices = 360;
  spec.graph.extra_edge_fraction = 0.3;
  spec.graph.weights = WeightModel::kEuclidean;
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

void ExpectSameRoutes(const QueryResult& a, const QueryResult& b,
                      const char* what) {
  ASSERT_EQ(a.routes.size(), b.routes.size()) << what;
  for (size_t r = 0; r < a.routes.size(); ++r) {
    EXPECT_EQ(a.routes[r].scores.length, b.routes[r].scores.length)
        << what << " route " << r;
    EXPECT_EQ(a.routes[r].scores.semantic, b.routes[r].scores.semantic)
        << what << " route " << r;
    EXPECT_EQ(a.routes[r].pois, b.routes[r].pois) << what << " route " << r;
  }
}

// Insert/Lookup round-trips, capacity enforcement, and CLOCK second chance:
// the referenced entry survives the eviction sweep, the unreferenced one is
// the victim.
TEST(FwdSearchCacheTest, InsertLookupAndClockEviction) {
  const FwdSearchSettle a[] = {{1, 1.0, 1.0}, {2, 2.5, 2.5}};
  const FwdSearchSettle b[] = {{3, 3.0, 3.25}};
  FwdSearchCache cache(/*capacity=*/2);

  EXPECT_TRUE(cache.Lookup(10).empty());  // cold miss
  EXPECT_EQ(cache.counters().misses, 1);

  const auto stored = cache.Insert(10, a);
  ASSERT_EQ(stored.size(), 2u);
  EXPECT_EQ(stored[0].vertex, 1);
  EXPECT_EQ(stored[1].fsum, 2.5);
  cache.Insert(11, b);
  EXPECT_EQ(cache.size(), 2u);

  const auto hit = cache.Lookup(10);
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_EQ(hit[1].df, 2.5);
  EXPECT_EQ(cache.counters().hits, 1);

  // At capacity: every ref bit is set, so the sweep clears them all and
  // takes the entry under the hand (10).
  cache.Insert(12, b);
  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(10).empty());

  // Reference 12 but not 11: the next eviction must spare the referenced
  // entry and take 11 — the second chance.
  ASSERT_FALSE(cache.Lookup(12).empty());
  cache.Insert(13, a);
  EXPECT_EQ(cache.counters().evictions, 2);
  EXPECT_TRUE(cache.Lookup(11).empty());
  EXPECT_FALSE(cache.Lookup(12).empty());
  EXPECT_FALSE(cache.Lookup(13).empty());

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.Lookup(12).empty());
  EXPECT_EQ(cache.counters().evictions, 2);  // counters survive Clear
}

TEST(FwdSearchCacheTest, SnapshotFindsOnlyPrewarmedSources) {
  const FwdSearchSettle a[] = {{7, 1.0, 1.0}};
  const FwdSearchSettle b[] = {{8, 2.0, 2.0}, {9, 3.0, 3.0}};
  FwdSnapshot snap;
  snap.Add(20, a);
  snap.Add(5, b);
  snap.Add(20, b);  // duplicate source: ignored
  snap.Finalize();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.Find(20).size(), 1u);
  EXPECT_EQ(snap.Find(20)[0].vertex, 7);
  EXPECT_EQ(snap.Find(5).size(), 2u);
  EXPECT_TRUE(snap.Find(21).empty());
}

// Rebinding to a different structure checksum must drop every piece of warm
// state — resident entries AND a snapshot built against the old structure —
// and a snapshot whose checksum mismatches the live binding is refused.
TEST(SharedQueryCacheTest, RebindInvalidatesAndRefusesMismatchedSnapshots) {
  const FwdSearchSettle a[] = {{1, 1.0, 1.0}};
  SharedQueryCache cache;
  cache.Bind(111);
  cache.fwd_cache().Insert(5, a);

  auto snap = std::make_shared<FwdSnapshot>();
  snap->Add(5, a);
  snap->Finalize();
  snap->set_structure_checksum(111);
  cache.SetSnapshot(snap);
  ASSERT_NE(cache.snapshot(), nullptr);

  cache.Bind(111);  // same structure: warm state survives
  EXPECT_EQ(cache.fwd_cache().size(), 1u);
  EXPECT_NE(cache.snapshot(), nullptr);

  cache.Bind(222);  // new structure: everything warm is dropped
  EXPECT_EQ(cache.fwd_cache().size(), 0u);
  EXPECT_EQ(cache.snapshot(), nullptr);

  cache.SetSnapshot(snap);  // checksum 111 against binding 222: refused
  EXPECT_EQ(cache.snapshot(), nullptr);
}

// Resumable slots: Prepare keeps suspended state across queries, reuses
// are counted once per slot per query, CLOCK spares the slot the current
// query touched, and a shrinking bound drops every suspended search.
TEST(ResumablePoolTest, KeepsSlotsCountsReusesAndEvictsByClock) {
  ResumablePool pool;
  pool.Prepare(2);
  ResumableSlot* s0 = pool.FindOrCreate(0);
  ResumableSlot* s1 = pool.FindOrCreate(1);
  EXPECT_EQ(pool.reuses(), 0);  // creations are not reuses

  // Next query: suspended state survives, and touching a kept slot counts
  // as exactly one reuse.
  pool.Prepare(2);
  EXPECT_EQ(pool.FindOrCreate(0), s0);
  EXPECT_EQ(pool.FindOrCreate(0), s0);
  EXPECT_EQ(pool.reuses(), 1);

  // At capacity, the untouched slot (1) is the CLOCK victim; its object is
  // recycled for the new source.
  ResumableSlot* s2 = pool.FindOrCreate(2);
  EXPECT_EQ(pool.evictions(), 1);
  EXPECT_EQ(s2, s1);
  EXPECT_EQ(s2->source, 2);

  // A smaller bound drops the suspended searches; past it, the one slot
  // is recycled for each new source.
  pool.Prepare(1);
  EXPECT_EQ(pool.live(), 0);
  EXPECT_EQ(pool.FindOrCreate(3)->source, 3);
  EXPECT_EQ(pool.FindOrCreate(4)->source, 4);
  EXPECT_EQ(pool.live(), 1);
  EXPECT_EQ(pool.evictions(), 2);
}

// The slots share one O(|V|) label workspace: filling k slots adds its
// bytes once, not k times, beside each slot's own log and frontier, and
// the cache's resident-bytes gauge includes them.
TEST(ResumablePoolTest, MemoryCountsTheSharedWorkspaceOnce) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kGrid, 931));
  const Graph& g = sc.dataset.graph;
  const PositionMatcher matcher(g, sc.dataset.forest, *DefaultSimilarity(),
                                sc.queries[0].sequence[0],
                                MultiCategoryMode::kMaxSimilarity);
  DijkstraWorkspace one;
  one.Prepare(g.num_vertices());
  const int64_t ws_bytes = one.MemoryBytes();
  EXPECT_GE(ws_bytes, g.num_vertices() * static_cast<int64_t>(sizeof(Weight)));

  SharedQueryCache cache;
  ResumablePool& pool = cache.resume_pool();
  pool.Prepare(4);
  EXPECT_EQ(pool.MemoryBytes(), 0);
  std::vector<const ResumableSlot*> slots;
  for (int i = 0; i < 4; ++i) {
    ResumableSlot* slot =
        pool.FindOrCreate(static_cast<VertexId>((g.num_vertices() * i) / 4));
    (void)RetrieveResumable(
        g, matcher, pool, *slot, [] { return kInfWeight; },
        [](const ExpansionCandidate&) {}, nullptr, nullptr);
    slots.push_back(slot);
    int64_t slot_bytes = 0;
    for (const ResumableSlot* s : slots) slot_bytes += s->MemoryBytes();
    EXPECT_GT(slot_bytes, 0);
    EXPECT_EQ(pool.MemoryBytes(), ws_bytes + slot_bytes) << i + 1 << " slots";
  }
  EXPECT_EQ(cache.ResidentBytes(),
            cache.fwd_cache().MemoryBytes() + pool.MemoryBytes());
}

TEST(SharedQueryCacheTest, WarmStateChecksumSeparatesStructures) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kCluster, 933));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  EXPECT_EQ(WarmStateChecksum(g, &ch), WarmStateChecksum(g, &ch));
  EXPECT_NE(WarmStateChecksum(g, &ch), WarmStateChecksum(g, nullptr));
}

// The deterministic work counters of one query execution.
std::vector<int64_t> WorkCounters(const SearchStats& s) {
  return {s.mdijkstra_runs,        s.mdijkstra_cache_hits,
          s.cache_reruns,          s.vertices_settled,
          s.edges_relaxed,         s.retriever_bucket_runs,
          s.retriever_resume_runs, s.bucket_fwd_searches,
          s.bucket_fwd_reuses,     s.bucket_candidates,
          s.routes_enqueued,       s.routes_dequeued,
          s.cand_examined,         s.cand_pruned,
          s.peak_queue_size,       s.route_nodes};
}

// A detached engine empties its own warm state before every query, so it
// stays cold: replaying a workload twice on one CH + bucket engine repeats
// every query's work counters exactly, and each matches a fresh engine's.
TEST(XCacheColdEngineTest, DetachedEngineStaysColdPerQuery) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kGrid, 935));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

  int64_t fwd_lookups = 0;
  int64_t resume_runs = 0;
  for (const RetrieverKind rk : {RetrieverKind::kSettle, RetrieverKind::kAuto,
                                 RetrieverKind::kBucket}) {
    QueryOptions opts;
    opts.retriever = rk;
    BssrEngine engine(g, sc.dataset.forest, &ch, &buckets);
    std::vector<std::vector<int64_t>> first_pass;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < sc.queries.size(); ++i) {
        auto r = engine.Run(sc.queries[i], opts);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const std::vector<int64_t> work = WorkCounters(r->stats);
        if (pass == 0) {
          BssrEngine fresh(g, sc.dataset.forest, &ch, &buckets);
          auto f = fresh.Run(sc.queries[i], opts);
          ASSERT_TRUE(f.ok()) << f.status().ToString();
          EXPECT_EQ(work, WorkCounters(f->stats))
              << RetrieverKindName(rk) << " query " << i << " vs fresh";
          first_pass.push_back(work);
          fwd_lookups +=
              r->stats.bucket_fwd_searches + r->stats.bucket_fwd_reuses;
          resume_runs += r->stats.retriever_resume_runs;
        } else {
          EXPECT_EQ(work, first_pass[i])
              << RetrieverKindName(rk) << " query " << i << " second pass";
        }
      }
    }
  }
  // Both kinds of warm state were exercised.
  EXPECT_GT(fwd_lookups, 0);
  EXPECT_GT(resume_runs, 0);
}

// The serving contract: one engine with an attached cache (prewarm snapshot
// included) replays the workload three times — cold on round 0, warm after —
// and every reply must be bit-identical to a cacheless engine's. The cache
// must actually engage (forward hits) for the exercise to mean anything.
TEST(XCacheServingTest, ColdAndWarmRepliesAreBitIdentical) {
  for (const GraphFamily family :
       {GraphFamily::kGrid, GraphFamily::kCluster, GraphFamily::kSmallWorld}) {
    const Scenario sc = MakeScenario(ServingSpec(family, 931));
    const Graph& g = sc.dataset.graph;
    const ChOracle ch = ChOracle::Build(g);
    const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

    BssrEngine baseline(g, sc.dataset.forest, &ch, &buckets);
    BssrEngine serving(g, sc.dataset.forest, &ch, &buckets);
    SharedQueryCache cache;
    serving.AttachSharedCache(&cache);
    std::vector<VertexId> prewarm;
    prewarm.reserve(static_cast<size_t>(g.num_pois()));
    for (PoiId p = 0; p < g.num_pois(); ++p) {
      prewarm.push_back(g.VertexOfPoi(p));
    }
    cache.SetSnapshot(std::make_shared<const FwdSnapshot>(
        BuildFwdSnapshot(buckets, prewarm, WarmStateChecksum(g, &ch))));
    ASSERT_NE(cache.snapshot(), nullptr);

    for (int round = 0; round < 3; ++round) {
      for (size_t qi = 0; qi < sc.queries.size(); ++qi) {
        const auto want = baseline.Run(sc.queries[qi]);
        const auto got = serving.Run(sc.queries[qi]);
        ASSERT_TRUE(want.ok() && got.ok());
        ExpectSameRoutes(*got, *want, sc.spec.name.c_str());
      }
    }
    EXPECT_GT(cache.Counters().fwd_hits, 0) << sc.spec.name;
  }
}

// Same replay pinned to the resumable backend (the settle retriever keeps
// the bucket tables out of deferred expansions, so every one runs on a
// slot): suspended searches persist across queries (reuses counted),
// results stay bit-identical, and detaching the cache reproduces cacheless
// behavior on the same engine.
TEST(XCacheServingTest, PersistentResumableSlotsStayBitIdentical) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kCluster, 932));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

  BssrEngine baseline(g, sc.dataset.forest, &ch, &buckets);
  BssrEngine serving(g, sc.dataset.forest, &ch, &buckets);
  SharedQueryCache cache;
  serving.AttachSharedCache(&cache);

  QueryOptions opts;
  opts.retriever = RetrieverKind::kSettle;
  for (int round = 0; round < 2; ++round) {
    for (const Query& q : sc.queries) {
      const auto want = baseline.Run(q, opts);
      const auto got = serving.Run(q, opts);
      ASSERT_TRUE(want.ok() && got.ok());
      ExpectSameRoutes(*got, *want, "resume round");
    }
  }
  EXPECT_GT(cache.Counters().resume_reuses, 0);

  // Detached: the very same engine with its cache taken away must also
  // match (and must not move the cache's counters). Re-attaching the same
  // cache keeps its warm state, so the replay reuses slots again.
  const SharedCacheCounters before = cache.Counters();
  serving.AttachSharedCache(nullptr);
  for (const Query& q : sc.queries) {
    const auto want = baseline.Run(q, opts);
    const auto got = serving.Run(q, opts);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameRoutes(*got, *want, "detached");
  }
  const SharedCacheCounters after = cache.Counters();
  EXPECT_EQ(after.fwd_hits, before.fwd_hits);
  EXPECT_EQ(after.fwd_misses, before.fwd_misses);
  EXPECT_EQ(after.resume_reuses, before.resume_reuses);

  serving.AttachSharedCache(&cache);
  for (const Query& q : sc.queries) {
    const auto want = baseline.Run(q, opts);
    const auto got = serving.Run(q, opts);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameRoutes(*got, *want, "re-attached");
  }
  EXPECT_GT(cache.Counters().resume_reuses, after.resume_reuses);
}

// QueryService end to end: the same repeated-source workload through a
// shared-cache service and a cacheless one must produce bit-identical
// results, the warm service must report cache activity in its metrics, and
// the cacheless one must report none.
TEST(XCacheServingTest, QueryServiceSharedCacheOnOffBitIdentical) {
  const Scenario sc = MakeScenario(ServingSpec(GraphFamily::kSmallWorld, 934));
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

  std::vector<Query> workload;
  for (int round = 0; round < 3; ++round) {
    workload.insert(workload.end(), sc.queries.begin(), sc.queries.end());
  }

  ServiceConfig base;
  base.num_threads = 2;
  base.cache_capacity = 0;  // force engine runs: exercise the warm paths
  base.oracle = &ch;
  base.buckets = &buckets;

  ServiceConfig on = base;
  on.shared_query_cache = true;
  on.xcache_prewarm_pois = 64;
  ServiceConfig off = base;
  off.shared_query_cache = false;

  QueryService warm(g, sc.dataset.forest, on);
  QueryService cold(g, sc.dataset.forest, off);
  EXPECT_NE(warm.warm_snapshot(), nullptr);
  EXPECT_EQ(cold.warm_snapshot(), nullptr);

  const auto warm_results = warm.RunBatch(workload);
  const auto cold_results = cold.RunBatch(workload);
  ASSERT_EQ(warm_results.size(), cold_results.size());
  for (size_t i = 0; i < warm_results.size(); ++i) {
    ASSERT_TRUE(warm_results[i].ok() && cold_results[i].ok());
    ExpectSameRoutes(warm_results[i].ValueOrDie(),
                     cold_results[i].ValueOrDie(), "service");
  }

  const MetricsSnapshot wm = warm.Metrics();
  EXPECT_GT(wm.xcache_fwd_hits, 0);
  EXPECT_GT(wm.xcache_fwd_hit_rate, 0.0);
  EXPECT_GE(wm.xcache_resident_bytes, 0);
  const MetricsSnapshot cm = cold.Metrics();
  EXPECT_EQ(cm.xcache_fwd_hits + cm.xcache_fwd_misses, 0);
}

}  // namespace
}  // namespace skysr
