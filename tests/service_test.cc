// Tests for the concurrent QueryService subsystem: the bounded MPMC queue,
// the canonical-key LRU result cache, service metrics, multi-threaded
// determinism against the sequential engine across the serving axes, a
// concurrency smoke test, and shutdown racing in-flight work.

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/ch_oracle.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "service/bounded_queue.h"
#include "service/query_service.h"
#include "service/result_cache.h"
#include "service/service_metrics.h"
#include "tests/test_util.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"

namespace skysr {
namespace {

// ---------------------------------------------------------------- queue --

TEST(BoundedQueueTest, FifoOrderSingleThread) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BoundedQueueTest, CloseDrainsThenReturnsEmpty) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(7));
  q.Close();
  EXPECT_FALSE(q.Push(8));
  EXPECT_FALSE(q.TryPush(9));
  EXPECT_EQ(q.Pop(), 7);  // accepted work survives Close
  EXPECT_EQ(q.Pop(), std::nullopt);
}

TEST(BoundedQueueTest, BlockedProducersWakeOnClose) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < 3; ++i) {
    producers.emplace_back([&q, &rejected] {
      if (!q.Push(99)) rejected.fetch_add(1);
    });
  }
  q.Close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), 3);
}

TEST(BoundedQueueTest, ManyProducersManyConsumersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(8);  // small capacity to exercise blocking
  std::atomic<int64_t> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  for (int i = 0; i < kConsumers; ++i) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  constexpr int kTotal = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kTotal) * (kTotal - 1) / 2);
}

// ---------------------------------------------------------------- cache --

TEST(ResultCacheTest, CanonicalKeyIsOrderInsensitive) {
  Query a;
  a.start = 5;
  CategoryPredicate pa;
  pa.any_of = {3, 1, 2};
  a.sequence.push_back(pa);

  Query b = a;
  b.sequence[0].any_of = {2, 3, 1};

  const QueryOptions opts;
  EXPECT_EQ(CanonicalQueryKey(a, opts), CanonicalQueryKey(b, opts));

  Query c = a;
  c.sequence[0].any_of = {1, 2};
  EXPECT_NE(CanonicalQueryKey(a, opts), CanonicalQueryKey(c, opts));
}

// Regression: semantically identical predicate spellings must canonicalize
// to one key. "+Food,Cafe" and "Cafe,+Food" parse to the same lists (term
// order is prefix-independent), and a repeated term matches exactly what a
// single occurrence matches — so reordering AND duplication must collapse
// to one cache entry.
TEST(ResultCacheTest, KeyNormalizesEquivalentPredicateSpellings) {
  const QueryOptions opts;
  const CategoryId food = 7;
  const CategoryId cafe = 3;

  // "+Food,Cafe" vs "Cafe,+Food": same any_of/all_of split, different
  // arrival order of the lists' contents.
  Query a;
  a.start = 2;
  CategoryPredicate pa;
  pa.all_of = {food};
  pa.any_of = {cafe};
  a.sequence.push_back(pa);

  Query b;
  b.start = 2;
  CategoryPredicate pb;
  pb.any_of = {cafe};
  pb.all_of = {food};
  b.sequence.push_back(pb);
  EXPECT_EQ(CanonicalQueryKey(a, opts), CanonicalQueryKey(b, opts));

  // Duplicate terms: "Cafe,Cafe" == "Cafe", in any list.
  Query c = a;
  c.sequence[0].any_of = {cafe, cafe};
  EXPECT_EQ(CanonicalQueryKey(a, opts), CanonicalQueryKey(c, opts));

  Query d = a;
  d.sequence[0].all_of = {food, food};
  d.sequence[0].any_of = {cafe, cafe, cafe};
  EXPECT_EQ(CanonicalQueryKey(a, opts), CanonicalQueryKey(d, opts));

  // Unsorted + duplicated simultaneously.
  Query e;
  e.start = 2;
  CategoryPredicate pe;
  pe.any_of = {9, cafe, 9, 1};
  e.sequence.push_back(pe);
  Query f;
  f.start = 2;
  CategoryPredicate pf;
  pf.any_of = {1, 9, cafe};
  f.sequence.push_back(pf);
  EXPECT_EQ(CanonicalQueryKey(e, opts), CanonicalQueryKey(f, opts));

  // ...but a genuinely different predicate must not collide.
  Query g = a;
  g.sequence[0].any_of = {cafe, 1};
  EXPECT_NE(CanonicalQueryKey(a, opts), CanonicalQueryKey(g, opts));
}

TEST(ResultCacheTest, KeyDistinguishesStructure) {
  const QueryOptions opts;
  // {any_of: x, all_of: y} must not collide with {any_of: x, none_of: y}.
  Query a;
  a.start = 1;
  CategoryPredicate pa;
  pa.any_of = {4};
  pa.all_of = {9};
  a.sequence.push_back(pa);

  Query b;
  b.start = 1;
  CategoryPredicate pb;
  pb.any_of = {4};
  pb.none_of = {9};
  b.sequence.push_back(pb);
  EXPECT_NE(CanonicalQueryKey(a, opts), CanonicalQueryKey(b, opts));

  // One position {x, y} vs two positions {x}, {y}.
  Query c;
  c.start = 1;
  CategoryPredicate pc;
  pc.any_of = {4, 9};
  c.sequence.push_back(pc);

  Query d;
  d.start = 1;
  d.sequence.push_back(CategoryPredicate::Single(4));
  d.sequence.push_back(CategoryPredicate::Single(9));
  EXPECT_NE(CanonicalQueryKey(c, opts), CanonicalQueryKey(d, opts));
}

TEST(ResultCacheTest, UncacheableOptionsYieldEmptyKey) {
  Query q;
  q.start = 0;
  q.sequence.push_back(CategoryPredicate::Single(1));

  QueryOptions custom_sim;
  custom_sim.similarity = std::make_shared<PathLengthSimilarity>();
  EXPECT_TRUE(CanonicalQueryKey(q, custom_sim).empty());

  QueryOptions budgeted;
  budgeted.time_budget_seconds = 1.0;
  EXPECT_TRUE(CanonicalQueryKey(q, budgeted).empty());

  EXPECT_FALSE(CanonicalQueryKey(q, QueryOptions()).empty());
}

TEST(ResultCacheTest, LruEviction) {
  LruResultCache cache(2);
  auto mk = [](int64_t n) {
    auto r = std::make_shared<QueryResult>();
    r->stats.skyline_size = n;
    return r;
  };
  cache.Put("a", mk(1));
  cache.Put("b", mk(2));
  ASSERT_NE(cache.Get("a"), nullptr);  // refresh "a"; "b" is now LRU
  cache.Put("c", mk(3));               // evicts "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  ASSERT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
}

// -------------------------------------------------------------- metrics --

TEST(ServiceMetricsTest, CountersAndPercentiles) {
  ServiceMetrics metrics;
  SearchStats effort;
  effort.vertices_settled = 10;
  effort.edges_relaxed = 20;
  effort.bucket_fwd_reuses = 3;
  effort.resume_reuses = 2;
  for (int i = 0; i < 98; ++i) {
    metrics.RecordCompleted(/*latency_ms=*/1.0, effort, 1);
  }
  metrics.RecordCompleted(/*latency_ms=*/100.0, effort, 1, /*exemplar_id=*/0,
                          /*attached_cache=*/true);
  metrics.RecordCompleted(/*latency_ms=*/100.0, effort, 1);
  metrics.RecordCacheHit();
  metrics.RecordCacheHit();
  metrics.RecordCacheMiss();
  metrics.RecordError();
  metrics.RecordRejected();

  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.completed, 100);
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.cache_hits, 2);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_NEAR(s.cache_hit_rate, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(s.vertices_settled, 1000);
  EXPECT_EQ(s.edges_relaxed, 2000);
  EXPECT_EQ(s.routes_found, 100);
  // Warm-state counts fold only from a worker with a cache attached.
  EXPECT_EQ(s.xcache_fwd_hits, 3);
  EXPECT_EQ(s.xcache_resume_reuses, 2);
  // p50 lands in the ~1ms bucket, p99 in the ~100ms bucket (log-bucketed,
  // so assert within a growth factor, not exactly).
  EXPECT_GT(s.latency_p50_ms, 0.7);
  EXPECT_LT(s.latency_p50_ms, 1.4);
  EXPECT_GT(s.latency_p99_ms, 70.0);
  EXPECT_LT(s.latency_p99_ms, 140.0);
  EXPECT_NEAR(s.latency_mean_ms, (98 * 1.0 + 2 * 100.0) / 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.latency_max_ms, 100.0);

  metrics.Reset();
  const MetricsSnapshot zero = metrics.Snapshot();
  EXPECT_EQ(zero.completed, 0);
  EXPECT_EQ(zero.latency_max_ms, 0);
}

// -------------------------------------------------------------- service --

Dataset ServiceTestDataset() {
  DatasetSpec spec = CalLikeSpec(0.03);
  spec.seed = 11;
  Dataset ds = MakeDataset(spec);
  return ds;
}

std::vector<Query> ServiceTestQueries(const Dataset& ds, int count) {
  QueryGenParams qp;
  qp.count = count;
  qp.sequence_size = 3;
  qp.seed = 1234;
  return GenerateQueries(ds, qp);
}

// Routes must match the sequential engine bit-for-bit: same PoI sequences,
// same scores, same order. Determinism is a service guarantee, so this is
// exact equality, not the tolerance-based skyline comparison.
void ExpectExactlyEqual(const std::vector<Route>& a,
                        const std::vector<Route>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pois, b[i].pois) << "route " << i;
    EXPECT_EQ(a[i].scores.length, b[i].scores.length) << "route " << i;
    EXPECT_EQ(a[i].scores.semantic, b[i].scores.semantic) << "route " << i;
  }
}

// The service must match the sequential engine across the serving axes:
// oracle (none vs CH with bucket tables) x retriever x cross-query cache,
// each with the result cache off and on.
TEST(QueryServiceTest, MultiThreadedBatchMatchesSequentialEngine) {
  const Dataset ds = ServiceTestDataset();
  auto queries = ServiceTestQueries(ds, 32);
  // Repeated sources exercise the workers' forward-search caches.
  for (size_t i = 0; i < 8; ++i) {
    Query q = queries[i + 8];
    q.start = queries[i % 4].start;
    queries.push_back(q);
  }

  const auto ch = std::make_unique<ChOracle>(ChOracle::Build(ds.graph));
  const CategoryBucketIndex buckets =
      CategoryBucketIndex::Build(ds.graph, *ch);
  struct Axis {
    const ChOracle* oracle;
    const CategoryBucketIndex* buckets;
    RetrieverKind retriever;
    bool xcache;
  };
  const std::vector<Axis> axes = {
      {nullptr, nullptr, RetrieverKind::kAuto, false},
      {nullptr, nullptr, RetrieverKind::kAuto, true},
      {ch.get(), &buckets, RetrieverKind::kAuto, true},
      {ch.get(), &buckets, RetrieverKind::kSettle, false},
  };

  for (const Axis& axis : axes) {
    QueryOptions options;
    options.retriever = axis.retriever;
    BssrEngine engine(ds.graph, ds.forest, axis.oracle, axis.buckets);
    std::vector<std::vector<Route>> expected;
    for (const Query& q : queries) {
      auto r = engine.Run(q, options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(r->routes);
    }

    for (const size_t cache_capacity : {size_t{0}, size_t{256}}) {
      ServiceConfig cfg;
      cfg.num_threads = 4;
      cfg.cache_capacity = cache_capacity;
      cfg.oracle = axis.oracle;
      cfg.buckets = axis.buckets;
      cfg.shared_query_cache = axis.xcache;
      QueryService service(ds.graph, ds.forest, cfg);
      const auto results = service.RunBatch(queries, options);
      ASSERT_EQ(results.size(), queries.size());
      for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
        ExpectExactlyEqual(results[i]->routes, expected[i]);
      }
    }
  }
}

// A scaled-down city repro: an unsatisfiable query (no PoI is both a sushi
// restaurant and a nightclub) that used to search until memory ran out.
// Next to ordinary traffic it must answer empty from the feasibility gate,
// with no search work, while its neighbours answer as on a lone engine.
TEST(QueryServiceTest, UnsatisfiableQueryShortCircuitsBesideTraffic) {
  const Dataset ds = MakeDataset(TokyoLikeSpec(0.01));
  Query feasible;
  feasible.start = 100;
  for (const char* name :
       {"Cafe", "Pizza Place", "Gift Shop", "Sushi Restaurant"}) {
    const CategoryId c = ds.forest.FindByName(name);
    ASSERT_NE(c, kInvalidCategory) << name;
    feasible.sequence.push_back(CategoryPredicate::Single(c));
  }
  Query unsat = feasible;
  unsat.sequence.back().all_of.push_back(ds.forest.FindByName("Nightclub"));

  std::vector<Query> queries = ServiceTestQueries(ds, 12);
  queries.insert(queries.begin() + 4, unsat);
  queries.insert(queries.begin() + 5, feasible);
  queries.push_back(unsat);

  QueryOptions options;
  options.explain = true;
  BssrEngine engine(ds.graph, ds.forest);
  ServiceConfig cfg;
  cfg.num_threads = 3;
  cfg.cache_capacity = 0;  // every repeat executes
  cfg.slow_query_log_capacity = queries.size();  // keeps every record
  QueryService service(ds.graph, ds.forest, cfg);
  const auto results = service.RunBatch(queries, options);
  ASSERT_EQ(results.size(), queries.size());
  int short_circuited = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    const QueryResult& r = results[i].ValueOrDie();
    if (queries[i].sequence.back().all_of.empty()) {
      EXPECT_FALSE(r.stats.infeasible.fired()) << "query " << i;
      auto expected = engine.Run(queries[i], options);
      ASSERT_TRUE(expected.ok());
      ExpectExactlyEqual(r.routes, expected->routes);
      continue;
    }
    ++short_circuited;
    EXPECT_TRUE(r.routes.empty());
    EXPECT_EQ(r.stats.infeasible.reason, InfeasibleReason::kNoMatch);
    EXPECT_EQ(r.stats.infeasible.position, 3);
    EXPECT_EQ(r.stats.routes_enqueued, 0);
    EXPECT_EQ(r.stats.vertices_settled, 0);
    ASSERT_NE(r.explain, nullptr);
    EXPECT_NE(r.explain->ToTreeString(r.stats).find("infeasible: no_match@3"),
              std::string::npos);
  }
  EXPECT_EQ(short_circuited, 2);
  EXPECT_FALSE(results[5]->routes.empty());

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.completed, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(m.errors, 0);
  // The slow-query records render the engine's verdict.
  int flagged = 0;
  for (const SlowQueryRecord& rec : m.slow_queries) {
    if (rec.ToString().find("INFEASIBLE=no_match@3") != std::string::npos) {
      ++flagged;
    }
  }
  EXPECT_EQ(flagged, 2);
}

TEST(QueryServiceTest, RepeatedBatchServedFromCacheIdentically) {
  const Dataset ds = ServiceTestDataset();
  const auto queries = ServiceTestQueries(ds, 16);

  ServiceConfig cfg;
  cfg.num_threads = 3;
  cfg.cache_capacity = 1024;
  QueryService service(ds.graph, ds.forest, cfg);

  const auto first = service.RunBatch(queries);
  const auto second = service.RunBatch(queries);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    ExpectExactlyEqual(first[i]->routes, second[i]->routes);
  }

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.completed, 32);
  // Duplicate queries inside the batch can also hit, so at least one full
  // batch's worth of hits.
  EXPECT_GE(m.cache_hits, static_cast<int64_t>(queries.size()));
  EXPECT_GT(m.cache_hit_rate, 0.0);
  EXPECT_GT(m.qps, 0.0);
}

// A result-cache hit runs no search, so its answer reports no search work
// (the execution that filled the cache reported it once), only its route
// count and its own execute time — the same figures its metrics and
// slow-query record count.
TEST(QueryServiceTest, CacheHitReportsItsOwnStats) {
  ScenarioSpec spec;
  spec.name = "service-hit-stats";
  spec.graph.family = GraphFamily::kGrid;
  spec.graph.target_vertices = 360;
  spec.pois.num_pois = 90;
  spec.pois.multi_category_rate = 0.2;  // keeps queries in deferred mode
  spec.workload.num_queries = 8;
  SeedScenarioSpec(&spec, 941);
  const Scenario sc = MakeScenario(spec);
  const std::vector<Query>& queries = sc.queries;
  ServiceConfig cfg;
  cfg.num_threads = 1;
  cfg.cache_capacity = 64;
  cfg.slow_query_log_capacity = 4;
  QueryService service(sc.dataset.graph, sc.dataset.forest, cfg);

  bool any_resumed = false;
  for (const Query& q : queries) {
    const Result<QueryResult> first = service.Submit(q).get();
    const Result<QueryResult> second = service.Submit(q).get();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    ExpectExactlyEqual(first->routes, second->routes);
    EXPECT_GT(first->stats.vertices_settled, 0);
    any_resumed |= first->stats.retriever_resume_runs > 0;
    EXPECT_EQ(second->stats.vertices_settled, 0);
    EXPECT_EQ(second->stats.retriever_resume_runs, 0);
    EXPECT_EQ(second->stats.mdijkstra_runs, 0);
    EXPECT_EQ(second->stats.routes_enqueued, 0);
    EXPECT_EQ(second->stats.skyline_size,
              static_cast<int64_t>(second->routes.size()));
    EXPECT_GE(second->stats.elapsed_ms, 0.0);
  }
  EXPECT_TRUE(any_resumed);

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.cache_hits, static_cast<int64_t>(queries.size()));
  for (const SlowQueryRecord& rec : m.slow_queries) {
    if (!rec.cache_hit) continue;
    EXPECT_EQ(rec.stats.vertices_settled, 0);
    EXPECT_EQ(rec.stats.skyline_size, rec.routes);
  }
}

TEST(QueryServiceTest, ConcurrencySmokeManyClientsManyQueries) {
  const Dataset ds = ServiceTestDataset();
  const auto queries = ServiceTestQueries(ds, 48);

  ServiceConfig cfg;
  cfg.num_threads = 4;
  cfg.queue_capacity = 8;  // force client-side blocking under load
  cfg.cache_capacity = 64;
  QueryService service(ds.graph, ds.forest, cfg);

  constexpr int kClients = 6;
  constexpr int kPerClient = 40;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Result<QueryResult>>> futures;
      for (int i = 0; i < kPerClient; ++i) {
        futures.push_back(
            service.Submit(queries[(c * kPerClient + i) % queries.size()]));
      }
      for (auto& f : futures) {
        auto r = f.get();
        if (r.ok() && !r->routes.empty()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(ok.load(), kClients * kPerClient);
  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.completed, kClients * kPerClient);
  EXPECT_EQ(m.errors, 0);
}

// The queue-depth gauge reads the queue when the snapshot is taken, so it
// falls back to 0 once the worker has drained a backlog.
TEST(QueryServiceTest, QueueDepthGaugeReadsZeroOnceDrained) {
  const Dataset ds = ServiceTestDataset();
  const auto queries = ServiceTestQueries(ds, 16);
  ServiceConfig cfg;
  cfg.num_threads = 1;
  QueryService service(ds.graph, ds.forest, cfg);

  std::vector<std::future<Result<QueryResult>>> futures;
  for (const Query& q : queries) futures.push_back(service.Submit(q));
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.completed, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(m.queue_depth, 0);
}

TEST(QueryServiceTest, InvalidQueryResolvesToErrorNotCrash) {
  const Dataset ds = ServiceTestDataset();
  ServiceConfig cfg;
  cfg.num_threads = 2;
  QueryService service(ds.graph, ds.forest, cfg);

  Query bad;  // no start, empty sequence
  auto r = service.Submit(bad).get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(service.Metrics().errors, 1);
}

TEST(QueryServiceTest, SubmitAfterShutdownFailsFast) {
  const Dataset ds = ServiceTestDataset();
  const auto queries = ServiceTestQueries(ds, 1);
  ServiceConfig cfg;
  cfg.num_threads = 2;
  QueryService service(ds.graph, ds.forest, cfg);
  service.Shutdown();

  auto r = service.Submit(queries[0]).get();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(service.TrySubmit(queries[0]).has_value());
  EXPECT_EQ(service.Metrics().rejected, 2);
}

// Shutdown racing a submitting client must resolve every future: work
// accepted before the queue closed is drained and answered, later
// submissions are refused at once, and nothing is left with a broken
// promise.
TEST(QueryServiceTest, ShutdownDrainsInFlightWork) {
  const Dataset ds = ServiceTestDataset();
  const auto queries = ServiceTestQueries(ds, 8);
  constexpr int kRacing = 64;

  ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.queue_capacity = 4;  // the client blocks on a full queue mid-race
  QueryService service(ds.graph, ds.forest, cfg);
  std::vector<std::future<Result<QueryResult>>> queued;
  for (const Query& q : queries) queued.push_back(service.Submit(q));

  std::vector<std::future<Result<QueryResult>>> racing;
  std::thread client([&] {
    for (int i = 0; i < kRacing; ++i) {
      racing.push_back(service.Submit(queries[i % queries.size()]));
    }
  });
  service.Shutdown();
  client.join();

  int answered = 0;
  for (auto& f : queued) {
    auto r = f.get();  // must not throw broken_promise
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    answered += r.ok() ? 1 : 0;
  }
  int refused = 0;
  for (auto& f : racing) {
    auto r = f.get();
    answered += r.ok() ? 1 : 0;
    refused += r.ok() ? 0 : 1;
  }
  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.completed, answered);
  EXPECT_EQ(m.rejected, refused);
  EXPECT_EQ(m.submitted + m.rejected,
            static_cast<int64_t>(queries.size()) + kRacing);
}

TEST(QueryServiceTest, WorkloadFileRoundTrip) {
  const Dataset ds = ServiceTestDataset();
  auto queries = ServiceTestQueries(ds, 10);
  queries[0].destination = queries[0].start;  // exercise the dest field

  const std::string path = ::testing::TempDir() + "/service_workload.txt";
  ASSERT_TRUE(WriteWorkloadFile(path, ds, queries).ok());
  auto loaded = LoadWorkloadFile(path, ds);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ((*loaded)[i].start, queries[i].start);
    EXPECT_EQ((*loaded)[i].destination, queries[i].destination);
    ASSERT_EQ((*loaded)[i].sequence.size(), queries[i].sequence.size());
    for (size_t j = 0; j < queries[i].sequence.size(); ++j) {
      EXPECT_EQ((*loaded)[i].sequence[j].any_of,
                queries[i].sequence[j].any_of);
    }
  }
}

}  // namespace
}  // namespace skysr
