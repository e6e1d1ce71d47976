// Tests for per-query decision attribution (obs/explain.h) and its serving
// integrations: explain-off bit-identity, pruning attribution copied from
// SearchStats, JSON round-trip through mini_json,
// OpenMetrics latency exemplars, result-cache hit attribution, endpoint
// routing (404 + extra routes), and the /debug dashboard renderer.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "category/taxonomy_factory.h"
#include "core/bssr_engine.h"
#include "graph/graph_builder.h"
#include "index/ch_oracle.h"
#include "obs/explain.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "service/debug_page.h"
#include "service/metrics_endpoint.h"
#include "service/prometheus.h"
#include "service/query_service.h"
#include "service/service_metrics.h"
#include "tests/support/mini_json.h"
#include "tests/test_util.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"

namespace skysr {
namespace {

Query TinyQuery(const testing::TinyDataset& tiny) {
  Query q;
  q.start = 0;
  q.sequence.push_back(
      CategoryPredicate::Single(tiny.graph.PoiPrimaryCategory(0)));
  q.sequence.push_back(
      CategoryPredicate::Single(tiny.graph.PoiPrimaryCategory(1)));
  return q;
}

// ------------------------------------------------------------ engine side --

TEST(ExplainTest, OffByDefaultAndObservationOnly) {
  const testing::TinyDataset tiny = testing::MakeTinyDataset(7);
  const Query q = TinyQuery(tiny);

  BssrEngine plain(tiny.graph, tiny.forest);
  auto base = plain.Run(q);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->explain, nullptr);

  QueryOptions opts;
  opts.explain = true;
  BssrEngine explained(tiny.graph, tiny.forest);
  auto result = explained.Run(q, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->explain, nullptr);

  // Attribution observes the search; it must not change it.
  ASSERT_EQ(result->routes.size(), base->routes.size());
  for (size_t i = 0; i < result->routes.size(); ++i) {
    EXPECT_EQ(result->routes[i].pois, base->routes[i].pois);
  }
  EXPECT_EQ(result->stats.vertices_settled, base->stats.vertices_settled);
  EXPECT_EQ(result->stats.edges_relaxed, base->stats.edges_relaxed);
  EXPECT_EQ(result->stats.cand_pruned, base->stats.cand_pruned);
}

TEST(ExplainTest, PruningAttributionCopiesSearchStats) {
  const testing::TinyDataset tiny =
      testing::MakeTinyDataset(11, /*n=*/32, /*extra_edges=*/24,
                               /*num_pois=*/16);
  Dataset ds;
  ds.name = "explain-test";
  ds.graph = tiny.graph;
  ds.forest = tiny.forest;
  QueryGenParams qp;
  qp.count = 8;
  qp.sequence_size = 3;
  qp.seed = 5;
  const auto queries = GenerateQueries(ds, qp);

  QueryOptions opts;
  opts.explain = true;
  BssrEngine engine(ds.graph, ds.forest);
  for (const Query& q : queries) {
    auto r = engine.Run(q, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r->explain, nullptr);
    const QueryExplain& e = *r->explain;
    // One field per pruning layer, each the query's own counter.
    EXPECT_EQ(e.cand_pruned, r->stats.cand_pruned);
    EXPECT_EQ(e.floor_skips, r->stats.cand_floor_skipped);
    // One backend entry per sequence position, and the expansions that ran
    // are attributed somewhere.
    ASSERT_EQ(e.positions.size(), q.sequence.size());
    int64_t attributed = 0;
    for (const ExplainPositionBackends& p : e.positions) {
      attributed += p.cache_replays + p.bucket_runs + p.resume_runs +
                    p.fresh_searches;
    }
    EXPECT_GT(attributed, 0);
  }
}

TEST(ExplainTest, JsonRoundTripsThroughMiniJson) {
  const testing::TinyDataset tiny = testing::MakeTinyDataset(7);
  QueryOptions opts;
  opts.explain = true;
  BssrEngine engine(tiny.graph, tiny.forest);
  auto r = engine.Run(TinyQuery(tiny), opts);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->explain, nullptr);

  const std::string json = r->explain->ToJson();
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->StringOr("oracle", ""), "none");
  // The pruning block holds exactly the two layer counters.
  const JsonValue* pruning = parsed->Find("pruning");
  ASSERT_NE(pruning, nullptr);
  ASSERT_TRUE(pruning->is_object());
  const std::pair<const char*, int64_t> layers[] = {
      {"cand_pruned", r->stats.cand_pruned},
      {"floor_skips", r->stats.cand_floor_skipped},
  };
  ASSERT_EQ(pruning->object.size(), std::size(layers));
  for (const auto& [name, expected] : layers) {
    const JsonValue* v = pruning->Find(name);
    ASSERT_NE(v, nullptr) << name;
    ASSERT_TRUE(v->is_number()) << name;
    EXPECT_EQ(static_cast<int64_t>(v->number), expected) << name;
  }
  const JsonValue* caches = parsed->Find("caches");
  ASSERT_NE(caches, nullptr);
  EXPECT_NE(caches->Find("fwd_search"), nullptr);
  EXPECT_NE(caches->Find("dest_tail"), nullptr);
  EXPECT_NE(caches->Find("result_cache"), nullptr);
  EXPECT_NE(caches->Find("resume_slots"), nullptr);
  const JsonValue* positions = parsed->Find("positions");
  ASSERT_NE(positions, nullptr);
  ASSERT_TRUE(positions->is_array());
  EXPECT_EQ(positions->array.size(), r->explain->positions.size());
}

// The semantic floor has one writer, SearchStats: the explain copy, its
// tree and JSON and SearchStats::ToString all show the value Run wrote, and
// the JSON number round-trips bit for bit.
TEST(ExplainTest, SemanticFloorRoundTripsFromSearchStats) {
  // A gift shop, then an Italian restaurant where only a sushi place
  // exists: no route is perfect, so the floor is 1 - sim(Italian, Sushi).
  const CategoryForest forest = MakeFoursquareLikeForest();
  const CategoryId gift = forest.FindByName("Gift Shop");
  const CategoryId sushi = forest.FindByName("Sushi Restaurant");
  const CategoryId italian = forest.FindByName("Italian Restaurant");
  GraphBuilder b(/*directed=*/false);
  for (int i = 0; i < 3; ++i) b.AddVertex();
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddPoi(1, {gift});
  b.AddPoi(2, {sushi});
  const Graph g = std::move(b.Build()).ValueOrDie();
  const Query q = MakeSimpleQuery(0, {gift, italian});

  BssrEngine engine(g, forest);
  for (const bool bounds : {true, false}) {
    QueryOptions opts;
    opts.explain = true;
    opts.use_lower_bounds = bounds;
    auto r = engine.Run(q, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r->explain, nullptr);
    const double floor = r->stats.semantic_floor;
    if (bounds) {
      EXPECT_GT(floor, 0.0);
      EXPECT_LT(floor, 1.0);
      ASSERT_EQ(r->routes.size(), 1u);
      EXPECT_LE(floor, r->routes[0].scores.semantic);
    } else {
      EXPECT_EQ(floor, 0.0);  // no bound applies
    }
    EXPECT_EQ(r->explain->semantic_floor, floor);

    auto parsed = ParseJson(r->explain->ToJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const JsonValue* json_floor = parsed->Find("semantic_floor");
    ASSERT_NE(json_floor, nullptr);
    EXPECT_EQ(json_floor->number, floor);

    char want[64];
    std::snprintf(want, sizeof(want), "semantic_floor: %.17g", floor);
    EXPECT_NE(r->explain->ToTreeString().find(want), std::string::npos)
        << r->explain->ToTreeString();
    std::snprintf(want, sizeof(want), "semantic_floor=%.4f", floor);
    EXPECT_NE(r->stats.ToString().find(want), std::string::npos)
        << r->stats.ToString();
  }
}

// The forward-search layer has one writer, the engine's SearchStats: on
// attached and detached CH + bucket engines alike, a query's fwd_search
// hits and misses are its forward-search reuses and searches, and on the
// attached engine they are also exactly the cache's counter deltas.
TEST(ExplainTest, FwdSearchLayerEqualsSearchStats) {
  ScenarioSpec spec;
  spec.name = "explain-fwd";
  spec.graph.family = GraphFamily::kCluster;
  spec.graph.target_vertices = 300;
  spec.graph.weights = WeightModel::kEuclidean;
  spec.taxonomy.num_trees = 3;
  spec.pois.num_pois = 80;
  spec.pois.multi_category_rate = 0.2;  // keeps queries in deferred mode
  spec.workload.num_queries = 12;
  spec.workload.min_sequence = 2;
  spec.workload.max_sequence = 3;
  spec.workload.destination_rate = 0.25;
  SeedScenarioSpec(&spec, 941);
  const Scenario sc = MakeScenario(spec);
  const Graph& g = sc.dataset.graph;
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);

  BssrEngine detached(g, sc.dataset.forest, &ch, &buckets);
  BssrEngine attached(g, sc.dataset.forest, &ch, &buckets);
  SharedQueryCache xcache;
  attached.AttachSharedCache(&xcache);

  int64_t lookups = 0;
  for (const RetrieverKind rk :
       {RetrieverKind::kAuto, RetrieverKind::kBucket}) {
    QueryOptions opts;
    opts.explain = true;
    opts.retriever = rk;
    for (BssrEngine* engine : {&detached, &attached}) {
      const char* what = engine == &attached ? "attached" : "detached";
      for (size_t i = 0; i < sc.queries.size(); ++i) {
        const SharedCacheCounters before = xcache.Counters();
        auto r = engine->Run(sc.queries[i], opts);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_NE(r->explain, nullptr);
        const SearchStats& st = r->stats;
        const ExplainCacheLayer& fwd = r->explain->fwd_search;
        EXPECT_EQ(fwd.hits, st.bucket_fwd_reuses) << what << " query " << i;
        EXPECT_EQ(fwd.misses, st.bucket_fwd_searches)
            << what << " query " << i;
        if (engine == &attached) {
          const SharedCacheCounters after = xcache.Counters();
          EXPECT_EQ(after.fwd_hits - before.fwd_hits, st.bucket_fwd_reuses)
              << "query " << i;
          EXPECT_EQ(after.fwd_misses - before.fwd_misses,
                    st.bucket_fwd_searches)
              << "query " << i;
        }
        lookups += st.bucket_fwd_reuses + st.bucket_fwd_searches;
      }
    }
  }
  EXPECT_GT(lookups, 0);  // the forward-search layer actually ran
}

TEST(ExplainTest, TreeStringShowsPlanCachesAndPruningShares) {
  const testing::TinyDataset tiny = testing::MakeTinyDataset(7);
  QueryOptions opts;
  opts.explain = true;
  BssrEngine engine(tiny.graph, tiny.forest);
  auto r = engine.Run(TinyQuery(tiny), opts);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->explain, nullptr);
  const std::string tree = r->explain->ToTreeString();
  EXPECT_NE(tree.find("plan"), std::string::npos);
  EXPECT_NE(tree.find("caches"), std::string::npos);
  EXPECT_NE(tree.find("pruning"), std::string::npos);
  EXPECT_NE(tree.find("cand_pruned="), std::string::npos);
}

// The resume backend is not a field of its own: every deferred-Lemma-5.5
// graph search runs on a resumable slot, so the tree and the JSON render it
// from the deferral mode (bucket scans take precedence in the tree).
TEST(ExplainTest, ResumeBackendRendersFromDeferralMode) {
  for (const bool deferred : {false, true}) {
    for (const bool bucket : {false, true}) {
      QueryExplain e;
      e.deferred_lemma55 = deferred;
      e.bucket_backend = bucket;
      const std::string want = bucket ? "bucket" : deferred ? "resume"
                                                            : "settle";
      EXPECT_NE(e.ToTreeString().find("retriever=auto -> " + want + "\n"),
                std::string::npos)
          << e.ToTreeString();
      auto parsed = ParseJson(e.ToJson());
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed->StringOr("lemma55", ""),
                deferred ? "deferred" : "inline");
      const JsonValue* retriever = parsed->Find("retriever");
      ASSERT_NE(retriever, nullptr);
      const JsonValue* resume = retriever->Find("resume");
      ASSERT_NE(resume, nullptr);
      ASSERT_EQ(resume->kind, JsonValue::Kind::kBool);
      EXPECT_EQ(resume->boolean, deferred);
    }
  }
}

// -------------------------------------------------------------- exemplars --

TEST(ExemplarTest, LatencyBucketCarriesLastExemplar) {
  ServiceMetrics m;
  m.RecordCompleted(/*latency_ms=*/1.5, 10, 20, 1, /*exemplar_id=*/7);
  const std::string text = PrometheusText(m.Snapshot());
  // OpenMetrics exemplar syntax on the latency bucket the observation
  // landed in, keyed by the service query id.
  EXPECT_NE(text.find(" # {trace_id=\"q7\"} 1.5\n"), std::string::npos)
      << text;
  // The queue-wait histogram never carries exemplars.
  const size_t queue_wait = text.find("skysr_queue_wait_ms_bucket");
  ASSERT_NE(queue_wait, std::string::npos);
  EXPECT_EQ(text.find("trace_id", queue_wait), std::string::npos);
}

TEST(ExemplarTest, NoExemplarKeepsPlainExpositionBytes) {
  ServiceMetrics with_id;
  with_id.RecordCompleted(2.0, 0, 0, 1);  // default exemplar_id = 0
  const std::string text = PrometheusText(with_id.Snapshot());
  EXPECT_EQ(text.find("trace_id"), std::string::npos);
}

TEST(ExemplarTest, LastWriterWinsPerBucket) {
  ServiceMetrics m;
  m.RecordCompleted(1.5, 0, 0, 1, /*exemplar_id=*/3);
  m.RecordCompleted(1.5, 0, 0, 1, /*exemplar_id=*/9);
  const std::string text = PrometheusText(m.Snapshot());
  EXPECT_NE(text.find("trace_id=\"q9\""), std::string::npos);
  EXPECT_EQ(text.find("trace_id=\"q3\""), std::string::npos);
}

TEST(ServiceExplainTest, ResultCacheHitSynthesizesAttribution) {
  const testing::TinyDataset tiny = testing::MakeTinyDataset(7);
  ServiceConfig cfg;
  cfg.num_threads = 1;
  cfg.cache_capacity = 16;
  cfg.default_options.explain = true;
  QueryService service(tiny.graph, tiny.forest, cfg);

  const Query q = TinyQuery(tiny);
  auto first = service.Submit(q).get();
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first->explain, nullptr);
  EXPECT_EQ(first->explain->result_cache.misses, 1);
  EXPECT_EQ(first->explain->result_cache.hits, 0);

  auto second = service.Submit(q).get();
  ASSERT_TRUE(second.ok());
  ASSERT_NE(second->explain, nullptr);
  EXPECT_EQ(second->explain->result_cache.hits, 1);
  // The cached copy was stripped: the hit's attribution is synthesized,
  // not the first execution's record replayed.
  EXPECT_EQ(second->explain->result_cache.misses, 0);
  EXPECT_EQ(second->explain->positions.size(), 0u);
}

// ---------------------------------------------------------- endpoint + UI --

std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsEndpointRoutingTest, RoutesKnownPathsAnd404sUnknown) {
  MetricsEndpoint ep(0, [] { return std::string("skysr_up 1\n"); });
  ep.AddRoute("/healthz", "text/plain", [] { return std::string("ok\n"); });
  ep.AddRoute("/debug", "text/html",
              [] { return std::string("<html>debug</html>"); });
  ASSERT_TRUE(ep.Start().ok());

  const std::string metrics = HttpGet(ep.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("skysr_up 1\n"), std::string::npos);

  // The legacy root route still answers with the exposition.
  EXPECT_NE(HttpGet(ep.port(), "/").find("skysr_up 1\n"), std::string::npos);

  const std::string health = HttpGet(ep.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  const std::string debug = HttpGet(ep.port(), "/debug?refresh=1");
  EXPECT_NE(debug.find("200 OK"), std::string::npos);
  EXPECT_NE(debug.find("text/html"), std::string::npos);
  EXPECT_NE(debug.find("<html>debug</html>"), std::string::npos);

  const std::string missing = HttpGet(ep.port(), "/nope");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
  EXPECT_NE(missing.find("Content-Length:"), std::string::npos);
  EXPECT_NE(missing.find("404 not found: /nope\n"), std::string::npos);
  ep.Stop();
}

TEST(DebugPageTest, HistoryComputesIntervalQpsAndPageRenders) {
  MetricsHistory history(8);
  MetricsSnapshot s;
  s.completed = 100;
  s.uptime_seconds = 10;
  s.qps = 10;
  s.latency_p50_ms = 1.0;
  s.latency_p99_ms = 5.0;
  history.Sample(s);
  s.completed = 160;
  s.uptime_seconds = 12;
  history.Sample(s);

  const auto pts = history.Points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].qps, 10.0);   // first sample: lifetime average
  EXPECT_DOUBLE_EQ(pts[1].qps, 30.0);   // 60 completions over 2 seconds

  SlowQueryRecord slow;
  slow.latency_ms = 12.5;
  slow.query_id = 42;
  slow.explain = std::make_shared<QueryExplain>();
  s.slow_queries.push_back(slow);

  const std::string html = DebugPageHtml(s, history, /*refresh_seconds=*/0);
  EXPECT_EQ(html.find("http-equiv"), std::string::npos);  // refresh disabled
  EXPECT_NE(html.find("skysr service debug"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("q42"), std::string::npos);
  EXPECT_NE(html.find("cand_pruned="), std::string::npos);  // inline explain
  EXPECT_NE(DebugPageHtml(s, history, 2).find("http-equiv=\"refresh\""),
            std::string::npos);
}

}  // namespace
}  // namespace skysr
