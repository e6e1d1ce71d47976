// Tests for the observability subsystem (src/obs/ + service exposition):
// the QueryTrace ring and TraceSpan RAII (including the disabled-mode
// no-allocation guarantee), Chrome trace-event export, the Prometheus text
// exposition (golden format), the slow-query log, the mini JSON parser and
// the perf-trajectory regression gate.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bssr_engine.h"
#include "index/ch_oracle.h"
#include "obs/mini_json.h"
#include "obs/perf_trajectory.h"
#include "obs/query_trace.h"
#include "obs/trace_export.h"
#include "retrieval/category_buckets.h"
#include "service/metrics_endpoint.h"
#include "service/prometheus.h"
#include "service/query_service.h"
#include "service/service_metrics.h"
#include "service/slow_query_log.h"
#include "tests/test_util.h"
#include "workload/dataset.h"
#include "workload/query_gen.h"

// ---------------------------------------------------------------------------
// Binary-local allocation counter (same idiom as bench_hotpath): global
// operator new is overridden so "no allocation" is measured, not assumed.
namespace {
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
// The nothrow forms must come from the same malloc/free pair: the library
// ones would hand std::stable_sort's temporary buffer a block that the
// replaced operator delete then frees with the wrong deallocator.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace skysr {
namespace {

// ----------------------------------------------------------- query trace --

TEST(QueryTraceTest, CapacityClampsToMinimum) {
  QueryTrace t(1);
  EXPECT_EQ(t.capacity(), 16u);
}

TEST(QueryTraceTest, WraparoundKeepsNewestAndCountsDropped) {
  QueryTrace t(16);
  t.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    t.Record(TracePhase::kExpansion, /*start_ns=*/i, /*dur_ns=*/1,
             /*depth=*/0);
  }
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.dropped(), 4);
  // Oldest-first walk starts at the 4th event and stays in order.
  std::vector<int64_t> starts;
  t.ForEachEvent([&](const TraceEvent& e) { starts.push_back(e.start_ns); });
  ASSERT_EQ(starts.size(), 16u);
  EXPECT_EQ(starts.front(), 4);
  EXPECT_EQ(starts.back(), 19);
  // Aggregates cover every recorded event, including overwritten ones.
  EXPECT_EQ(t.aggregates().of(TracePhase::kExpansion).count, 20);
}

TEST(QueryTraceTest, DisabledRecordsNothing) {
  QueryTrace t(64);
  t.Record(TracePhase::kExpansion, 0, 1, 0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.aggregates().empty());
}

TEST(QueryTraceTest, ClearResetsEverything) {
  QueryTrace t(16);
  t.set_enabled(true);
  for (int i = 0; i < 20; ++i) t.Record(TracePhase::kNnInit, i, 1, 0);
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0);
  EXPECT_TRUE(t.aggregates().empty());
}

TEST(TraceSpanTest, NestedSpansRecordDepthsInnermostFirst) {
  QueryTrace t(64);
  t.set_enabled(true);
  {
    TraceSpan a(&t, TracePhase::kQuery);
    {
      TraceSpan b(&t, TracePhase::kExpansion);
      TraceSpan c(&t, TracePhase::kRetrieval);
    }
  }
  std::vector<std::pair<TracePhase, int>> events;
  t.ForEachEvent([&](const TraceEvent& e) {
    events.emplace_back(e.phase, static_cast<int>(e.depth));
  });
  // Spans land at scope exit: innermost closes first.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].first, TracePhase::kRetrieval);
  EXPECT_EQ(events[0].second, 2);
  EXPECT_EQ(events[1].first, TracePhase::kExpansion);
  EXPECT_EQ(events[1].second, 1);
  EXPECT_EQ(events[2].first, TracePhase::kQuery);
  EXPECT_EQ(events[2].second, 0);
}

TEST(TraceSpanTest, NullAndDisabledTracesAreSafe) {
  { TraceSpan s(nullptr, TracePhase::kQuery); }
  QueryTrace t(16);
  { TraceSpan s(&t, TracePhase::kQuery); }
  EXPECT_EQ(t.size(), 0u);
}

TEST(TraceSpanTest, CloseIsIdempotent) {
  QueryTrace t(16);
  t.set_enabled(true);
  TraceSpan s(&t, TracePhase::kQbDrain);
  s.Close();
  s.Close();
  EXPECT_EQ(t.size(), 1u);
}

TEST(TraceSpanTest, DisabledAndEnabledPathsDoNotAllocate) {
  QueryTrace disabled(16);
  QueryTrace enabled(1024);
  enabled.set_enabled(true);
  const int64_t before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) {
    TraceSpan a(nullptr, TracePhase::kExpansion);
    TraceSpan b(&disabled, TracePhase::kExpansion);
    TraceSpan c(&enabled, TracePhase::kExpansion);
  }
  EXPECT_EQ(g_alloc_count.load(), before)
      << "span sites must not allocate: the ring is sized at construction";
}

TEST(PhaseAggregatesTest, DiffSinceSubtractsCountsAndTotals) {
  PhaseAggregates before;
  before.of(TracePhase::kExpansion).Add(100);
  before.of(TracePhase::kExpansion).Add(300);
  before.of(TracePhase::kNnInit).Add(50);

  PhaseAggregates after = before;
  after.of(TracePhase::kExpansion).Add(900);

  const PhaseAggregates d = after.DiffSince(before);
  EXPECT_EQ(d.of(TracePhase::kExpansion).count, 1);
  EXPECT_EQ(d.of(TracePhase::kExpansion).total_ns, 900);
  // Max is the running window max — an upper bound, never understated.
  EXPECT_EQ(d.of(TracePhase::kExpansion).max_ns, 900);
  // Inactive phases diff to zero, including their max.
  EXPECT_EQ(d.of(TracePhase::kNnInit).count, 0);
  EXPECT_EQ(d.of(TracePhase::kNnInit).max_ns, 0);
  EXPECT_FALSE(d.empty());
}

// ---------------------------------------------------------- trace export --

TEST(TraceExportTest, ChromeJsonIsParseableAndCoversEvents) {
  QueryTrace t(64);
  t.set_enabled(true);
  {
    TraceSpan a(&t, TracePhase::kQuery);
    TraceSpan b(&t, TracePhase::kExpansion);
  }
  const std::string json = TraceToChromeJson(t, "query");
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // One thread_name metadata event plus one X event per span.
  ASSERT_EQ(events->array.size(), t.size() + 1);
  int x_events = 0;
  bool saw_expansion = false;
  for (const JsonValue& e : events->array) {
    const std::string ph(e.StringOr("ph", ""));
    if (ph == "X") {
      ++x_events;
      ASSERT_NE(e.Find("ts"), nullptr);
      ASSERT_NE(e.Find("dur"), nullptr);
      if (e.StringOr("name", "") == "expansion") saw_expansion = true;
    } else {
      EXPECT_EQ(ph, "M");
    }
  }
  EXPECT_EQ(x_events, 2);
  EXPECT_TRUE(saw_expansion);
}

TEST(TraceExportTest, MultiTrackExportNamesEachWorker) {
  QueryTrace t1(16), t2(16);
  t1.set_enabled(true);
  t2.set_enabled(true);
  t1.Record(TracePhase::kExecute, 0, 10, 0);
  t2.Record(TracePhase::kExecute, 5, 10, 0);
  const std::vector<TraceTrack> tracks = {{&t1, "worker-0"}, {&t2, "worker-1"}};
  const std::string json = TracesToChromeJson(tracks);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(json.find("worker-0"), std::string::npos);
  EXPECT_NE(json.find("worker-1"), std::string::npos);
}

TEST(TraceExportTest, PhaseBreakdownListsActivePhasesOnly) {
  PhaseAggregates agg;
  agg.of(TracePhase::kExpansion).Add(1000000);
  const std::string s = PhaseBreakdownString(agg);
  EXPECT_NE(s.find("expansion"), std::string::npos);
  EXPECT_EQ(s.find("nn_init"), std::string::npos);
  EXPECT_TRUE(PhaseBreakdownString(PhaseAggregates{}).empty());
}

// ------------------------------------------------------ engine integration --

TEST(EngineTraceTest, TracedRunRecordsPhasesAndPreservesCounters) {
  const testing::TinyDataset tiny = testing::MakeTinyDataset(7);
  Query q;
  q.start = 0;
  q.sequence.push_back(
      CategoryPredicate::Single(tiny.graph.PoiPrimaryCategory(0)));
  q.sequence.push_back(
      CategoryPredicate::Single(tiny.graph.PoiPrimaryCategory(1)));

  BssrEngine plain(tiny.graph, tiny.forest);
  auto base = plain.Run(q);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_TRUE(base->stats.phases.empty());

  BssrEngine traced(tiny.graph, tiny.forest);
  QueryTrace trace(4096);
  trace.set_enabled(true);
  traced.AttachTrace(&trace);
  auto result = traced.Run(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Tracing must observe the search, not change it.
  EXPECT_EQ(result->stats.vertices_settled, base->stats.vertices_settled);
  EXPECT_EQ(result->stats.edges_relaxed, base->stats.edges_relaxed);
  ASSERT_EQ(result->routes.size(), base->routes.size());

  // The root span covers the run; the engine phases were recorded and the
  // per-query cut landed in the stats.
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(result->stats.phases.of(TracePhase::kQuery).count, 1);
  EXPECT_GT(result->stats.phases.of(TracePhase::kExpansion).count, 0);
  // Phase time nests inside the root span.
  EXPECT_LE(result->stats.phases.of(TracePhase::kExpansion).total_ns,
            result->stats.phases.of(TracePhase::kQuery).total_ns);
}

// The oracle_table phase times the index-served distance work: NNinit hops
// and lower-bound legs answered off the bucket tables. A traced CH + bucket
// engine records it; the classic engine, which has no index to consult,
// never does.
TEST(EngineTraceTest, OracleTableSpansOnlyWithBucketTables) {
  const testing::TinyDataset tiny = testing::MakeTinyDataset(7);
  Query q;
  q.start = 0;
  for (PoiId p : {0, 1, 2}) {
    q.sequence.push_back(
        CategoryPredicate::Single(tiny.graph.PoiPrimaryCategory(p)));
  }
  const ChOracle ch = ChOracle::Build(tiny.graph);
  const CategoryBucketIndex buckets =
      CategoryBucketIndex::Build(tiny.graph, ch);

  const auto oracle_table_spans = [&](BssrEngine& engine,
                                      RetrieverKind retriever) {
    QueryTrace trace(4096);
    trace.set_enabled(true);
    engine.AttachTrace(&trace);
    QueryOptions options;
    options.retriever = retriever;
    const auto result = engine.Run(q, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    engine.AttachTrace(nullptr);
    return result.ok()
               ? result->stats.phases.of(TracePhase::kOracleTable).count
               : int64_t{-1};
  };

  BssrEngine indexed(tiny.graph, tiny.forest, &ch, &buckets);
  EXPECT_GE(oracle_table_spans(indexed, RetrieverKind::kBucket), 1);
  // kSettle keeps the classic hops and legs even with the tables attached.
  EXPECT_EQ(oracle_table_spans(indexed, RetrieverKind::kSettle), 0);

  BssrEngine classic(tiny.graph, tiny.forest);
  EXPECT_EQ(oracle_table_spans(classic, RetrieverKind::kBucket), 0);
  EXPECT_EQ(oracle_table_spans(classic, RetrieverKind::kAuto), 0);
}

// ------------------------------------------------------------- prometheus --

TEST(PrometheusTest, GoldenTextFormat) {
  MetricsSnapshot s;
  s.submitted = 5;
  s.completed = 4;
  s.errors = 1;
  s.rejected = 2;
  s.cache_hits = 3;
  s.cache_misses = 1;
  s.vertices_settled = 1234;
  s.uptime_seconds = 2.5;
  s.latency_sum_ms = 10.5;
  s.latency_bucket_counts[0] = 1;
  s.latency_bucket_counts[2] = 3;

  const std::string text = PrometheusText(s);
  const auto expect_has = [&](const char* needle) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle;
  };
  expect_has(
      "# HELP skysr_queries_submitted_total Queries accepted into the "
      "service.\n# TYPE skysr_queries_submitted_total counter\n"
      "skysr_queries_submitted_total 5\n");
  expect_has("skysr_queries_completed_total 4\n");
  expect_has("skysr_query_errors_total 1\n");
  expect_has("skysr_queries_rejected_total 2\n");
  expect_has("skysr_vertices_settled_total 1234\n");
  expect_has("# TYPE skysr_uptime_seconds gauge\nskysr_uptime_seconds 2.5\n");
  // Histogram: cumulative buckets at the pinned bound values (UpperBoundMs
  // is bit-stable by construction), then the +Inf/sum/count trailer.
  expect_has("# TYPE skysr_query_latency_ms histogram\n");
  expect_has("skysr_query_latency_ms_bucket{le=\"0.00125\"} 1\n");
  expect_has("skysr_query_latency_ms_bucket{le=\"0.0015625\"} 1\n");
  expect_has("skysr_query_latency_ms_bucket{le=\"0.001953125\"} 4\n");
  expect_has("skysr_query_latency_ms_bucket{le=\"+Inf\"} 4\n");
  expect_has("skysr_query_latency_ms_sum 10.5\n");
  expect_has("skysr_query_latency_ms_count 4\n");
}

// Queue-depth gauge and queue-wait p99 + histogram must appear in the
// exposition without tracing on.
TEST(PrometheusTest, QueueMetricsExposed) {
  MetricsSnapshot s;
  s.completed = 4;
  s.queue_depth = 17;
  s.queue_wait_count = 3;
  s.queue_wait_p99_ms = 2.5;
  s.queue_wait_sum_ms = 4.25;
  s.queue_wait_bucket_counts[0] = 1;
  s.queue_wait_bucket_counts[2] = 2;

  const std::string text = PrometheusText(s);
  const auto expect_has = [&](const char* needle) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle;
  };
  expect_has("# TYPE skysr_queue_depth gauge\nskysr_queue_depth 17\n");
  expect_has(
      "# TYPE skysr_queue_wait_p99_ms gauge\nskysr_queue_wait_p99_ms 2.5\n");
  expect_has("# TYPE skysr_queue_wait_ms histogram\n");
  expect_has("skysr_queue_wait_ms_bucket{le=\"0.00125\"} 1\n");
  expect_has("skysr_queue_wait_ms_bucket{le=\"0.001953125\"} 3\n");
  expect_has("skysr_queue_wait_ms_bucket{le=\"+Inf\"} 3\n");
  expect_has("skysr_queue_wait_ms_sum 4.25\n");
  expect_has("skysr_queue_wait_ms_count 3\n");
}

TEST(PrometheusTest, ServiceMetricsRecordsQueueWait) {
  ServiceMetrics m;
  m.RecordQueueWait(1.0);
  m.RecordQueueWait(100.0);
  m.SampleQueueDepth(9);

  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.queue_wait_count, 2);
  EXPECT_GT(s.queue_wait_p99_ms, 70.0);
  EXPECT_LT(s.queue_wait_p99_ms, 140.0);
  EXPECT_DOUBLE_EQ(s.queue_wait_max_ms, 100.0);
  EXPECT_NEAR(s.queue_wait_mean_ms, 50.5, 1e-9);
  EXPECT_EQ(s.queue_depth, 9);

  const std::string text = m.ToPrometheus();
  EXPECT_NE(text.find("skysr_queue_depth 9\n"), std::string::npos);
  EXPECT_NE(text.find("skysr_queue_wait_ms_count 2\n"), std::string::npos);

  m.Reset();
  const MetricsSnapshot zero = m.Snapshot();
  EXPECT_EQ(zero.queue_wait_count, 0);
  EXPECT_EQ(zero.queue_depth, 0);
}

// Bucketed percentiles report the bucket's midpoint, which can lie outside
// the values that landed there; they are clamped to the observed range, so
// a single observation reports itself at every percentile.
TEST(PrometheusTest, SingleObservationPercentilesEqualIt) {
  ServiceMetrics m;
  m.RecordCompleted(/*latency_ms=*/0.225, 10, 20, 1);
  m.RecordQueueWait(0.225);
  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.latency_p50_ms, 0.225);
  EXPECT_EQ(s.latency_p99_ms, 0.225);
  EXPECT_EQ(s.latency_max_ms, 0.225);
  EXPECT_EQ(s.queue_wait_p50_ms, 0.225);
  EXPECT_EQ(s.queue_wait_p99_ms, 0.225);
  EXPECT_EQ(s.queue_wait_max_ms, 0.225);

  // Reset forgets the minimum too: a later, larger observation is again
  // its own percentile.
  m.Reset();
  m.RecordQueueWait(3.0);
  EXPECT_EQ(m.Snapshot().queue_wait_p50_ms, 3.0);
}

TEST(PrometheusTest, ServiceMetricsExposesRecordedCounts) {
  ServiceMetrics m;
  m.RecordSubmitted();
  m.RecordSubmitted();
  m.RecordCompleted(/*latency_ms=*/1.0, 10, 20, 1);
  const std::string text = m.ToPrometheus();
  EXPECT_NE(text.find("skysr_queries_submitted_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("skysr_queries_completed_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("skysr_query_latency_ms_count 1\n"), std::string::npos);
}

// ---------------------------------------------------------- slow queries --

SlowQueryRecord Rec(double latency_ms) {
  SlowQueryRecord r;
  r.latency_ms = latency_ms;
  return r;
}

TEST(SlowQueryLogTest, KeepsSlowestNSlowestFirst) {
  SlowQueryLog log(3);
  for (int i = 1; i <= 10; ++i) log.Offer(Rec(i));
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].latency_ms, 10);
  EXPECT_EQ(snap[1].latency_ms, 9);
  EXPECT_EQ(snap[2].latency_ms, 8);
}

TEST(SlowQueryLogTest, ZeroCapacityDisables) {
  SlowQueryLog log(0);
  log.Offer(Rec(5));
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(SlowQueryLogTest, ClearResetsFloor) {
  SlowQueryLog log(2);
  log.Offer(Rec(100));
  log.Offer(Rec(200));
  log.Clear();
  log.Offer(Rec(1));
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].latency_ms, 1);
}

// ------------------------------------------------------ service end-to-end --

TEST(ServiceObservabilityTest, TracingServiceCapturesSlowQueriesAndTraces) {
  testing::TinyDataset tiny =
      testing::MakeTinyDataset(11, /*n=*/32, /*extra_edges=*/24,
                               /*num_pois=*/16);
  Dataset ds;
  ds.name = "obs-test";
  ds.graph = std::move(tiny.graph);
  ds.forest = std::move(tiny.forest);
  QueryGenParams qp;
  qp.count = 8;
  qp.sequence_size = 2;
  qp.seed = 5;
  const auto queries = GenerateQueries(ds, qp);

  ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.enable_tracing = true;
  cfg.slow_query_log_capacity = 4;
  QueryService service(ds.graph, ds.forest, cfg);
  const auto results = service.RunBatch(queries);
  for (const auto& r : results) EXPECT_TRUE(r.ok());

  const MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.completed, static_cast<int64_t>(queries.size()));
  ASSERT_FALSE(m.slow_queries.empty());
  EXPECT_LE(m.slow_queries.size(), 4u);
  EXPECT_GT(m.slow_queries[0].latency_ms, 0);
  // Histogram raw counts sum to the completions they aggregate.
  int64_t bucketed = 0;
  for (int64_t c : m.latency_bucket_counts) bucketed += c;
  EXPECT_EQ(bucketed, m.completed);

  const std::string traces = service.WorkerTracesToJson();
  auto parsed = ParseJson(traces);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(traces.find("worker-0"), std::string::npos);
  EXPECT_NE(traces.find("\"execute\""), std::string::npos);
}

TEST(MetricsEndpointTest, ServesProviderTextOverHttp) {
  MetricsEndpoint ep(0, [] { return std::string("skysr_up 1\n"); });
  ASSERT_TRUE(ep.Start().ok());
  ASSERT_GT(ep.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(ep.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, req, sizeof(req) - 1, 0),
            static_cast<ssize_t>(sizeof(req) - 1));
  std::string response;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  ep.Stop();

  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("skysr_up 1\n"), std::string::npos);
}

// Connects to the endpoint on loopback; the client side gives up on any
// read or write after five seconds, so a wedged endpoint fails a test
// instead of hanging it.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendRequest(int fd, const std::string& path) {
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));
}

std::string Fetch(int port, const std::string& path) {
  const int fd = ConnectLoopback(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  SendRequest(fd, path);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// A scraper that hangs up before reading its response must not take the
// process down with SIGPIPE. The body is far larger than the socket
// buffers and the provider is slow, so the endpoint is still sending when
// the closed peer resets the connection.
TEST(MetricsEndpointTest, ClientHangupDuringSendKeepsServing) {
  MetricsEndpoint ep(0);
  ep.AddRoute("/big", "text/plain", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return std::string(size_t{8} << 20, 'x');
  });
  ep.AddRoute("/small", "text/plain", [] { return std::string("ok\n"); });
  ASSERT_TRUE(ep.Start().ok());
  for (int i = 0; i < 3; ++i) {
    const int fd = ConnectLoopback(ep.port());
    ASSERT_GE(fd, 0);
    SendRequest(fd, "/big");
    ::close(fd);  // gone before the provider returns
  }
  EXPECT_NE(Fetch(ep.port(), "/small").find("ok\n"), std::string::npos);
  ep.Stop();
}

// A client that connects and never sends a request must not hold the only
// serve thread: a later scrape is still answered, and Stop() returns.
TEST(MetricsEndpointTest, IdleClientDoesNotWedgeServeThread) {
  MetricsEndpoint ep(0, [] { return std::string("skysr_up 1\n"); });
  ASSERT_TRUE(ep.Start().ok());
  const int idle = ConnectLoopback(ep.port());
  ASSERT_GE(idle, 0);
  // Let the serve thread accept the idle connection first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_NE(Fetch(ep.port(), "/metrics").find("skysr_up 1\n"),
            std::string::npos);

  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&] {
    ep.Stop();
    stopped.set_value();
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  ::close(idle);  // unblocks a wedged serve thread so the test can finish
  stopper.join();
  EXPECT_TRUE(returned) << "Stop() blocked behind an idle client";
}

// -------------------------------------------------------------- mini json --

TEST(MiniJsonTest, ParsesNestedDocumentPreservingOrder) {
  auto v = ParseJson(R"({"b": 1, "a": [true, null, "x\n", -2.5e3]})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  ASSERT_EQ(v->object.size(), 2u);
  EXPECT_EQ(v->object[0].first, "b");  // member order is kept
  EXPECT_EQ(v->object[1].first, "a");
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_TRUE(a->array[0].boolean);
  EXPECT_EQ(a->array[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(a->array[2].string, "x\n");
  EXPECT_EQ(a->array[3].number, -2500.0);
}

TEST(MiniJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("truthy").ok());
  EXPECT_FALSE(ParseJson("1.2.3").ok());
  EXPECT_FALSE(ParseJson("").ok());
  // Depth cap: 70 nested arrays exceed the 64 limit.
  std::string deep(70, '[');
  deep += std::string(70, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(MiniJsonTest, StringOrAndFindHelpers) {
  auto v = ParseJson(R"({"name": "hotpath", "n": 3})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->StringOr("name", "d"), "hotpath");
  EXPECT_EQ(v->StringOr("missing", "d"), "d");
  EXPECT_EQ(v->Find("absent"), nullptr);
}

// -------------------------------------------------------- perf trajectory --

TEST(PerfTrajectoryTest, MetricDirectionHeuristic) {
  EXPECT_EQ(MetricDirection("qps"), +1);
  EXPECT_EQ(MetricDirection("settles_per_sec"), +1);
  EXPECT_EQ(MetricDirection("cache_hit_rate"), +1);
  EXPECT_EQ(MetricDirection("p99_ms"), -1);
  EXPECT_EQ(MetricDirection("allocs_per_query"), -1);
  EXPECT_EQ(MetricDirection("resident_bytes"), -1);
  EXPECT_EQ(MetricDirection("counters.settled"), 0);
  EXPECT_EQ(MetricDirection("skyline"), 0);
}

constexpr const char* kRunTemplate = R"({
  "bench": "hotpath",
  "scale": 1,
  "meta": {"schema_version": 1, "git_sha": "%s", "timestamp_utc": "%s"},
  "families": [
    {"family": "grid", "config": "auto", "qps": %d, "p99_ms": %g,
     "counters": {"settled": %d}}
  ]
})";

std::string MakeRun(const char* sha, const char* stamp, int qps, double p99,
                    int settled) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), kRunTemplate, sha, stamp, qps, p99,
                settled);
  return buf;
}

TEST(PerfTrajectoryTest, ParseBenchRunExtractsRowsAndMeta) {
  auto run = ParseBenchRun(MakeRun("abc123", "2026-08-01T00:00:00Z", 1000,
                                   2.0, 500),
                           "BENCH_hotpath.json");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->bench, "hotpath");
  EXPECT_EQ(run->git_sha, "abc123");
  EXPECT_EQ(run->timestamp, "2026-08-01T00:00:00Z");
  bool saw_qps = false, saw_nested = false, saw_scale = false;
  for (const auto& s : run->samples) {
    if (s.metric == "qps") {
      saw_qps = true;
      EXPECT_EQ(s.row, "grid/auto");  // string fields join into the label
      EXPECT_EQ(s.value, 1000.0);
    }
    if (s.metric == "counters.settled") saw_nested = true;
    if (s.metric == "scale") saw_scale = true;
  }
  EXPECT_TRUE(saw_qps);
  EXPECT_TRUE(saw_nested);
  EXPECT_FALSE(saw_scale);  // run-shape fields are not metrics
}

TEST(PerfTrajectoryTest, ParseBenchRunRejectsMalformedInput) {
  EXPECT_FALSE(ParseBenchRun("{not json", "x.json").ok());
  EXPECT_FALSE(ParseBenchRun("[1, 2]", "x.json").ok());
  EXPECT_FALSE(ParseBenchRun(R"({"bench": "empty"})", "x.json").ok());
}

TEST(PerfTrajectoryTest, FlagsTwentyPercentQpsDrop) {
  std::vector<BenchRun> runs;
  // Deliberately passed newest-first: ordering must come from the stamp.
  runs.push_back(*ParseBenchRun(
      MakeRun("bbb", "2026-08-02T00:00:00Z", 800, 2.0, 500), "b.json"));
  runs.push_back(*ParseBenchRun(
      MakeRun("aaa", "2026-08-01T00:00:00Z", 1000, 2.0, 500), "a.json"));

  const PerfReport report = BuildPerfReport(std::move(runs), {});
  EXPECT_EQ(report.num_runs, 2);
  EXPECT_EQ(report.num_regressions, 1);
  ASSERT_FALSE(report.trends.empty());
  const MetricTrend& t = report.trends[0];  // regressions sort first
  EXPECT_EQ(t.metric, "qps");
  EXPECT_TRUE(t.regressed);
  EXPECT_EQ(t.baseline, 1000.0);
  EXPECT_EQ(t.latest, 800.0);
  EXPECT_NEAR(t.change, -0.20, 1e-9);
  EXPECT_NE(report.ToMarkdown().find("REGRESSED"), std::string::npos);
  EXPECT_NE(report.ToCsv().find("qps,1000,800,-0.2,1"), std::string::npos);
}

TEST(PerfTrajectoryTest, SmallDriftAndCountersAreNotFlagged) {
  std::vector<BenchRun> runs;
  runs.push_back(*ParseBenchRun(
      MakeRun("aaa", "2026-08-01T00:00:00Z", 1000, 2.0, 500), "a.json"));
  // qps -5% (inside the 10% gate), p99 +5% (inside), settled +50%
  // (deterministic counter: tracked, never flagged).
  runs.push_back(*ParseBenchRun(
      MakeRun("bbb", "2026-08-02T00:00:00Z", 950, 2.1, 750), "b.json"));
  const PerfReport report = BuildPerfReport(std::move(runs), {});
  EXPECT_EQ(report.num_regressions, 0);
}

TEST(PerfTrajectoryTest, LowerBetterMetricFlagsOnRise) {
  std::vector<BenchRun> runs;
  runs.push_back(*ParseBenchRun(
      MakeRun("aaa", "2026-08-01T00:00:00Z", 1000, 2.0, 500), "a.json"));
  runs.push_back(*ParseBenchRun(
      MakeRun("bbb", "2026-08-02T00:00:00Z", 1000, 3.0, 500), "b.json"));
  const PerfReport report = BuildPerfReport(std::move(runs), {});
  ASSERT_EQ(report.num_regressions, 1);
  EXPECT_EQ(report.trends[0].metric, "p99_ms");
}

}  // namespace
}  // namespace skysr
