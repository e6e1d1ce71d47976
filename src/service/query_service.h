// QueryService — the concurrent query-execution layer over BssrEngine.
//
// The engine itself is single-threaded by design (it owns scratch buffers;
// "use one engine per thread"). The service turns that contract into a
// multi-client system: it owns the shared immutable Graph + CategoryForest,
// a fixed pool of workers each wrapping a private BssrEngine, a bounded
// MPMC submission queue providing backpressure, a shared LRU result cache
// over canonicalized queries, and aggregate metrics (QPS, latency
// percentiles, cache hit rate).
//
//   QueryService service(ds.graph, ds.forest, {.num_threads = 8});
//   auto future = service.Submit(MakeSimpleQuery(start, {cafe, museum}));
//   ...
//   Result<QueryResult> r = future.get();
//
// Batches fan out across the pool and return in input order:
//
//   std::vector<Result<QueryResult>> rs = service.RunBatch(queries);
//
// Thread safety: every public method may be called from any thread.
// Results are deterministic — a query returns the same skyline whether it
// ran on one thread, sixteen, or out of the cache.

#ifndef SKYSR_SERVICE_QUERY_SERVICE_H_
#define SKYSR_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "category/category_forest.h"
#include "core/bssr_engine.h"
#include "core/query.h"
#include "graph/graph.h"
#include "obs/query_trace.h"
#include "retrieval/category_buckets.h"
#include "service/bounded_queue.h"
#include "service/prometheus.h"
#include "service/result_cache.h"
#include "service/service_metrics.h"
#include "service/slow_query_log.h"
#include "service/worker_pool.h"
#include "util/status.h"
#include "util/timer.h"

namespace skysr {

/// Service sizing and defaults.
struct ServiceConfig {
  /// Worker threads (one BssrEngine each); <= 0 uses hardware concurrency.
  int num_threads = 0;
  /// Bounded submission queue length. Submit() blocks when full.
  size_t queue_capacity = 1024;
  /// LRU result-cache entries; 0 disables the shared result cache.
  size_t cache_capacity = 512;
  /// Options applied when Submit/RunBatch are called without options.
  QueryOptions default_options;
  /// Shared immutable CH oracle (index layer) that `buckets` derive from.
  /// Non-owning: it must be built over the same graph and outlive the
  /// service. Every worker's engine scans through its own per-thread
  /// workspace; null (or no buckets) keeps the classic Dijkstra paths.
  const ChOracle* oracle = nullptr;
  /// Shared immutable category-bucket tables (src/retrieval/). Non-owning:
  /// must be built over (this graph, `oracle`) and outlive the service.
  /// One table set serves every worker; per-worker scan state lives inside
  /// each engine's workspace. Null keeps the settle/resume paths.
  const CategoryBucketIndex* buckets = nullptr;
  /// Cross-query shared cache (src/cache/): each worker's engine keeps
  /// engine-lifetime warm state — a CLOCK-evicted forward-upward-search
  /// cache plus persistent resumable-retriever slots — and all workers
  /// start from one immutable prewarm snapshot built at construction. The
  /// read path takes no locks (the snapshot is immutable, everything
  /// mutable is worker-private); results are bit-identical on or off, cold
  /// or warm. The forward-search side engages only when `buckets` is set.
  bool shared_query_cache = true;
  /// PoI vertices (first N in PoiId order, duplicates skipped) whose
  /// forward searches are precomputed into the shared snapshot before the
  /// workers start; 0 skips the snapshot. Needs `buckets`.
  size_t xcache_prewarm_pois = 256;
  /// Slowest-query reservoir entries retained for diagnostics (see
  /// service/slow_query_log.h); 0 disables the log.
  size_t slow_query_log_capacity = 16;
  /// Per-worker phase tracing (src/obs/): each worker's engine records
  /// spans into a worker-owned ring allocated once at startup, exported by
  /// WorkerTracesToJson(). Off by default — the serving hot path then pays
  /// one branch per span site and nothing else.
  bool enable_tracing = false;
  /// Ring capacity (events) of each worker's trace.
  size_t trace_capacity = 4096;
};

/// A concurrent, cached front-end over per-thread BssrEngines.
class QueryService {
 public:
  /// The graph and forest must outlive the service. Workers start
  /// immediately.
  QueryService(const Graph& graph, const CategoryForest& forest,
               ServiceConfig config = ServiceConfig());

  /// Drains in-flight work, then joins the pool.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one query; blocks while the submission queue is full. The
  /// future resolves to the skyline or an error status. After Shutdown()
  /// the future resolves immediately to an Internal error.
  std::future<Result<QueryResult>> Submit(Query query);
  std::future<Result<QueryResult>> Submit(Query query, QueryOptions options);

  /// Non-blocking submission; std::nullopt when the queue is full or the
  /// service is shut down (counted in MetricsSnapshot::rejected).
  std::optional<std::future<Result<QueryResult>>> TrySubmit(Query query);
  std::optional<std::future<Result<QueryResult>>> TrySubmit(
      Query query, QueryOptions options);

  /// Fans the batch out across the pool and blocks for all results, which
  /// are returned in input order.
  std::vector<Result<QueryResult>> RunBatch(std::span<const Query> queries);
  std::vector<Result<QueryResult>> RunBatch(std::span<const Query> queries,
                                            const QueryOptions& options);

  /// Aggregate counters since construction (or the last ResetMetrics),
  /// including the slowest-query records (slowest first).
  MetricsSnapshot Metrics() const {
    MetricsSnapshot s = metrics_.Snapshot();
    s.queue_depth = static_cast<int64_t>(queue_.size());
    s.slow_queries = slow_log_.Snapshot();
    return s;
  }
  void ResetMetrics() {
    metrics_.Reset();
    slow_log_.Clear();
  }

  /// Prometheus text exposition of the current metrics.
  std::string MetricsToPrometheus() const {
    return PrometheusText(Metrics());
  }

  /// Merged Chrome trace-event JSON of every worker's trace (one track per
  /// worker); "" when the service was built without tracing. The traces
  /// are single-writer — call with no queries in flight (after a batch,
  /// or post-Shutdown).
  std::string WorkerTracesToJson() const;

  /// Stops accepting work, drains the queue, joins workers. Idempotent.
  void Shutdown();

  int num_threads() const { return num_threads_; }
  size_t cache_size() const { return cache_.size(); }
  const Graph& graph() const { return *graph_; }
  const CategoryForest& forest() const { return *forest_; }
  /// The prewarm snapshot shared by every worker's cache; null when the
  /// shared query cache is off, bucketless, or prewarming is disabled.
  const FwdSnapshot* warm_snapshot() const { return warm_snapshot_.get(); }

 private:
  /// One enqueued query: the submission-queue element a worker pops and
  /// executes.
  struct ServingTask {
    Query query;
    QueryOptions options;
    std::promise<Result<QueryResult>> promise;
    WallTimer enqueued;  // measures end-to-end (queue + execute) latency
  };

  /// One worker's per-thread context: its engine, optional warm cache and
  /// trace, and the cache's resident bytes last added to the service gauge.
  struct WorkerState {
    BssrEngine* engine = nullptr;
    SharedQueryCache* xcache = nullptr;  // null when the cache is off
    QueryTrace* trace = nullptr;         // null when tracing is off
    int64_t seen_bytes = 0;
  };

  void WorkerLoop(int thread_index);
  void Execute(WorkerState& state, ServingTask& task);
  std::future<Result<QueryResult>> SubmitInternal(Query query,
                                                  QueryOptions options,
                                                  bool blocking,
                                                  bool* accepted);

  const Graph* graph_;
  const CategoryForest* forest_;
  const int num_threads_;
  ServiceConfig config_;

  BoundedQueue<ServingTask> queue_;
  LruResultCache cache_;
  ServiceMetrics metrics_;
  SlowQueryLog slow_log_;
  // One trace per worker (empty when tracing is off); allocated before the
  // pool starts and never resized, so workers write lock-free.
  std::vector<std::unique_ptr<QueryTrace>> worker_traces_;
  // Built once before the workers start, then shared read-only; each
  // worker's SharedQueryCache holds a reference for its whole lifetime.
  std::shared_ptr<const FwdSnapshot> warm_snapshot_;
  WorkerPool pool_;
  // Service-wide query sequence: each completed query gets the next id,
  // which names it everywhere a human might follow it — the slow-query
  // log ("qN ..."), the Prometheus latency exemplars (trace_id="qN") and
  // the /debug dashboard. 0 is reserved for "unassigned".
  std::atomic<int64_t> query_seq_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace skysr

#endif  // SKYSR_SERVICE_QUERY_SERVICE_H_
