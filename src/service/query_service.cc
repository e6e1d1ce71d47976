#include "service/query_service.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace_export.h"
#include "retrieval/bucket_retriever.h"

namespace skysr {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::future<Result<QueryResult>> ImmediateError(Status status) {
  std::promise<Result<QueryResult>> p;
  auto f = p.get_future();
  p.set_value(Result<QueryResult>(std::move(status)));
  return f;
}

}  // namespace

QueryService::QueryService(const Graph& graph, const CategoryForest& forest,
                           ServiceConfig config)
    : graph_(&graph),
      forest_(&forest),
      num_threads_(ResolveThreads(config.num_threads)),
      config_(std::move(config)),
      queue_(config_.queue_capacity),
      cache_(config_.cache_capacity),
      slow_log_(config_.slow_query_log_capacity) {
  // Prewarm snapshot: the forward upward searches of the first N PoI
  // vertices, computed once here and shared read-only by every worker's
  // cross-query cache. Built strictly before the workers start, so no
  // synchronization is ever needed on it. The guard mirrors the engine's
  // bucket-validity check — a bucket index describing some other (graph,
  // oracle) would be dropped by every engine anyway.
  if (config_.shared_query_cache && config_.buckets != nullptr &&
      config_.oracle != nullptr && &config_.buckets->graph() == graph_ &&
      &config_.buckets->oracle() == config_.oracle &&
      config_.xcache_prewarm_pois > 0 && graph_->num_pois() > 0) {
    std::vector<VertexId> sources;
    const size_t n = std::min(static_cast<size_t>(graph_->num_pois()),
                              config_.xcache_prewarm_pois);
    sources.reserve(n);
    for (size_t p = 0; p < n; ++p) {
      sources.push_back(graph_->VertexOfPoi(static_cast<PoiId>(p)));
    }
    warm_snapshot_ = std::make_shared<const FwdSnapshot>(
        BuildFwdSnapshot(*config_.buckets, sources,
                         WarmStateChecksum(*graph_, config_.oracle)));
  }
  if (config_.enable_tracing) {
    worker_traces_.reserve(static_cast<size_t>(num_threads_));
    for (int i = 0; i < num_threads_; ++i) {
      auto trace = std::make_unique<QueryTrace>(config_.trace_capacity);
      trace->set_enabled(true);
      worker_traces_.push_back(std::move(trace));
    }
  }
  pool_.Start(num_threads_, [this](int i) { WorkerLoop(i); });
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  queue_.Close();
  pool_.Join();
}

std::string QueryService::WorkerTracesToJson() const {
  if (worker_traces_.empty()) return {};
  std::vector<TraceTrack> tracks;
  tracks.reserve(worker_traces_.size());
  for (size_t i = 0; i < worker_traces_.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "worker-%zu", i);
    tracks.push_back(TraceTrack{worker_traces_[i].get(), name});
  }
  return TracesToChromeJson(tracks);
}

void QueryService::WorkerLoop(int thread_index) {
  // One engine per worker: the whole point of the service layer. The engine
  // owns a QueryWorkspace (skyline, arena, bulk queue, flat cache +
  // candidate pool, resumable slots, every sub-search scratch) that lives for
  // this worker's lifetime, so sustained batch/serve traffic runs
  // allocation-free in steady state — capacities grow to the hardest query
  // drawn and stay; results are bit-identical to a fresh engine per query.
  // The distance oracle and category-bucket tables (if any) are shared and
  // immutable, with each engine's workspace holding its private oracle and
  // retrieval scratch.
  BssrEngine engine(*graph_, *forest_, config_.oracle, config_.buckets);
  // Cross-query warm state: worker-private and engine-lifetime, so the read
  // path is lock-free by construction — the only state shared across
  // workers is the immutable prewarm snapshot. Counter deltas are folded
  // into the service metrics after each task; the cumulative-difference
  // scheme keeps the per-worker counters plain (non-atomic) ints.
  std::optional<SharedQueryCache> xcache;
  if (config_.shared_query_cache) {
    xcache.emplace();
    engine.AttachSharedCache(&*xcache);
    if (warm_snapshot_ != nullptr) xcache->SetSnapshot(warm_snapshot_);
  }
  WorkerState state;
  state.engine = &engine;
  state.xcache = xcache.has_value() ? &*xcache : nullptr;
  if (!worker_traces_.empty()) {
    state.trace = worker_traces_[static_cast<size_t>(thread_index)].get();
    engine.AttachTrace(state.trace);
  }
  while (auto task = queue_.Pop()) {
    Execute(state, *task);
  }
}

void QueryService::Execute(WorkerState& state, ServingTask& task) {
  QueryTrace* const trace =
      (state.trace != nullptr && state.trace->enabled()) ? state.trace
                                                         : nullptr;
  const double queue_wait_ms = task.enqueued.ElapsedMillis();
  metrics_.RecordQueueWait(queue_wait_ms);
  if (trace != nullptr) {
    // The wait is over by the time any worker sees the task, so it is
    // recorded from the task's own timer instead of a live span.
    const int64_t wait_ns = static_cast<int64_t>(queue_wait_ms * 1e6);
    trace->Record(TracePhase::kQueueWait, trace->NowNs() - wait_ns, wait_ns,
                  /*depth=*/0);
  }
  WallTimer exec_timer;
  TraceSpan execute_span(trace, TracePhase::kExecute);

  std::string key = CanonicalQueryKey(task.query, task.options);
  std::shared_ptr<const QueryResult> hit;
  if (!key.empty()) {
    TraceSpan lookup_span(trace, TracePhase::kCacheLookup);
    hit = cache_.Get(key);
  }
  if (hit != nullptr) {
    metrics_.RecordCacheHit();
    const int64_t qid =
        query_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    const double latency_ms = task.enqueued.ElapsedMillis();
    QueryResult answered(*hit);
    // The hit ran no search: its stats describe this answer, not the
    // execution that filled the cache.
    answered.stats = SearchStats{};
    answered.stats.skyline_size = static_cast<int64_t>(answered.routes.size());
    answered.stats.elapsed_ms = exec_timer.ElapsedMillis();
    metrics_.RecordCompleted(latency_ms, answered.stats,
                             answered.stats.skyline_size, qid);
    if (task.options.explain) {
      // Cached entries are stored explain-stripped, so a hit synthesizes
      // its own attribution: the whole query was one result-cache hit.
      answered.explain = std::make_shared<QueryExplain>();
      answered.explain->result_cache.hits = 1;
    }
    SlowQueryRecord rec;
    rec.key = key;
    rec.latency_ms = latency_ms;
    rec.queue_wait_ms = queue_wait_ms;
    rec.execute_ms = answered.stats.elapsed_ms;
    rec.cache_hit = true;
    rec.routes = answered.stats.skyline_size;
    rec.stats = answered.stats;
    rec.query_id = qid;
    rec.explain = answered.explain;
    slow_log_.Offer(std::move(rec));
    // The span must land before the caller can observe the answer: a
    // caller that exports the traces once its results are in must find the
    // worker's ring quiet.
    execute_span.Close();
    task.promise.set_value(std::move(answered));
    return;
  }
  if (!key.empty()) metrics_.RecordCacheMiss();

  Result<QueryResult> result = state.engine->Run(task.query, task.options);

  // The warm-state counts arrive in the query's SearchStats; only the
  // resident-bytes gauge is read off the cache.
  if (state.xcache != nullptr) {
    const int64_t bytes = state.xcache->ResidentBytes();
    metrics_.AddXCacheResidentBytes(bytes - state.seen_bytes);
    state.seen_bytes = bytes;
  }

  if (result.ok()) {
    if (result->explain != nullptr && !key.empty()) {
      result->explain->result_cache.misses = 1;
    }
    if (!key.empty() && !result->stats.timed_out) {
      // Strip the explain from the cached copy: attribution describes THIS
      // execution (backends, cache deltas) and would be stale — and wrong —
      // replayed to a later hit.
      auto cached = std::make_shared<QueryResult>(*result);
      cached->explain = nullptr;
      cache_.Put(key, std::move(cached));
    }
    const int64_t qid =
        query_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    const double latency_ms = task.enqueued.ElapsedMillis();
    metrics_.RecordCompleted(latency_ms, result->stats,
                             static_cast<int64_t>(result->routes.size()), qid,
                             /*attached_cache=*/state.xcache != nullptr);
    SlowQueryRecord rec;
    rec.key = std::move(key);
    rec.latency_ms = latency_ms;
    rec.queue_wait_ms = queue_wait_ms;
    rec.execute_ms = exec_timer.ElapsedMillis();
    rec.routes = static_cast<int64_t>(result->routes.size());
    rec.stats = result->stats;
    rec.query_id = qid;
    rec.explain = result->explain;
    slow_log_.Offer(std::move(rec));
  } else {
    metrics_.RecordError();
  }
  execute_span.Close();
  task.promise.set_value(std::move(result));
}

std::future<Result<QueryResult>> QueryService::SubmitInternal(
    Query query, QueryOptions options, bool blocking, bool* accepted) {
  ServingTask task;
  task.query = std::move(query);
  task.options = std::move(options);
  std::future<Result<QueryResult>> future = task.promise.get_future();

  bool pushed = false;
  if (!shutdown_.load(std::memory_order_acquire)) {
    pushed = blocking ? queue_.Push(std::move(task))
                      : queue_.TryPush(std::move(task));
  }
  if (accepted != nullptr) *accepted = pushed;
  if (!pushed) {
    metrics_.RecordRejected();
    // The rejected task's promise dies unfulfilled; hand the caller a fresh
    // future that already carries the error instead.
    return ImmediateError(Status::Internal(
        "QueryService not accepting work (queue full or shut down)"));
  }
  metrics_.RecordSubmitted();
  return future;
}

std::future<Result<QueryResult>> QueryService::Submit(Query query) {
  return Submit(std::move(query), config_.default_options);
}

std::future<Result<QueryResult>> QueryService::Submit(Query query,
                                                      QueryOptions options) {
  return SubmitInternal(std::move(query), std::move(options),
                        /*blocking=*/true, nullptr);
}

std::optional<std::future<Result<QueryResult>>> QueryService::TrySubmit(
    Query query) {
  return TrySubmit(std::move(query), config_.default_options);
}

std::optional<std::future<Result<QueryResult>>> QueryService::TrySubmit(
    Query query, QueryOptions options) {
  bool accepted = false;
  auto future = SubmitInternal(std::move(query), std::move(options),
                               /*blocking=*/false, &accepted);
  if (!accepted) return std::nullopt;
  return future;
}

std::vector<Result<QueryResult>> QueryService::RunBatch(
    std::span<const Query> queries) {
  return RunBatch(queries, config_.default_options);
}

std::vector<Result<QueryResult>> QueryService::RunBatch(
    std::span<const Query> queries, const QueryOptions& options) {
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(queries.size());
  for (const Query& q : queries) {
    futures.push_back(Submit(q, options));
  }
  std::vector<Result<QueryResult>> results;
  results.reserve(queries.size());
  for (auto& f : futures) {
    results.push_back(f.get());
  }
  return results;
}

}  // namespace skysr
