// Aggregate service-level metrics for QueryService: query/error/cache
// counters, throughput, and latency percentiles from a lock-free
// log-bucketed histogram. Built on top of the per-query SearchStats that
// every engine already emits.

#ifndef SKYSR_SERVICE_SERVICE_METRICS_H_
#define SKYSR_SERVICE_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "service/slow_query_log.h"
#include "util/timer.h"

namespace skysr {

/// Geometry of the service latency histogram, shared by ServiceMetrics, the
/// snapshot's raw bucket counts, the Prometheus exposition and the tests.
/// Bucket i covers [kBaseMs * kGrowth^i, kBaseMs * kGrowth^(i+1)) ms; 96
/// geometric buckets at 1.25x growth span ~0.001 ms to ~2e6 ms.
struct LatencyHistogram {
  static constexpr int kNumBuckets = 96;
  static constexpr double kBaseMs = 1e-3;
  static constexpr double kGrowth = 1.25;

  /// Exclusive upper bound (ms) of bucket i — the Prometheus `le` label.
  /// Computed by repeated multiplication, not pow(), so the values are
  /// bit-identical across libms and safe to pin in a golden test.
  static double UpperBoundMs(int bucket) {
    double b = kBaseMs;
    for (int i = 0; i <= bucket; ++i) b *= kGrowth;
    return b;
  }
};

/// Point-in-time view of the service counters, with derived rates.
struct MetricsSnapshot {
  int64_t submitted = 0;       // queries accepted into the service
  int64_t completed = 0;       // queries answered OK (engine or cache)
  int64_t errors = 0;          // queries answered with a non-OK status
  int64_t rejected = 0;        // TrySubmit refused: queue full or shut down
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;

  double uptime_seconds = 0;
  double qps = 0;              // completed / uptime
  double cache_hit_rate = 0;   // hits / (hits + misses); 0 when no lookups

  // Latency of completed queries (submission to completion), milliseconds.
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;
  double latency_mean_ms = 0;
  double latency_max_ms = 0;
  double latency_sum_ms = 0;

  // Raw per-bucket counts of the latency histogram (geometry in
  // LatencyHistogram) — the exact data behind the percentiles, exported so
  // external systems (Prometheus, the perf reporter) can re-aggregate
  // without precision loss.
  std::array<int64_t, LatencyHistogram::kNumBuckets> latency_bucket_counts{};

  // OpenMetrics exemplars: per latency bucket, the service query id (the
  // SlowQueryRecord::query_id / trace "q<N>" namespace) and observed
  // latency of the most recent observation that landed there. Id 0 = no
  // exemplar (the bucket line is emitted without one, keeping the plain
  // exposition byte-identical).
  std::array<int64_t, LatencyHistogram::kNumBuckets> latency_exemplar_ids{};
  std::array<double, LatencyHistogram::kNumBuckets> latency_exemplar_ms{};

  // Submission-queue wait of dispatched queries (same histogram geometry as
  // latency), plus the queue depth sampled at the last submit.
  int64_t queue_wait_count = 0;
  double queue_wait_p50_ms = 0;
  double queue_wait_p99_ms = 0;
  double queue_wait_mean_ms = 0;
  double queue_wait_max_ms = 0;
  double queue_wait_sum_ms = 0;
  std::array<int64_t, LatencyHistogram::kNumBuckets>
      queue_wait_bucket_counts{};
  int64_t queue_depth = 0;  // sampled gauge, not a cumulative count

  // Aggregated engine effort across all executed (non-cached) queries.
  int64_t vertices_settled = 0;
  int64_t edges_relaxed = 0;
  int64_t routes_found = 0;

  // Cross-query shared-cache activity (src/cache/), summed over the
  // per-worker caches. Forward hits include prewarm-snapshot hits;
  // resident_bytes is a point-in-time gauge, not a cumulative count.
  int64_t xcache_fwd_hits = 0;
  int64_t xcache_fwd_misses = 0;
  int64_t xcache_fwd_evictions = 0;
  int64_t xcache_resume_reuses = 0;
  int64_t xcache_resume_evictions = 0;
  int64_t xcache_resident_bytes = 0;
  double xcache_fwd_hit_rate = 0;  // hits / (hits + misses); 0 when unused

  // The service's N-slowest-query records, slowest first. Filled by
  // QueryService::Metrics(); empty from a bare ServiceMetrics::Snapshot()
  // (the metrics sink does not own the reservoir).
  std::vector<SlowQueryRecord> slow_queries;

  /// Multi-line human-readable dump (slow queries appended when present).
  std::string ToString() const;
};

/// Thread-safe metrics sink. All mutators are wait-free atomic updates so
/// worker threads never serialize on instrumentation.
class ServiceMetrics {
 public:
  ServiceMetrics();

  void RecordSubmitted() { submitted_.fetch_add(1, kRelaxed); }
  void RecordRejected() { rejected_.fetch_add(1, kRelaxed); }
  void RecordError() { errors_.fetch_add(1, kRelaxed); }
  void RecordCacheHit() { cache_hits_.fetch_add(1, kRelaxed); }
  void RecordCacheMiss() { cache_misses_.fetch_add(1, kRelaxed); }

  /// Records a successfully answered query with its end-to-end latency and
  /// the engine effort spent on it (zeros when served from cache). A
  /// non-zero `exemplar_id` (the service's per-query sequence number)
  /// additionally stamps the latency bucket's exemplar — last writer wins,
  /// so each bucket links to its most recent observation.
  void RecordCompleted(double latency_ms, int64_t vertices_settled,
                       int64_t edges_relaxed, int64_t routes_found,
                       int64_t exemplar_id = 0);

  /// Records one dispatched query's submission-queue wait.
  void RecordQueueWait(double wait_ms);

  /// Samples the submission-queue depth (called at submit; a gauge, so the
  /// last writer wins).
  void SampleQueueDepth(int64_t depth) { queue_depth_.store(depth, kRelaxed); }

  /// Folds one worker's shared-cache counter DELTAS in (workers call this
  /// after each executed query with cumulative-counter differences, so the
  /// sums stay exact without any shared mutable cache state). The
  /// resident-bytes delta may be negative; summing every worker's deltas
  /// yields the current total gauge.
  void RecordXCache(int64_t fwd_hits, int64_t fwd_misses,
                    int64_t fwd_evictions, int64_t resume_reuses,
                    int64_t resume_evictions, int64_t resident_bytes_delta);

  MetricsSnapshot Snapshot() const;

  /// Prometheus text-exposition (format 0.0.4) of a current snapshot —
  /// equivalent to PrometheusText(Snapshot()) (see service/prometheus.h).
  std::string ToPrometheus() const;

  /// Zeroes every counter and restarts the uptime clock.
  void Reset();

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  /// Minimum before the first observation.
  static constexpr double kNoMin = std::numeric_limits<double>::infinity();

  // Latency histogram geometry (see LatencyHistogram above).
  static constexpr int kNumBuckets = LatencyHistogram::kNumBuckets;
  static constexpr double kBaseMs = LatencyHistogram::kBaseMs;
  static constexpr double kGrowth = LatencyHistogram::kGrowth;

  static int BucketOf(double latency_ms);
  static double BucketMidpoint(int bucket);
  /// The bucket midpoint holding the p-quantile, clamped to the observed
  /// [min_ms, max_ms]: a midpoint can lie outside the values that actually
  /// landed in its bucket (one 0.225 ms observation would otherwise report
  /// p50 = 0.237 ms, above its own maximum).
  double PercentileLocked(double p, int64_t total,
                          const std::array<int64_t, kNumBuckets>& counts,
                          double min_ms, double max_ms) const;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> errors_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};

  std::atomic<int64_t> vertices_settled_{0};
  std::atomic<int64_t> edges_relaxed_{0};
  std::atomic<int64_t> routes_found_{0};

  std::atomic<int64_t> xcache_fwd_hits_{0};
  std::atomic<int64_t> xcache_fwd_misses_{0};
  std::atomic<int64_t> xcache_fwd_evictions_{0};
  std::atomic<int64_t> xcache_resume_reuses_{0};
  std::atomic<int64_t> xcache_resume_evictions_{0};
  std::atomic<int64_t> xcache_resident_bytes_{0};

  std::array<std::atomic<int64_t>, kNumBuckets> latency_buckets_;
  std::array<std::atomic<int64_t>, kNumBuckets> latency_exemplar_ids_;
  std::array<std::atomic<double>, kNumBuckets> latency_exemplar_ms_;
  std::atomic<double> latency_sum_ms_{0};
  std::atomic<double> latency_min_ms_{kNoMin};
  std::atomic<double> latency_max_ms_{0};

  std::array<std::atomic<int64_t>, kNumBuckets> queue_wait_buckets_;
  std::atomic<int64_t> queue_wait_count_{0};
  std::atomic<double> queue_wait_sum_ms_{0};
  std::atomic<double> queue_wait_min_ms_{kNoMin};
  std::atomic<double> queue_wait_max_ms_{0};
  std::atomic<int64_t> queue_depth_{0};

  WallTimer uptime_;
};

}  // namespace skysr

#endif  // SKYSR_SERVICE_SERVICE_METRICS_H_
