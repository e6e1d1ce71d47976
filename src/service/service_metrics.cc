#include "service/service_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "service/prometheus.h"

namespace skysr {

namespace {

std::string FormatLine(const char* label, double value, const char* unit) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%-18s %10.3f %s\n", label, value, unit);
  return buf;
}

// CAS loops: atomic min / max for doubles.
void AtomicMin(std::atomic<double>& target, double v) {
  double prev = target.load(std::memory_order_relaxed);
  while (v < prev && !target.compare_exchange_weak(
                         prev, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double v) {
  double prev = target.load(std::memory_order_relaxed);
  while (v > prev && !target.compare_exchange_weak(
                         prev, v, std::memory_order_relaxed)) {
  }
}

std::string FormatLine(const char* label, int64_t value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%-18s %10lld\n", label,
                static_cast<long long>(value));
  return buf;
}

}  // namespace

ServiceMetrics::ServiceMetrics() {
  for (auto& b : latency_buckets_) b.store(0, kRelaxed);
  for (auto& b : latency_exemplar_ids_) b.store(0, kRelaxed);
  for (auto& b : latency_exemplar_ms_) b.store(0, kRelaxed);
  for (auto& b : queue_wait_buckets_) b.store(0, kRelaxed);
}

int ServiceMetrics::BucketOf(double latency_ms) {
  if (!(latency_ms > kBaseMs)) return 0;
  const int b =
      static_cast<int>(std::log(latency_ms / kBaseMs) / std::log(kGrowth));
  return std::clamp(b, 0, kNumBuckets - 1);
}

double ServiceMetrics::BucketMidpoint(int bucket) {
  // Geometric midpoint of the bucket's range.
  return kBaseMs * std::pow(kGrowth, bucket + 0.5);
}

void ServiceMetrics::RecordCompleted(double latency_ms,
                                     int64_t vertices_settled,
                                     int64_t edges_relaxed,
                                     int64_t routes_found,
                                     int64_t exemplar_id) {
  completed_.fetch_add(1, kRelaxed);
  const auto bucket = static_cast<size_t>(BucketOf(latency_ms));
  latency_buckets_[bucket].fetch_add(1, kRelaxed);
  if (exemplar_id != 0) {
    // Two relaxed stores, not one atomic pair: an exposition racing a
    // writer may pair an id with a neighboring observation's value, which
    // is still a real observation from this bucket — good enough for a
    // debugging pointer, and free on the hot path.
    latency_exemplar_ms_[bucket].store(latency_ms, kRelaxed);
    latency_exemplar_ids_[bucket].store(exemplar_id, kRelaxed);
  }
  latency_sum_ms_.fetch_add(latency_ms, kRelaxed);
  AtomicMin(latency_min_ms_, latency_ms);
  AtomicMax(latency_max_ms_, latency_ms);
  vertices_settled_.fetch_add(vertices_settled, kRelaxed);
  edges_relaxed_.fetch_add(edges_relaxed, kRelaxed);
  routes_found_.fetch_add(routes_found, kRelaxed);
}

void ServiceMetrics::RecordQueueWait(double wait_ms) {
  queue_wait_count_.fetch_add(1, kRelaxed);
  queue_wait_buckets_[static_cast<size_t>(BucketOf(wait_ms))].fetch_add(
      1, kRelaxed);
  queue_wait_sum_ms_.fetch_add(wait_ms, kRelaxed);
  AtomicMin(queue_wait_min_ms_, wait_ms);
  AtomicMax(queue_wait_max_ms_, wait_ms);
}

void ServiceMetrics::RecordXCache(int64_t fwd_hits, int64_t fwd_misses,
                                  int64_t fwd_evictions,
                                  int64_t resume_reuses,
                                  int64_t resume_evictions,
                                  int64_t resident_bytes_delta) {
  xcache_fwd_hits_.fetch_add(fwd_hits, kRelaxed);
  xcache_fwd_misses_.fetch_add(fwd_misses, kRelaxed);
  xcache_fwd_evictions_.fetch_add(fwd_evictions, kRelaxed);
  xcache_resume_reuses_.fetch_add(resume_reuses, kRelaxed);
  xcache_resume_evictions_.fetch_add(resume_evictions, kRelaxed);
  xcache_resident_bytes_.fetch_add(resident_bytes_delta, kRelaxed);
}

double ServiceMetrics::PercentileLocked(
    double p, int64_t total, const std::array<int64_t, kNumBuckets>& counts,
    double min_ms, double max_ms) const {
  if (total == 0) return 0;
  const auto rank = static_cast<int64_t>(std::ceil(p * total));
  int64_t seen = 0;
  int bucket = kNumBuckets - 1;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts[static_cast<size_t>(i)];
    if (seen >= rank) {
      bucket = i;
      break;
    }
  }
  const double mid = BucketMidpoint(bucket);
  // A snapshot racing the first writer may see the count before either
  // bound; the midpoint stands until both are published.
  if (!(min_ms <= max_ms)) return mid;
  return std::clamp(mid, min_ms, max_ms);
}

MetricsSnapshot ServiceMetrics::Snapshot() const {
  MetricsSnapshot s;
  s.submitted = submitted_.load(kRelaxed);
  s.completed = completed_.load(kRelaxed);
  s.errors = errors_.load(kRelaxed);
  s.rejected = rejected_.load(kRelaxed);
  s.cache_hits = cache_hits_.load(kRelaxed);
  s.cache_misses = cache_misses_.load(kRelaxed);
  s.vertices_settled = vertices_settled_.load(kRelaxed);
  s.edges_relaxed = edges_relaxed_.load(kRelaxed);
  s.routes_found = routes_found_.load(kRelaxed);
  s.xcache_fwd_hits = xcache_fwd_hits_.load(kRelaxed);
  s.xcache_fwd_misses = xcache_fwd_misses_.load(kRelaxed);
  s.xcache_fwd_evictions = xcache_fwd_evictions_.load(kRelaxed);
  s.xcache_resume_reuses = xcache_resume_reuses_.load(kRelaxed);
  s.xcache_resume_evictions = xcache_resume_evictions_.load(kRelaxed);
  s.xcache_resident_bytes = xcache_resident_bytes_.load(kRelaxed);
  const int64_t fwd_lookups = s.xcache_fwd_hits + s.xcache_fwd_misses;
  s.xcache_fwd_hit_rate =
      fwd_lookups > 0 ? static_cast<double>(s.xcache_fwd_hits) / fwd_lookups
                      : 0;

  s.uptime_seconds = uptime_.ElapsedSeconds();
  s.qps = s.uptime_seconds > 0 ? s.completed / s.uptime_seconds : 0;
  const int64_t lookups = s.cache_hits + s.cache_misses;
  s.cache_hit_rate =
      lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0;

  std::array<int64_t, kNumBuckets> counts;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[static_cast<size_t>(i)] =
        latency_buckets_[static_cast<size_t>(i)].load(kRelaxed);
  }
  s.latency_bucket_counts = counts;
  for (int i = 0; i < kNumBuckets; ++i) {
    s.latency_exemplar_ids[static_cast<size_t>(i)] =
        latency_exemplar_ids_[static_cast<size_t>(i)].load(kRelaxed);
    s.latency_exemplar_ms[static_cast<size_t>(i)] =
        latency_exemplar_ms_[static_cast<size_t>(i)].load(kRelaxed);
  }
  s.latency_max_ms = latency_max_ms_.load(kRelaxed);
  const double latency_min = latency_min_ms_.load(kRelaxed);
  s.latency_p50_ms = PercentileLocked(0.50, s.completed, counts, latency_min,
                                      s.latency_max_ms);
  s.latency_p90_ms = PercentileLocked(0.90, s.completed, counts, latency_min,
                                      s.latency_max_ms);
  s.latency_p95_ms = PercentileLocked(0.95, s.completed, counts, latency_min,
                                      s.latency_max_ms);
  s.latency_p99_ms = PercentileLocked(0.99, s.completed, counts, latency_min,
                                      s.latency_max_ms);
  s.latency_sum_ms = latency_sum_ms_.load(kRelaxed);
  s.latency_mean_ms = s.completed > 0 ? s.latency_sum_ms / s.completed : 0;

  s.queue_wait_count = queue_wait_count_.load(kRelaxed);
  std::array<int64_t, kNumBuckets> waits;
  for (int i = 0; i < kNumBuckets; ++i) {
    waits[static_cast<size_t>(i)] =
        queue_wait_buckets_[static_cast<size_t>(i)].load(kRelaxed);
  }
  s.queue_wait_bucket_counts = waits;
  s.queue_wait_max_ms = queue_wait_max_ms_.load(kRelaxed);
  const double wait_min = queue_wait_min_ms_.load(kRelaxed);
  s.queue_wait_p50_ms = PercentileLocked(0.50, s.queue_wait_count, waits,
                                         wait_min, s.queue_wait_max_ms);
  s.queue_wait_p99_ms = PercentileLocked(0.99, s.queue_wait_count, waits,
                                         wait_min, s.queue_wait_max_ms);
  s.queue_wait_sum_ms = queue_wait_sum_ms_.load(kRelaxed);
  s.queue_wait_mean_ms =
      s.queue_wait_count > 0 ? s.queue_wait_sum_ms / s.queue_wait_count : 0;
  s.queue_depth = queue_depth_.load(kRelaxed);
  return s;
}

std::string ServiceMetrics::ToPrometheus() const {
  return PrometheusText(Snapshot());
}

void ServiceMetrics::Reset() {
  submitted_.store(0, kRelaxed);
  completed_.store(0, kRelaxed);
  errors_.store(0, kRelaxed);
  rejected_.store(0, kRelaxed);
  cache_hits_.store(0, kRelaxed);
  cache_misses_.store(0, kRelaxed);
  vertices_settled_.store(0, kRelaxed);
  edges_relaxed_.store(0, kRelaxed);
  routes_found_.store(0, kRelaxed);
  xcache_fwd_hits_.store(0, kRelaxed);
  xcache_fwd_misses_.store(0, kRelaxed);
  xcache_fwd_evictions_.store(0, kRelaxed);
  xcache_resume_reuses_.store(0, kRelaxed);
  xcache_resume_evictions_.store(0, kRelaxed);
  xcache_resident_bytes_.store(0, kRelaxed);
  for (auto& b : latency_buckets_) b.store(0, kRelaxed);
  for (auto& b : latency_exemplar_ids_) b.store(0, kRelaxed);
  for (auto& b : latency_exemplar_ms_) b.store(0, kRelaxed);
  latency_sum_ms_.store(0, kRelaxed);
  latency_min_ms_.store(kNoMin, kRelaxed);
  latency_max_ms_.store(0, kRelaxed);
  for (auto& b : queue_wait_buckets_) b.store(0, kRelaxed);
  queue_wait_count_.store(0, kRelaxed);
  queue_wait_sum_ms_.store(0, kRelaxed);
  queue_wait_min_ms_.store(kNoMin, kRelaxed);
  queue_wait_max_ms_.store(0, kRelaxed);
  queue_depth_.store(0, kRelaxed);
  uptime_.Reset();
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  out += FormatLine("submitted", submitted);
  out += FormatLine("completed", completed);
  out += FormatLine("errors", errors);
  out += FormatLine("rejected", rejected);
  out += FormatLine("uptime", uptime_seconds, "s");
  out += FormatLine("throughput", qps, "qps");
  out += FormatLine("cache hits", cache_hits);
  out += FormatLine("cache misses", cache_misses);
  out += FormatLine("cache hit rate", cache_hit_rate * 100.0, "%");
  out += FormatLine("latency p50", latency_p50_ms, "ms");
  out += FormatLine("latency p90", latency_p90_ms, "ms");
  out += FormatLine("latency p95", latency_p95_ms, "ms");
  out += FormatLine("latency p99", latency_p99_ms, "ms");
  out += FormatLine("latency mean", latency_mean_ms, "ms");
  out += FormatLine("latency max", latency_max_ms, "ms");
  out += FormatLine("queue depth", queue_depth);
  out += FormatLine("queue wait p50", queue_wait_p50_ms, "ms");
  out += FormatLine("queue wait p99", queue_wait_p99_ms, "ms");
  out += FormatLine("queue wait max", queue_wait_max_ms, "ms");
  out += FormatLine("vertices settled", vertices_settled);
  out += FormatLine("edges relaxed", edges_relaxed);
  out += FormatLine("routes found", routes_found);
  out += FormatLine("xcache fwd hits", xcache_fwd_hits);
  out += FormatLine("xcache fwd misses", xcache_fwd_misses);
  out += FormatLine("xcache hit rate", xcache_fwd_hit_rate * 100.0, "%");
  out += FormatLine("xcache evictions", xcache_fwd_evictions);
  out += FormatLine("xcache resume reuse", xcache_resume_reuses);
  out += FormatLine("xcache resume evict", xcache_resume_evictions);
  out += FormatLine("xcache resident", static_cast<double>(
                        xcache_resident_bytes) / 1024.0, "KiB");
  if (!slow_queries.empty()) {
    out += "slowest queries:\n";
    for (const SlowQueryRecord& r : slow_queries) {
      out += "  " + r.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace skysr
